// Crash-safe plan-cache snapshots: warm-start for a restarted plan server.
//
// A restarted server with a cold ShardedPlanCache sends every tenant's
// first request to the Planner at once — a thundering herd against the most
// expensive path in the process.  This module serializes the cache's plan
// table to a versioned, CRC-checked binary file and reloads it at startup,
// so a restart answers from warm cache.
//
// Format (all integers little-endian):
//
//   bytes 0..7  magic "JPSSNAP\n"
//   u32         format version (2)
//   u32         entry count
//   entries     str16 model | str16 device | f64 bandwidth_mbps
//               | u8 strategy | u32 n_jobs
//               | u32 cut_a | u32 cut_b | u32 n_a | f64 predicted_makespan
//   u32         CRC-32 of everything above
//
// Each entry is its key plus the fixed-size core::PlanDecision the serve
// cache holds.  Decoding admits only keys a request can produce and
// decisions that fit them: n_jobs in [1, INT_MAX], a servable strategy
// (not BF/ROB), a finite bandwidth > 0, n_a <= n_jobs, and a finite
// makespan >= 0.  Cut indices are not checked against the model's curve
// (the curve is not persisted).  Version 1 files (per-job "jps-plan v1"
// text per entry) are rejected as an unsupported version: a cold start.
//
// Durability rules:
//   * save is ATOMIC: write to "<path>.tmp", fsync-free rename over the
//     destination.  A crash mid-save leaves the previous snapshot intact.
//   * load NEVER throws and never partially applies: a missing file is a
//     normal cold start; a corrupt/truncated/invalid snapshot is
//     detected (CRC first, then per-entry checks), logged via util::log, and
//     ignored wholesale.  A bad snapshot can cost warmth, never correctness.
//
// Only the plan table is persisted.  Curves are bigger, cheaper to rebuild
// relative to their size, and derivable on demand; the breaker's degraded
// mode needs exactly the plan table to serve stale answers after a restart.
#pragma once

#include <cstddef>
#include <string>

#include "core/plan_cache.h"

namespace jps::serve {

inline constexpr std::uint32_t kSnapshotVersion = 2;

struct SnapshotLoadResult {
  /// False only when a snapshot existed but was rejected (corrupt,
  /// truncated, wrong version, invalid entry).  A missing file is a
  /// clean cold start: ok == true, entries == 0.
  bool ok = true;
  /// Entries inserted into the cache.
  std::size_t entries = 0;
  /// Why the snapshot was rejected (empty when ok).
  std::string error;
};

/// Serialize the cache's plan table (deterministic: entries sorted by key).
[[nodiscard]] std::string encode_cache_snapshot(
    const core::ShardedPlanCache& cache);

/// Decode `bytes` and insert every entry into `cache` (first insert wins —
/// already-cached keys keep their value).  All-or-nothing: nothing is
/// inserted unless the whole snapshot validates.
[[nodiscard]] SnapshotLoadResult decode_cache_snapshot(
    const std::string& bytes, core::ShardedPlanCache& cache);

/// Atomically write encode_cache_snapshot() to `path` (tmp + rename).
/// Throws std::runtime_error on I/O failure.
void save_cache_snapshot(const core::ShardedPlanCache& cache,
                         const std::string& path);

/// Load `path` into `cache`.  Never throws: rejection reasons come back in
/// the result (and are logged), missing files are a clean cold start.
[[nodiscard]] SnapshotLoadResult load_cache_snapshot(
    core::ShardedPlanCache& cache, const std::string& path);

}  // namespace jps::serve
