// Memoization of profile curves and execution plans.
//
// Serving traffic means answering the same planning question again and
// again: the fig13/fig14 sweeps ask for one curve per (model, bandwidth)
// and four plans on top of it; a deployment asks for the same (model,
// device, bandwidth, strategy, n) whenever two users share a network
// condition.  Curve construction walks the whole DNN graph and planning
// re-runs Johnson + makespan, so both are worth caching: results are pure
// functions of their keys (deterministic by design — see
// docs/PARALLELISM.md).
//
// Concurrency: reads take a shared lock; a miss builds *outside* any lock
// (concurrent misses for one key may build twice — the first insert wins
// and later builders adopt the cached value, keeping hit pointers stable).
// Values are handed out as shared_ptr<const T> so entries stay alive across
// clear() while a caller still uses them.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/plan.h"
#include "partition/profile_curve.h"
#include "util/mutex.h"

namespace jps::core {

/// Identity of a profile curve: one model on one device over one channel.
///
/// The constructor canonicalizes the bandwidth (-0.0 becomes 0.0, so equal
/// keys hash equally) and rejects non-finite values with a JPS_REQUIRE: a
/// NaN bandwidth would compare unequal to itself, making the entry
/// unreachable while it silently occupies (and poisons) the table.
struct CurveCacheKey {
  std::string model;
  /// Device/profile identity (e.g. DeviceProfile::name, or a lookup-table
  /// path for profiled deployments).
  std::string device;
  double bandwidth_mbps = 0.0;

  CurveCacheKey() = default;
  CurveCacheKey(std::string model, std::string device, double bandwidth_mbps);

  friend bool operator==(const CurveCacheKey&, const CurveCacheKey&) = default;
};

/// Identity of an execution plan: a curve identity plus the planning ask.
/// Bandwidth canonicalization/validation as in CurveCacheKey.
struct PlanCacheKey {
  std::string model;
  std::string device;
  double bandwidth_mbps = 0.0;
  Strategy strategy = Strategy::kJPS;
  int n_jobs = 0;

  PlanCacheKey() = default;
  PlanCacheKey(std::string model, std::string device, double bandwidth_mbps,
               Strategy strategy = Strategy::kJPS, int n_jobs = 0);

  friend bool operator==(const PlanCacheKey&, const PlanCacheKey&) = default;
};

/// Thread-safe memo of curves and plans with hit/miss accounting.
class PlanCache {
 public:
  struct Stats {
    std::uint64_t curve_hits = 0;
    std::uint64_t curve_misses = 0;
    std::uint64_t plan_hits = 0;
    std::uint64_t plan_misses = 0;

    [[nodiscard]] std::uint64_t hits() const { return curve_hits + plan_hits; }
    [[nodiscard]] std::uint64_t misses() const {
      return curve_misses + plan_misses;
    }
    /// Hits over lookups across both tables (0 when never queried).
    [[nodiscard]] double hit_rate() const {
      const std::uint64_t total = hits() + misses();
      return total == 0 ? 0.0
                        : static_cast<double>(hits()) /
                              static_cast<double>(total);
    }
  };

  using CurveBuilder = std::function<partition::ProfileCurve()>;
  using PlanBuilder = std::function<ExecutionPlan()>;

  PlanCache() = default;
  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// The curve for `key`, building it with `build` on a miss.
  [[nodiscard]] std::shared_ptr<const partition::ProfileCurve> curve(
      const CurveCacheKey& key, const CurveBuilder& build);

  /// The plan for `key`, building it with `build` on a miss.
  [[nodiscard]] std::shared_ptr<const ExecutionPlan> plan(
      const PlanCacheKey& key, const PlanBuilder& build);

  /// The cached plan for `key`, or nullptr; never builds.  Counts a plan
  /// hit on success and nothing on a miss, so a caller that falls back to
  /// plan() after a nullptr still has that lookup counted exactly once.
  [[nodiscard]] std::shared_ptr<const ExecutionPlan> find_plan(
      const PlanCacheKey& key);

  /// One exported plan-table entry (snapshot format, tests).
  using PlanEntry = std::pair<PlanCacheKey, std::shared_ptr<const ExecutionPlan>>;

  /// Quiet insert for warm-start: no hit/miss accounting, first insert wins
  /// (an already-cached key keeps its value — a reloaded snapshot must
  /// never clobber a plan computed after startup).
  void insert_plan(const PlanCacheKey& key,
                   std::shared_ptr<const ExecutionPlan> plan);

  /// Every plan-table entry, unordered.  Values are shared, not copied.
  [[nodiscard]] std::vector<PlanEntry> plan_entries() const;

  /// The cached plan whose key matches `want` on every field except
  /// bandwidth, minimizing |bandwidth - want.bandwidth_mbps| (ties to the
  /// lower bandwidth, so the answer is deterministic).  Degraded-mode
  /// lookup for an open circuit breaker: "a plan for roughly this uplink
  /// beats no plan at all".  nullptr when no candidate exists.
  [[nodiscard]] std::shared_ptr<const ExecutionPlan> nearest_plan(
      const PlanCacheKey& want, double* bandwidth_out = nullptr) const;

  /// Counters snapshot (monotone since construction or reset_stats()).
  [[nodiscard]] Stats stats() const;

  /// Zero the hit/miss counters (entries are kept).
  void reset_stats();

  /// Drop all entries and zero the counters.  Outstanding shared_ptrs stay
  /// valid.
  void clear();

  [[nodiscard]] std::size_t curve_count() const;
  [[nodiscard]] std::size_t plan_count() const;

  /// The process-wide cache the benches, CLI, and serving paths share.
  [[nodiscard]] static PlanCache& global();

  /// The hashes the tables key on (also shard routing, and any other map
  /// that must treat two keys as one exactly when the cache does).
  struct CurveKeyHash {
    std::size_t operator()(const CurveCacheKey& k) const;
  };
  struct PlanKeyHash {
    std::size_t operator()(const PlanCacheKey& k) const;
  };

 private:
  // One lock-order name per cache *class*: every shard (and the global
  // cache) is interchangeable in the acquisition graph, and no code path
  // nests two of them.
  mutable util::SharedMutex mutex_{"core.plan_cache"};
  std::unordered_map<CurveCacheKey,
                     std::shared_ptr<const partition::ProfileCurve>,
                     CurveKeyHash>
      curves_ JPS_GUARDED_BY(mutex_);
  std::unordered_map<PlanCacheKey, std::shared_ptr<const ExecutionPlan>,
                     PlanKeyHash>
      plans_ JPS_GUARDED_BY(mutex_);
  std::atomic<std::uint64_t> curve_hits_{0};
  std::atomic<std::uint64_t> curve_misses_{0};
  std::atomic<std::uint64_t> plan_hits_{0};
  std::atomic<std::uint64_t> plan_misses_{0};
};

/// PlanCache striped across N independent shards, each with its own
/// shared_mutex.  One PlanCache is enough for a bench loop, but a
/// multi-tenant plan server answers concurrent requests for *different*
/// (model, bandwidth-bucket) keys, and a single writer inserting a miss
/// would stall every reader behind one lock.  Keys are routed to a shard by
/// their hash (curve and plan keys with equal (model, device, bandwidth)
/// stay on potentially different shards — the tables are independent, so
/// that is fine), which keeps PlanCache itself untouched while serving gets
/// lock striping for free.
class ShardedPlanCache {
 public:
  /// `shards` is clamped to at least 1.
  explicit ShardedPlanCache(std::size_t shards = 8);

  ShardedPlanCache(const ShardedPlanCache&) = delete;
  ShardedPlanCache& operator=(const ShardedPlanCache&) = delete;

  /// Same contract as PlanCache::curve / plan / find_plan.
  [[nodiscard]] std::shared_ptr<const partition::ProfileCurve> curve(
      const CurveCacheKey& key, const PlanCache::CurveBuilder& build);
  [[nodiscard]] std::shared_ptr<const ExecutionPlan> plan(
      const PlanCacheKey& key, const PlanCache::PlanBuilder& build);
  [[nodiscard]] std::shared_ptr<const ExecutionPlan> find_plan(
      const PlanCacheKey& key);

  /// Same contract as the PlanCache counterparts; entries aggregate across
  /// shards and nearest_plan scans every shard for the global minimum.
  void insert_plan(const PlanCacheKey& key,
                   std::shared_ptr<const ExecutionPlan> plan);
  [[nodiscard]] std::vector<PlanCache::PlanEntry> plan_entries() const;
  [[nodiscard]] std::shared_ptr<const ExecutionPlan> nearest_plan(
      const PlanCacheKey& want, double* bandwidth_out = nullptr) const;

  /// Counters aggregated across every shard.
  [[nodiscard]] PlanCache::Stats stats() const;

  void reset_stats();
  void clear();

  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  [[nodiscard]] std::size_t curve_count() const;
  [[nodiscard]] std::size_t plan_count() const;

  /// Shard index a key routes to (exposed so tests can pin the routing).
  [[nodiscard]] std::size_t shard_of(const CurveCacheKey& key) const;
  [[nodiscard]] std::size_t shard_of(const PlanCacheKey& key) const;

 private:
  // unique_ptr: PlanCache is neither movable nor copyable.
  std::vector<std::unique_ptr<PlanCache>> shards_;
};

}  // namespace jps::core
