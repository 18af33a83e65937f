// Seeded request generators for the benchmark's workloads.
//
// Every input a run uses comes from here and from the run's --seed alone:
// the same seed yields the same warm-up and timed sequences, byte for byte
// (sequence_digest pins that, and `jps_perfbench --self-test` checks it).
// The daemon only ever sees these generated requests.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/plan.h"
#include "serve/protocol.h"

namespace perfbench {

/// The daemon's bandwidth quantization step (jps_serve --bucket-mbps
/// default); every key and prediction below buckets with it.
inline constexpr double kBucketMbps = 0.25;

/// The six strategies the daemon serves, with metric-safe names.
struct NamedStrategy {
  jps::core::Strategy strategy;
  const char* name;
};
[[nodiscard]] const std::vector<NamedStrategy>& servable_strategies();

/// The offline sweep's n_jobs values and grid size.
inline constexpr int kSweepJobs[] = {8, 64, 512};
inline constexpr std::size_t kSweepGridPoints = 2000;
/// kSweepGridPoints log-spaced rates over [1, 100] Mbps, ascending.
[[nodiscard]] std::vector<double> sweep_grid();

struct Workload {
  std::string name;
  /// Drives the jps_serve daemon (false for offline_sweep, whose end-to-end
  /// numbers are in-process; its traced run replays `timed` at a daemon).
  bool serve = true;
  /// A fresh connection per request (conn_churn).
  bool churn = false;
  /// Sent once on one connection before the timed window of every round.
  std::vector<jps::serve::PlanRequest> warmup;
  /// One round's timed requests, in generation order.  Fixed per run: the
  /// plan cache never evicts, so memory is only comparable across runs at a
  /// fixed request count.
  std::vector<jps::serve::PlanRequest> timed;
};

/// Names accepted by make_workload, in display order.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Build workload `name` from `seed`.  Throws std::invalid_argument for an
/// unknown name.
[[nodiscard]] Workload make_workload(const std::string& name,
                                     std::uint64_t seed);

/// The daemon's plan-cache identity of a request: model, strategy, n_jobs
/// and the quantized bandwidth's bits.
[[nodiscard]] std::string plan_key(const jps::serve::PlanRequest& request);

/// What the generated sequence implies for the plan cache of a fresh daemon
/// that first sees `warmup`, then `timed`.
struct CachePrediction {
  std::size_t distinct_keys = 0;  ///< distinct keys among the timed requests
  std::size_t new_keys = 0;       ///< of those, keys the warm-up did not plan
  /// Share of timed requests whose key was planned before they arrive.
  double hit_share = 0.0;
};
[[nodiscard]] CachePrediction predict_cache(const Workload& workload);

/// FNV-1a over every field of every generated request (warm-up then timed).
[[nodiscard]] std::uint64_t sequence_digest(const Workload& workload);

}  // namespace perfbench
