// offline_sweep: the library's offline use (fig13/fig14), in process.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

struct OfflineResult {
  // Per round: set-up (curves for the zoo), batched sweep rate, and the
  // p50/p99 of that round's timed scalar plan() calls.
  std::vector<double> setup_s;
  std::vector<double> sweep_plans_per_sec;
  std::vector<double> scalar_p50_ms;
  std::vector<double> scalar_p99_ms;
  std::size_t scalar_calls_per_round = 0;
  std::size_t attempted = 0;                ///< plans decided (both paths)
  std::size_t mismatches = 0;               ///< sampled points != scalar path
  std::string first_problem;
};

/// Rounds until `seconds` have passed (at least three).  Each round builds
/// the 12 zoo curves, runs Planner::plan_sweep for every servable strategy
/// x n_jobs in {8, 64, 512} over the 2,000-point grid, then times scalar
/// Planner(curve.with_bandwidth(...)).plan() on every 20th grid point and
/// checks those points bit-identical to the sweep (makespan and cut mix).
[[nodiscard]] OfflineResult run_offline(double seconds);

}  // namespace perfbench
