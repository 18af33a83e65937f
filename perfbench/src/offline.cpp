#include "offline.h"

#include <bit>
#include <chrono>
#include <cstdio>

#include "core/planner.h"
#include "load.h"
#include "models/registry.h"
#include "net/channel.h"
#include "profile/device.h"
#include "profile/latency_model.h"
#include "util/stats.h"
#include "workloads.h"

namespace perfbench {

using jps::core::Planner;
using Clock = std::chrono::steady_clock;

namespace {

constexpr std::size_t kScalarStride = 20;
constexpr double kBaseMbps = 10.0;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

}  // namespace

OfflineResult run_offline(double seconds) {
  OfflineResult result;
  const std::vector<double> grid = sweep_grid();
  const jps::net::Channel channel(kBaseMbps);
  const jps::profile::LatencyModel mobile(
      jps::profile::DeviceProfile::raspberry_pi_4b());
  const Clock::time_point begin = Clock::now();

  while (result.setup_s.size() < 3 ||
         seconds_between(begin, Clock::now()) < seconds) {
    const Clock::time_point setup_start = Clock::now();
    std::vector<Planner> planners;
    for (const std::string& model : jps::models::all_names()) {
      planners.emplace_back(jps::partition::ProfileCurve::build(
          jps::models::build(model), mobile, channel));
    }
    result.setup_s.push_back(seconds_between(setup_start, Clock::now()));

    double sweep_s = 0.0;
    std::size_t points = 0;
    std::vector<double> scalar_ms;
    for (const Planner& planner : planners) {
      for (const NamedStrategy& s : servable_strategies()) {
        for (const int n : kSweepJobs) {
          const Clock::time_point t0 = Clock::now();
          const jps::core::PlanSweep sweep =
              planner.plan_sweep(s.strategy, n, grid, channel);
          sweep_s += seconds_between(t0, Clock::now());
          points += sweep.size();

          for (std::size_t k = 0; k < grid.size(); k += kScalarStride) {
            const Clock::time_point t1 = Clock::now();
            const jps::core::ExecutionPlan plan =
                Planner(planner.curve().with_bandwidth(channel, grid[k]))
                    .plan(s.strategy, n);
            scalar_ms.push_back(seconds_between(t1, Clock::now()) * 1000.0);
            ++result.attempted;

            std::vector<std::size_t> scalar_cuts;
            for (const jps::core::JobAssignment& job : plan.jobs)
              scalar_cuts.push_back(job.cut_index);
            std::vector<std::size_t> lane_cuts(
                static_cast<std::size_t>(sweep.n_a[k]), sweep.cut_a[k]);
            lane_cuts.resize(static_cast<std::size_t>(n), sweep.cut_b[k]);
            if (std::bit_cast<std::uint64_t>(plan.predicted_makespan) !=
                    std::bit_cast<std::uint64_t>(sweep.makespan_ms[k]) ||
                cut_mix(scalar_cuts) != cut_mix(lane_cuts)) {
              if (result.mismatches++ == 0)
                result.first_problem =
                    planner.curve().model_name() + " " + s.name +
                    " n=" + std::to_string(n) + " at " +
                    std::to_string(grid[k]) + " Mbps: sweep != scalar plan";
            }
          }
        }
      }
    }
    result.attempted += points;
    result.sweep_plans_per_sec.push_back(static_cast<double>(points) / sweep_s);
    result.scalar_p50_ms.push_back(jps::util::percentile(scalar_ms, 50.0));
    result.scalar_p99_ms.push_back(jps::util::percentile(scalar_ms, 99.0));
    result.scalar_calls_per_round = scalar_ms.size();
    std::printf("round %zu: %.0f sweep plans/s scalar p50 %.5f ms p99 %.5f ms "
                "setup %.5f s\n",
                result.setup_s.size(), result.sweep_plans_per_sec.back(),
                result.scalar_p50_ms.back(), result.scalar_p99_ms.back(),
                result.setup_s.back());
  }
  return result;
}

}  // namespace perfbench
