#include "core/robust.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "core/planner.h"
#include "obs/obs.h"
#include "sched/makespan.h"

namespace jps::core {

namespace {

std::vector<double> grid_points(const BandwidthInterval& interval,
                                int samples) {
  std::vector<double> grid;
  grid.reserve(static_cast<std::size_t>(samples));
  if (samples == 1) {
    grid.push_back(0.5 * (interval.lo_mbps + interval.hi_mbps));
    return grid;
  }
  const double step = (interval.hi_mbps - interval.lo_mbps) /
                      static_cast<double>(samples - 1);
  for (int s = 0; s < samples; ++s)
    grid.push_back(interval.lo_mbps + step * static_cast<double>(s));
  grid.back() = interval.hi_mbps;  // exact endpoint despite rounding
  return grid;
}

std::vector<double> comm_times_at(const partition::ProfileCurve& curve,
                                  const net::Channel& channel, double mbps) {
  const net::Channel at_rate = channel.with_bandwidth(mbps);
  const std::span<const std::uint64_t> bytes = curve.offload_bytes_lane();
  std::vector<double> g(curve.size());
  for (std::size_t i = 0; i < curve.size(); ++i)
    g[i] = bytes[i] > 0 ? at_rate.time_ms(bytes[i]) : 0.0;
  return g;
}

}  // namespace

double cvar_tail_mean(std::vector<double> samples, double alpha) {
  if (samples.empty())
    throw std::invalid_argument("cvar_tail_mean: no samples");
  if (alpha < 0.0 || alpha >= 1.0)
    throw std::invalid_argument("cvar_tail_mean: alpha outside [0, 1)");
  const auto n = samples.size();
  auto tail = static_cast<std::size_t>(
      static_cast<double>(n) * (1.0 - alpha) + (1.0 - 1e-12));
  tail = std::clamp<std::size_t>(tail, 1, n);
  std::partial_sort(samples.begin(),
                    samples.begin() + static_cast<std::ptrdiff_t>(tail),
                    samples.end(), std::greater<>());
  double sum = 0.0;
  for (std::size_t i = 0; i < tail; ++i) sum += samples[i];
  return sum / static_cast<double>(tail);
}

RobustPlanner::RobustPlanner(partition::ProfileCurve curve,
                             net::Channel channel, BandwidthInterval interval,
                             RobustPlannerOptions options)
    : curve_(std::move(curve)),
      channel_(channel),
      interval_(interval),
      options_(options) {
  if (curve_.size() == 0)
    throw std::invalid_argument("RobustPlanner: empty curve");
  if (!curve_.is_monotone())
    throw std::invalid_argument("RobustPlanner: curve must be monotone");
  if (interval_.lo_mbps <= 0.0 || interval_.hi_mbps < interval_.lo_mbps)
    throw std::invalid_argument("RobustPlanner: bad bandwidth interval");
  if (options_.samples < 1)
    throw std::invalid_argument("RobustPlanner: samples < 1");
  if (options_.cvar_alpha < 0.0 || options_.cvar_alpha >= 1.0)
    throw std::invalid_argument("RobustPlanner: cvar_alpha outside [0, 1)");

  // Fill the per-cut-contiguous grid: cut i's samples occupy
  // g_grid_[i * samples .. i * samples + samples).
  const auto samples = static_cast<std::size_t>(options_.samples);
  g_grid_.resize(curve_.size() * samples);
  const std::vector<double> grid = bandwidth_grid();
  for (std::size_t s = 0; s < grid.size(); ++s) {
    const std::vector<double> g = comm_times_at(curve_, channel_, grid[s]);
    for (std::size_t i = 0; i < curve_.size(); ++i)
      g_grid_[i * samples + s] = g[i];
  }
  g_nominal_.assign(curve_.g_lane().begin(), curve_.g_lane().end());
}

std::vector<double> RobustPlanner::bandwidth_grid() const {
  return grid_points(interval_, options_.samples);
}

RobustDecision RobustPlanner::decide(int n_jobs) const {
  if (n_jobs < 1)
    throw std::invalid_argument("RobustPlanner::decide: n_jobs < 1");
  obs::Span span("robust.decide", "core");
  span.arg("n_jobs", std::to_string(n_jobs));
  span.arg("samples", std::to_string(options_.samples));

  // Per-sample makespans of one candidate, reused across candidates.
  std::vector<double> ms(static_cast<std::size_t>(options_.samples));
  RobustDecision best;
  double best_score = std::numeric_limits<double>::infinity();
  for (std::size_t a = 0; a < curve_.size(); ++a) {
    const std::span<const double> g_a = cut_samples(a);
    for (std::size_t b = a; b < curve_.size(); ++b) {
      const std::span<const double> g_b = cut_samples(b);
      // a == b only needs the pure split n_a = 0 (all jobs at b).
      const int max_na = a == b ? 0 : n_jobs;
      for (int n_a = 0; n_a <= max_na; ++n_a) {
        // One branch-light kernel call scores this candidate across the
        // whole grid; out[s] is bit-identical to the scalar
        // two_type_makespan at sample s.
        two_type_makespan_batch(curve_.f(a), g_a, curve_.f(b), g_b, n_a,
                                n_jobs - n_a, ms);
        const double worst = *std::max_element(ms.begin(), ms.end());
        const double risk = cvar_tail_mean(ms, options_.cvar_alpha);
        const double score =
            options_.objective == RobustObjective::kWorstCase ? worst : risk;
        if (score < best_score) {
          best_score = score;
          best.cut_a = a;
          best.cut_b = b;
          best.n_a = n_a;
          best.worst_case_ms = worst;
          best.cvar_ms = risk;
        }
      }
    }
  }
  best.nominal_ms =
      two_type_makespan(curve_.f(best.cut_a), g_nominal_[best.cut_a],
                        curve_.f(best.cut_b), g_nominal_[best.cut_b], best.n_a,
                        n_jobs - best.n_a);
  span.arg("worst_case_ms", best.worst_case_ms);
  span.arg("cvar_ms", best.cvar_ms);
  return best;
}

ExecutionPlan RobustPlanner::plan(int n_jobs) const {
  const RobustDecision decision = decide(n_jobs);
  std::vector<std::size_t> cuts(static_cast<std::size_t>(n_jobs),
                                decision.cut_b);
  std::fill_n(cuts.begin(), decision.n_a, decision.cut_a);
  return assemble_plan(curve_, Strategy::kRobust, cuts);
}

std::vector<double> plan_makespans_over_interval(
    const ExecutionPlan& plan, const partition::ProfileCurve& curve,
    const net::Channel& channel, BandwidthInterval interval, int samples) {
  if (samples < 1)
    throw std::invalid_argument("plan_makespans_over_interval: samples < 1");
  if (interval.lo_mbps <= 0.0 || interval.hi_mbps < interval.lo_mbps)
    throw std::invalid_argument("plan_makespans_over_interval: bad interval");
  // The plan's f lane is fixed; per sample only the g lane is rewritten —
  // no JobList copy, and the lane closed_form_makespan streams two
  // contiguous arrays.
  std::vector<double> g_jobs(plan.jobs.size());
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(samples));
  for (const double mbps : grid_points(interval, samples)) {
    const std::vector<double> g = comm_times_at(curve, channel, mbps);
    for (std::size_t i = 0; i < g_jobs.size(); ++i)
      g_jobs[i] = g[plan.jobs[i].cut_index];
    out.push_back(sched::closed_form_makespan(plan.f_lane, g_jobs));
  }
  return out;
}

}  // namespace jps::core
