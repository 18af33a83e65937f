#include "core/planner.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "check/contracts.h"
#include "obs/obs.h"
#include "sched/bruteforce.h"
#include "sched/johnson.h"
#include "sched/makespan.h"

namespace jps::core {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

// Number of jobs (out of n) assigned to the communication-heavy cut l*-1.
// Theorem 5.3's balance condition n1*(g(l*-1)-f(l*-1)) = n2*(f(l*)-g(l*))
// gives n1 : n2 = surplus : deficit; the paper floors that quotient into an
// integer "Ratio", which loses the mix entirely whenever the exact quotient
// is below 1.  We apply the balance directly (rounding once, at the job
// count), which is the same rule without the double truncation.
int jobs_at_l_minus(double surplus, double deficit, int n) {
  if (surplus <= 0.0 || deficit <= 0.0) return 0;
  const double fraction = surplus / (surplus + deficit);
  const int n1 = static_cast<int>(std::lround(static_cast<double>(n) * fraction));
  return std::clamp(n1, 0, n);
}

}  // namespace

const char* strategy_name(Strategy s) {
  switch (s) {
    case Strategy::kLocalOnly: return "LO";
    case Strategy::kCloudOnly: return "CO";
    case Strategy::kPartitionOnly: return "PO";
    case Strategy::kJPS: return "JPS";
    case Strategy::kJPSTuned: return "JPS*";
    case Strategy::kJPSHull: return "JPS+";
    case Strategy::kBruteForce: return "BF";
    case Strategy::kRobust: return "ROB";
  }
  return "?";
}

ExecutionPlan assemble_plan(const partition::ProfileCurve& curve,
                            Strategy strategy,
                            const std::vector<std::size_t>& cuts) {
  sched::JobList jobs;
  jobs.reserve(cuts.size());
  for (std::size_t i = 0; i < cuts.size(); ++i) {
    jobs.push_back(sched::Job{.id = static_cast<int>(i),
                              .cut = static_cast<int>(cuts[i]),
                              .f = curve.f(cuts[i]),
                              .g = curve.g(cuts[i])});
  }
  const sched::JohnsonSchedule schedule = sched::johnson_order(jobs);

  ExecutionPlan plan;
  plan.model = curve.model_name();
  plan.strategy = strategy;
  plan.comm_heavy_count = schedule.comm_heavy_count;
  plan.scheduled_jobs = sched::apply_order(jobs, schedule.order);
  plan.jobs.reserve(jobs.size());
  for (const sched::Job& job : plan.scheduled_jobs) {
    plan.jobs.push_back({job.id, static_cast<std::size_t>(job.cut)});
  }
  plan.refresh_lanes();
  // The lane overload is bit-identical to the Job-span recurrence; it just
  // streams two contiguous doubles per job instead of a 5-field struct.
  plan.predicted_makespan =
      sched::flowshop2_makespan(plan.f_lane, plan.g_lane);
  return plan;
}

Planner::Planner(partition::ProfileCurve curve, PlannerOptions options)
    : curve_(std::move(curve)), options_(options) {
  JPS_REQUIRE(curve_.size() >= 1, "a plannable curve has at least one cut");
  decision_ = partition::binary_search_cut(curve_);
}

std::size_t Planner::single_job_optimal_cut() const {
  std::size_t best = 0;
  double best_latency = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < curve_.size(); ++i) {
    const double latency = curve_.f(i) + curve_.g(i);
    if (latency < best_latency) {
      best_latency = latency;
      best = i;
    }
  }
  return best;
}

std::vector<std::size_t> Planner::lower_hull_cuts() const {
  // Andrew's monotone chain, lower hull only.  Cuts are already sorted by
  // ascending f; ties in f keep the later (smaller-g) point via <= pops.
  const auto cross = [&](std::size_t o, std::size_t a, std::size_t b) {
    return (curve_.f(a) - curve_.f(o)) * (curve_.g(b) - curve_.g(o)) -
           (curve_.g(a) - curve_.g(o)) * (curve_.f(b) - curve_.f(o));
  };
  std::vector<std::size_t> hull;
  for (std::size_t i = 0; i < curve_.size(); ++i) {
    while (hull.size() >= 2 &&
           cross(hull[hull.size() - 2], hull.back(), i) <= 0.0) {
      hull.pop_back();
    }
    hull.push_back(i);
  }
  return hull;
}

double two_type_makespan(double f_a, double g_a, double f_b, double g_b,
                         int n_a, int n_b) {
  // makespan = max_i (F_i + G_i) with F_i the f-prefix through job i and
  // G_i the g-suffix from job i.  Within a homogeneous run the term is
  // linear in i, so only the four run endpoints can attain the maximum.
  //
  // An empty run must be ignored entirely, not multiplied by a zero count:
  // the old "count * value" terms turned an unused cut's inf/NaN stages
  // into NaN, and std::max(-inf, NaN) then leaked -inf out as the result.
  const double a_count = static_cast<double>(n_a);
  const double b_count = static_cast<double>(n_b);
  if (n_a <= 0 && n_b <= 0) return 0.0;
  if (n_b <= 0)  // pure a-run: endpoints i = 1 and i = n_a
    return std::max(f_a + a_count * g_a, a_count * f_a + g_a);
  if (n_a <= 0)  // pure b-run: endpoints i = 1 and i = n_b
    return std::max(f_b + b_count * g_b, b_count * f_b + g_b);
  double best = f_a + a_count * g_a + b_count * g_b;             // i = 1
  best = std::max(best, a_count * f_a + g_a + b_count * g_b);    // i = n_a
  best = std::max(best, a_count * f_a + f_b + b_count * g_b);    // i = n_a+1
  best = std::max(best, a_count * f_a + b_count * f_b + g_b);    // i = n
  return best;
}

void two_type_makespan_batch(double f_a, std::span<const double> g_a,
                             double f_b, std::span<const double> g_b, int n_a,
                             int n_b, std::span<double> out) {
  if (g_a.size() != g_b.size() || out.size() != g_a.size())
    throw std::invalid_argument("two_type_makespan_batch: span size mismatch");
  const std::size_t samples = out.size();
  const double a_count = static_cast<double>(n_a);
  const double b_count = static_cast<double>(n_b);
  if (n_a <= 0 && n_b <= 0) {
    std::fill(out.begin(), out.end(), 0.0);
    return;
  }
  // The count branches are per-candidate constants; hoisting them leaves
  // one branch-free multiply-add-max pass per case.  Every arithmetic
  // expression below keeps the scalar function's association, so out[s] is
  // bit-identical to two_type_makespan(f_a, g_a[s], f_b, g_b[s], n_a, n_b).
  if (n_b <= 0) {
    const double af = a_count * f_a;
    for (std::size_t s = 0; s < samples; ++s)
      out[s] = std::max(f_a + a_count * g_a[s], af + g_a[s]);
    return;
  }
  if (n_a <= 0) {
    const double bf = b_count * f_b;
    for (std::size_t s = 0; s < samples; ++s)
      out[s] = std::max(f_b + b_count * g_b[s], bf + g_b[s]);
    return;
  }
  const double af = a_count * f_a;
  const double af_fb = af + f_b;
  const double af_bf = af + b_count * f_b;
  for (std::size_t s = 0; s < samples; ++s) {
    const double bg = b_count * g_b[s];
    double best = f_a + a_count * g_a[s] + bg;  // i = 1
    best = std::max(best, af + g_a[s] + bg);    // i = n_a
    best = std::max(best, af_fb + bg);          // i = n_a+1
    best = std::max(best, af_bf + g_b[s]);      // i = n
    out[s] = best;
  }
}

int best_two_type_split(double f_a, double g_a, double f_b, double g_b,
                        int n_jobs) {
  int best_split = 0;
  double best_makespan = std::numeric_limits<double>::infinity();
  for (int n_a = 0; n_a <= n_jobs; ++n_a) {
    const double ms = two_type_makespan(f_a, g_a, f_b, g_b, n_a, n_jobs - n_a);
    if (ms < best_makespan) {
      best_makespan = ms;
      best_split = n_a;
    }
  }
  return best_split;
}

ExecutionPlan Planner::best_split_plan(Strategy strategy, std::size_t a,
                                       std::size_t b, int n_jobs) const {
  // The curve is monotone and a < b, so f(a) <= f(b) and g(a) >= g(b): the
  // Johnson order of any mix is "all a-jobs before all b-jobs" (a-jobs win
  // S1's ascending-f and S2's descending-g tie-breaks alike).  That fixed
  // order makes each candidate split O(1) to evaluate, and the whole sweep
  // O(n) instead of the former O(n^2 log n) of one finalize() per split.
  const int n_a = best_two_type_split(curve_.f(a), curve_.g(a), curve_.f(b),
                                      curve_.g(b), n_jobs);
  std::vector<std::size_t> cuts(static_cast<std::size_t>(n_jobs), b);
  for (int i = 0; i < n_a; ++i) cuts[static_cast<std::size_t>(i)] = a;
  return finalize(strategy, cuts);
}

ExecutionPlan Planner::finalize(Strategy strategy,
                                const std::vector<std::size_t>& cuts) const {
  return assemble_plan(curve_, strategy, cuts);
}

ExecutionPlan Planner::plan(Strategy strategy, int n_jobs) const {
  if (n_jobs < 1) throw std::invalid_argument("Planner::plan: n_jobs < 1");
  static obs::Counter& plans = obs::counter("planner.plans");
  plans.add();
  obs::Span span("planner.plan", "core");
  span.arg("strategy", strategy_name(strategy));
  span.arg("n_jobs", std::to_string(n_jobs));
  span.arg("model", curve_.model_name());
  ExecutionPlan plan = plan_impl(strategy, n_jobs);
  span.arg("makespan_ms", plan.predicted_makespan);
  JPS_ENSURE(plan.jobs.size() == static_cast<std::size_t>(n_jobs),
             "every requested job must be scheduled");
  JPS_ENSURE(std::isfinite(plan.predicted_makespan) &&
                 plan.predicted_makespan >= 0.0,
             "predicted makespan must be finite and non-negative");
  return plan;
}

ExecutionPlan Planner::plan_impl(Strategy strategy, int n_jobs) const {
  const auto start = Clock::now();
  const auto n = static_cast<std::size_t>(n_jobs);

  std::vector<std::size_t> cuts(n, 0);
  switch (strategy) {
    case Strategy::kLocalOnly:
      std::fill(cuts.begin(), cuts.end(), curve_.local_only_index());
      break;
    case Strategy::kCloudOnly:
      std::fill(cuts.begin(), cuts.end(), curve_.cloud_only_index());
      break;
    case Strategy::kPartitionOnly:
      std::fill(cuts.begin(), cuts.end(), single_job_optimal_cut());
      break;
    case Strategy::kJPS: {
      const std::size_t l_star = decision_.l_star;
      std::fill(cuts.begin(), cuts.end(), l_star);
      if (decision_.l_minus) {
        const double surplus = curve_.f(l_star) - curve_.g(l_star);
        const double deficit =
            curve_.g(*decision_.l_minus) - curve_.f(*decision_.l_minus);
        const int n_minus = jobs_at_l_minus(surplus, deficit, n_jobs);
        for (int i = 0; i < n_minus; ++i)
          cuts[static_cast<std::size_t>(i)] = *decision_.l_minus;
      }
      break;
    }
    case Strategy::kJPSTuned: {
      // The paper's pair (l*-1, l*) with the split swept exactly.
      if (!decision_.l_minus) {
        std::fill(cuts.begin(), cuts.end(), decision_.l_star);
        break;
      }
      ExecutionPlan p = best_split_plan(strategy, *decision_.l_minus,
                                        decision_.l_star, n_jobs);
      p.decision_overhead_ms = ms_since(start);
      return p;
    }
    case Strategy::kJPSHull: {
      // Mixing pair = the lower-hull-adjacent cuts bracketing f = g.
      const std::vector<std::size_t> hull = lower_hull_cuts();
      std::size_t pos = hull.size() - 1;  // first hull cut with f >= g
      for (std::size_t i = 0; i < hull.size(); ++i) {
        if (curve_.f(hull[i]) >= curve_.g(hull[i])) {
          pos = i;
          break;
        }
      }
      if (pos == 0) {
        std::fill(cuts.begin(), cuts.end(), hull.front());
        break;
      }
      ExecutionPlan p =
          best_split_plan(strategy, hull[pos - 1], hull[pos], n_jobs);
      p.decision_overhead_ms = ms_since(start);
      return p;
    }
    case Strategy::kBruteForce: {
      const std::vector<sched::CutOption> options = curve_.as_cut_options();
      sched::BruteForceResult result;
      try {
        result = sched::bruteforce_exact(options, n_jobs, options_.bf_exact_cap);
      } catch (const std::invalid_argument&) {
        result = sched::bruteforce_two_type(options, n_jobs);
      }
      for (std::size_t i = 0; i < n; ++i)
        cuts[i] = static_cast<std::size_t>(result.cuts[i]);
      break;
    }
    case Strategy::kRobust:
      throw std::invalid_argument(
          "Planner::plan: robust plans need a bandwidth interval; use "
          "core::RobustPlanner");
  }

  ExecutionPlan plan = finalize(strategy, cuts);
  plan.decision_overhead_ms = ms_since(start);
  return plan;
}

namespace {

/// One sweep point's decision: the two-type mix (a, b, n_a).
struct SweepDecision {
  std::size_t cut_a = 0;
  std::size_t cut_b = 0;
  int n_a = 0;
};

// The scalar planner's decision logic re-expressed over (f, g) lanes.  Each
// helper mirrors its ProfileCurve/Planner counterpart operation-for-
// operation so the sweep's choices match the per-point scalar path exactly
// (the plan_sweep differential suite pins this).

// binary_search_cut's loop: leftmost index with f >= g on a monotone curve.
std::size_t lane_l_star(std::span<const double> f, std::span<const double> g) {
  std::size_t lo = 0;
  std::size_t hi = f.size() - 1;
  while (lo < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (f[mid] < g[mid]) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

// Planner::single_job_optimal_cut: first argmin of f + g.
std::size_t lane_po_cut(std::span<const double> f, std::span<const double> g) {
  std::size_t best = 0;
  double best_latency = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < f.size(); ++i) {
    const double latency = f[i] + g[i];
    if (latency < best_latency) {
      best_latency = latency;
      best = i;
    }
  }
  return best;
}

// Planner::lower_hull_cuts: Andrew's monotone chain, lower hull only.
void lane_lower_hull(std::span<const double> f, std::span<const double> g,
                     std::vector<std::size_t>& hull) {
  const auto cross = [&](std::size_t o, std::size_t a, std::size_t b) {
    return (f[a] - f[o]) * (g[b] - g[o]) - (g[a] - g[o]) * (f[b] - f[o]);
  };
  hull.clear();
  for (std::size_t i = 0; i < f.size(); ++i) {
    while (hull.size() >= 2 &&
           cross(hull[hull.size() - 2], hull.back(), i) <= 0.0) {
      hull.pop_back();
    }
    hull.push_back(i);
  }
}

SweepDecision lane_decide(Strategy strategy, int n_jobs,
                          std::span<const double> f, std::span<const double> g,
                          std::vector<std::size_t>& hull_scratch) {
  SweepDecision d;
  switch (strategy) {
    case Strategy::kLocalOnly:
      d.cut_a = d.cut_b = f.size() - 1;
      break;
    case Strategy::kCloudOnly:
      d.cut_a = d.cut_b = 0;
      break;
    case Strategy::kPartitionOnly:
      d.cut_a = d.cut_b = lane_po_cut(f, g);
      break;
    case Strategy::kJPS: {
      const std::size_t l_star = lane_l_star(f, g);
      d.cut_a = d.cut_b = l_star;
      if (l_star > 0) {
        d.cut_a = l_star - 1;
        const double surplus = f[l_star] - g[l_star];
        const double deficit = g[l_star - 1] - f[l_star - 1];
        d.n_a = jobs_at_l_minus(surplus, deficit, n_jobs);
      }
      break;
    }
    case Strategy::kJPSTuned: {
      const std::size_t l_star = lane_l_star(f, g);
      d.cut_a = d.cut_b = l_star;
      if (l_star > 0) {
        d.cut_a = l_star - 1;
        d.n_a = best_two_type_split(f[d.cut_a], g[d.cut_a], f[d.cut_b],
                                    g[d.cut_b], n_jobs);
      }
      break;
    }
    case Strategy::kJPSHull: {
      lane_lower_hull(f, g, hull_scratch);
      std::size_t pos = hull_scratch.size() - 1;
      for (std::size_t i = 0; i < hull_scratch.size(); ++i) {
        if (f[hull_scratch[i]] >= g[hull_scratch[i]]) {
          pos = i;
          break;
        }
      }
      if (pos == 0) {
        d.cut_a = d.cut_b = hull_scratch.front();
        break;
      }
      d.cut_a = hull_scratch[pos - 1];
      d.cut_b = hull_scratch[pos];
      d.n_a = best_two_type_split(f[d.cut_a], g[d.cut_a], f[d.cut_b],
                                  g[d.cut_b], n_jobs);
      break;
    }
    case Strategy::kBruteForce:
    case Strategy::kRobust:
      throw std::invalid_argument(
          "Planner::plan_sweep: strategy is not O(cuts) per point; use "
          "plan() / RobustPlanner");
  }
  return d;
}

}  // namespace

PlanSweep Planner::plan_sweep(Strategy strategy, int n_jobs,
                              std::span<const double> bandwidths,
                              const net::Channel& channel) const {
  if (n_jobs < 1)
    throw std::invalid_argument("Planner::plan_sweep: n_jobs < 1");
  if (!servable(strategy))
    throw std::invalid_argument(
        "Planner::plan_sweep: strategy is not O(cuts) per point; use "
        "plan() / RobustPlanner");
  for (const double mbps : bandwidths) {
    if (!std::isfinite(mbps) || mbps <= 0.0)
      throw std::invalid_argument(
          "Planner::plan_sweep: bandwidth must be finite and > 0");
  }
  static obs::Counter& sweeps = obs::counter("planner.plan_sweeps");
  sweeps.add();
  static obs::Counter& points = obs::counter("planner.plan_sweep_points");
  points.add(bandwidths.size());
  obs::Span span("planner.plan_sweep", "core");
  span.arg("strategy", strategy_name(strategy));
  span.arg("n_jobs", std::to_string(n_jobs));
  span.arg("points", std::to_string(bandwidths.size()));
  span.arg("model", curve_.model_name());

  const std::span<const double> f = curve_.f_lane();
  const std::span<const std::uint64_t> bytes = curve_.offload_bytes_lane();
  const std::size_t cuts = curve_.size();

  PlanSweep sweep;
  sweep.strategy = strategy;
  sweep.n_jobs = n_jobs;
  sweep.bandwidth_mbps.assign(bandwidths.begin(), bandwidths.end());
  sweep.makespan_ms.resize(bandwidths.size());
  sweep.cut_a.resize(bandwidths.size());
  sweep.cut_b.resize(bandwidths.size());
  sweep.n_a.resize(bandwidths.size());

  std::vector<double> g(cuts);  // per-point comm lane, reused across points
  std::vector<std::size_t> hull_scratch;
  for (std::size_t p = 0; p < bandwidths.size(); ++p) {
    // Re-derive g at this rate exactly as ProfileCurve::with_bandwidth does
    // (same Channel::time_ms call on the same bytes), so every comparison
    // below sees the same doubles the scalar path would.
    const net::Channel at_rate = channel.with_bandwidth(bandwidths[p]);
    for (std::size_t i = 0; i < cuts; ++i)
      g[i] = bytes[i] > 0 ? at_rate.time_ms(bytes[i]) : 0.0;
    // Parity with the scalar path's constructor-time monotonicity check
    // (an affine rebase preserves monotonicity, but a custom-built curve
    // may not start monotone).
    for (std::size_t i = 1; i < cuts; ++i) {
      if (f[i] < f[i - 1] || g[i] > g[i - 1])
        throw std::invalid_argument(
            "Planner::plan_sweep: curve is not monotone at this bandwidth; "
            "cluster it first");
    }
    const SweepDecision d = lane_decide(strategy, n_jobs, f, g, hull_scratch);
    sweep.cut_a[p] = d.cut_a;
    sweep.cut_b[p] = d.cut_b;
    sweep.n_a[p] = d.n_a;
    // The Johnson order of any such mix is "all a-jobs before all b-jobs"
    // (see best_split_plan), so the exact recurrence over the two runs
    // reproduces finalize()'s flowshop2_makespan bit-for-bit.
    sweep.makespan_ms[p] = sched::two_type_flowshop2_makespan(
        f[d.cut_a], g[d.cut_a], d.n_a, f[d.cut_b], g[d.cut_b],
        n_jobs - d.n_a);
  }
  return sweep;
}

ExecutionPlan Planner::materialize(const PlanSweep& sweep, std::size_t k,
                                   const net::Channel& channel) const {
  if (k >= sweep.size())
    throw std::out_of_range("Planner::materialize: point out of range");
  const partition::ProfileCurve rebased =
      curve_.with_bandwidth(channel, sweep.bandwidth_mbps[k]);
  std::vector<std::size_t> cuts(static_cast<std::size_t>(sweep.n_jobs),
                                sweep.cut_b[k]);
  for (int i = 0; i < sweep.n_a[k]; ++i)
    cuts[static_cast<std::size_t>(i)] = sweep.cut_a[k];
  ExecutionPlan plan = assemble_plan(rebased, sweep.strategy, cuts);
  JPS_ENSURE(plan.predicted_makespan == sweep.makespan_ms[k],
             "materialized plan must reproduce the sweep makespan "
             "bit-for-bit");
  return plan;
}

}  // namespace jps::core
