#include "core/planner.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "check/contracts.h"
#include "obs/obs.h"
#include "sched/bruteforce.h"
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

// PO's cut: the first argmin of single-job latency f + g.
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

// Andrew's monotone chain, lower hull only.  Cuts are sorted by ascending
// f; ties in f keep the later (smaller-g) point via <= pops.
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

// two_type_makespan's formula, dispatched once on the run counts: `use`
// gets (and returns the result of) this shape's (g_a, g_b) -> makespan, so
// the batch loop tests no count.  makespan = max_i (F_i + G_i) with F_i the
// f-prefix through job i and G_i the g-suffix from job i; within a
// homogeneous run the term is linear in i, so only run endpoints can
// attain it.  An empty run is never read (see the header).
template <class Use>
auto with_two_type_formula(double f_a, double f_b, int n_a, int n_b,
                           Use&& use) {
  const double a = n_a, b = n_b, af = a * f_a, bf = b * f_b;
  if (n_a <= 0 && n_b <= 0) return use([](double, double) { return 0.0; });
  if (n_b <= 0)  // pure a-run: endpoints i = 1 and i = n_a
    return use([=](double g, double) { return std::max(f_a + a * g, af + g); });
  if (n_a <= 0)  // pure b-run: endpoints i = 1 and i = n_b
    return use([=](double, double g) { return std::max(f_b + b * g, bf + g); });
  return use([=](double g_a, double g_b) {  // i = 1, n_a, n_a + 1, n
    const double bg = b * g_b;
    return std::max(
        {f_a + a * g_a + bg, af + g_a + bg, af + f_b + bg, af + bf + g_b});
  });
}

// The one emitter of planner telemetry: `plan` runs under the planner.plan
// span, counted once in planner.plans, and returns its makespan.
template <class PlanFn>
void traced_plan(Strategy strategy, int n_jobs, const std::string& model,
                 PlanFn&& plan) {
  static obs::Counter& plans = obs::counter("planner.plans");
  plans.add();
  obs::Span span("planner.plan", "core");
  span.arg("strategy", strategy_name(strategy));
  span.arg("n_jobs", std::to_string(n_jobs));
  span.arg("model", model);
  const double makespan = plan();
  span.arg("makespan_ms", makespan);
  JPS_ENSURE(std::isfinite(makespan) && makespan >= 0.0,
             "predicted makespan must be finite and non-negative");
}

// decide() without the makespan, which Planner::plan does not need:
// assemble_plan evaluates its full job list anyway.
PlanDecision decide_cuts(Strategy strategy, int n_jobs,
                         std::span<const double> f, std::span<const double> g) {
  if (n_jobs < 1) throw std::invalid_argument("core::decide: n_jobs < 1");
  JPS_REQUIRE(!f.empty() && f.size() == g.size(),
              "a decision needs non-empty f and g lanes of equal length");
  std::size_t a = 0;
  std::size_t b = 0;
  int n_a = 0;
  switch (strategy) {
    case Strategy::kLocalOnly:
      a = b = f.size() - 1;
      break;
    case Strategy::kCloudOnly:  // a = b = 0
      break;
    case Strategy::kPartitionOnly:
      a = b = lane_po_cut(f, g);
      break;
    case Strategy::kJPS:
    case Strategy::kJPSTuned: {
      // Alg. 2's pair (l*-1, l*): JPS splits it by the Theorem 5.3 balance,
      // JPS* sweeps the split exactly.
      a = b = partition::l_star_index(f, g);
      if (b == 0) break;
      a = b - 1;
      n_a = strategy == Strategy::kJPS
                ? jobs_at_l_minus(f[b] - g[b], g[a] - f[a], n_jobs)
                : best_two_type_split(f[a], g[a], f[b], g[b], n_jobs);
      break;
    }
    case Strategy::kJPSHull: {
      // Mixing pair = the lower-hull-adjacent cuts bracketing f = g.  The
      // buffer is reused across calls (plan_sweep makes one per point).
      thread_local std::vector<std::size_t> hull;
      lane_lower_hull(f, g, hull);
      // The first hull cut with f >= g (the last hull cut if none).
      const auto balanced = std::find_if(
          hull.begin(), hull.end() - 1,
          [&](std::size_t i) { return f[i] >= g[i]; });
      const auto pos = static_cast<std::size_t>(balanced - hull.begin());
      a = b = hull[pos];
      if (pos == 0) break;
      a = hull[pos - 1];
      n_a = best_two_type_split(f[a], g[a], f[b], g[b], n_jobs);
      break;
    }
    case Strategy::kBruteForce:
    case Strategy::kRobust:
      throw std::invalid_argument(
          "core::decide: strategy is not O(cuts); BF needs Planner::plan, "
          "robust plans a bandwidth interval (core::RobustPlanner)");
  }
  // Canonical form: a mix with an empty side is the pure plan of the other.
  if (n_a == 0) a = b;
  if (n_a == n_jobs) {
    b = a;
    n_a = 0;
  }
  return PlanDecision{.cut_a = static_cast<std::uint32_t>(a),
                      .cut_b = static_cast<std::uint32_t>(b),
                      .n_a = static_cast<std::uint32_t>(n_a)};
}

}  // namespace

PlanDecision decide(Strategy strategy, int n_jobs, std::span<const double> f,
                    std::span<const double> g) {
  PlanDecision d = decide_cuts(strategy, n_jobs, f, g);
  // On a monotone curve cut a's jobs are comm-heavy and cut b's are not, so
  // the Johnson order is "all a-jobs, then all b-jobs" and the exact
  // recurrence over the two runs reproduces assemble_plan's
  // flowshop2_makespan bit for bit.
  const int n_a = static_cast<int>(d.n_a);
  d.predicted_makespan = sched::two_type_flowshop2_makespan(
      f[d.cut_a], g[d.cut_a], n_a, f[d.cut_b], g[d.cut_b], n_jobs - n_a);
  return d;
}

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
  // Jobs of one cut are identical, so Johnson's rule (Alg. 1) orders the k
  // distinct cuts once, not the n jobs: comm-heavy cuts (f < g) by ascending
  // f, then the rest by descending g.  Cuts tied on that key share one run
  // whose jobs keep ascending ids (johnson_order's index tie-break): the
  // stretches of equal consecutive cuts are counting-sorted by run, stable
  // in job order, then copied out.
  struct Stretch { std::size_t cut, first, count; };
  std::vector<Stretch> stretches, by_run;
  // Per-cut buffers, bounded by the curve size, are reused across calls.
  thread_local std::vector<std::size_t> run_of, types, run_next;
  const std::span<const double> f = curve.f_lane();
  const std::span<const double> g = curve.g_lane();
  const auto key = [&](std::size_t c) {
    return f[c] < g[c] ? std::pair(0, f[c]) : std::pair(1, -g[c]);
  };
  constexpr auto kUnused = static_cast<std::size_t>(-1);
  types.clear();
  run_of.assign(curve.size(), kUnused);
  for (std::size_t first = 0, last = 0; first < cuts.size(); first = last) {
    while (last < cuts.size() && cuts[last] == cuts[first]) ++last;
    stretches.push_back({cuts[first], first, last - first});
    if (std::exchange(run_of.at(cuts[first]), 0) == kUnused)
      types.push_back(cuts[first]);
    if (f[cuts[first]] < 0.0 || g[cuts[first]] < 0.0)
      throw std::invalid_argument("assemble_plan: negative stage length");
  }
  std::sort(types.begin(), types.end(),
            [&](std::size_t a, std::size_t b) { return key(a) < key(b); });
  run_next.assign(types.size() + 1, 0);
  for (std::size_t t = 1; t < types.size(); ++t)
    run_of[types[t]] =
        run_of[types[t - 1]] + (key(types[t]) != key(types[t - 1]));
  for (const Stretch& s : stretches) ++run_next[run_of[s.cut] + 1];
  std::partial_sum(run_next.begin(), run_next.end(), run_next.begin());
  by_run.resize(stretches.size());
  for (const Stretch& s : stretches) by_run[run_next[run_of[s.cut]]++] = s;

  ExecutionPlan plan;
  plan.model = curve.model_name();
  plan.strategy = strategy;
  plan.jobs.reserve(cuts.size());
  plan.scheduled_jobs.reserve(cuts.size());
  plan.f_lane.reserve(cuts.size());
  plan.g_lane.reserve(cuts.size());
  for (const auto& [cut, first, count] : by_run) {
    if (f[cut] < g[cut]) plan.comm_heavy_count += count;
    plan.f_lane.insert(plan.f_lane.end(), count, f[cut]);
    plan.g_lane.insert(plan.g_lane.end(), count, g[cut]);
    for (std::size_t id = first; id < first + count; ++id) {
      plan.jobs.push_back({static_cast<int>(id), cut});
      plan.scheduled_jobs.push_back(sched::Job{
          .id = static_cast<int>(id), .cut = static_cast<int>(cut),
          .f = f[cut], .g = g[cut]});
    }
  }
  plan.predicted_makespan =
      sched::flowshop2_makespan(plan.f_lane, plan.g_lane);
  return plan;
}

PlanDecision PlanDecision::of(const ExecutionPlan& plan) {
  PlanDecision d;
  d.predicted_makespan = plan.predicted_makespan;
  if (plan.jobs.empty()) return d;
  const auto cut_is = [](std::size_t cut) {
    return [cut](const JobAssignment& job) { return job.cut_index == cut; };
  };
  const std::size_t first = plan.jobs.front().cut_index;
  const auto split =
      std::find_if_not(plan.jobs.begin(), plan.jobs.end(), cut_is(first));
  const std::size_t second = split == plan.jobs.end() ? first
                                                      : split->cut_index;
  JPS_ENSURE(std::all_of(split, plan.jobs.end(), cut_is(second)),
             "a served plan has at most two cut types, cut_a's jobs first "
             "(Thm 5.3)");
  d.cut_a = static_cast<std::uint32_t>(first);
  d.cut_b = static_cast<std::uint32_t>(second);
  d.n_a = first == second
              ? 0
              : static_cast<std::uint32_t>(split - plan.jobs.begin());
  return d;
}

std::vector<CutMix> PlanDecision::mix(int n_jobs) const {
  JPS_REQUIRE(n_jobs >= 0 && n_a <= static_cast<std::uint32_t>(n_jobs),
              "a decision's n_a cannot exceed its key's n_jobs");
  const auto n = static_cast<std::uint32_t>(n_jobs);
  if (cut_a == cut_b || n_a == n) return {{cut_a, n}};
  if (n_a == 0) return {{cut_b, n}};
  if (cut_a < cut_b) return {{cut_a, n_a}, {cut_b, n - n_a}};
  return {{cut_b, n - n_a}, {cut_a, n_a}};
}

PlanDecision decide_traced(Strategy strategy, int n_jobs,
                           std::span<const double> f,
                           std::span<const double> g,
                           const std::string& model) {
  PlanDecision decision;
  traced_plan(strategy, n_jobs, model, [&] {
    decision = decide(strategy, n_jobs, f, g);
    return decision.predicted_makespan;
  });
  return decision;
}

Planner::Planner(partition::ProfileCurve curve, PlannerOptions options)
    : curve_(std::move(curve)), options_(options) {
  JPS_REQUIRE(curve_.size() >= 1, "a plannable curve has at least one cut");
  decision_ = partition::binary_search_cut(curve_);
}

std::size_t Planner::single_job_optimal_cut() const {
  return lane_po_cut(curve_.f_lane(), curve_.g_lane());
}

std::vector<std::size_t> Planner::lower_hull_cuts() const {
  std::vector<std::size_t> hull;
  lane_lower_hull(curve_.f_lane(), curve_.g_lane(), hull);
  return hull;
}

double two_type_makespan(double f_a, double g_a, double f_b, double g_b,
                         int n_a, int n_b) {
  return with_two_type_formula(
      f_a, f_b, n_a, n_b, [&](auto formula) { return formula(g_a, g_b); });
}

void two_type_makespan_batch(double f_a, std::span<const double> g_a,
                             double f_b, std::span<const double> g_b, int n_a,
                             int n_b, std::span<double> out) {
  if (g_a.size() != g_b.size() || out.size() != g_a.size())
    throw std::invalid_argument("two_type_makespan_batch: span size mismatch");
  with_two_type_formula(f_a, f_b, n_a, n_b, [&](auto formula) {
    for (std::size_t s = 0; s < out.size(); ++s)
      out[s] = formula(g_a[s], g_b[s]);
  });
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

ExecutionPlan Planner::plan(Strategy strategy, int n_jobs) const {
  if (n_jobs < 1) throw std::invalid_argument("Planner::plan: n_jobs < 1");
  ExecutionPlan plan;
  traced_plan(strategy, n_jobs, curve_.model_name(), [&] {
    const auto start = Clock::now();
    std::vector<std::size_t> cuts;
    if (strategy != Strategy::kBruteForce) {  // decide() refuses kRobust
      const PlanDecision d =
          decide_cuts(strategy, n_jobs, curve_.f_lane(), curve_.g_lane());
      cuts.assign(static_cast<std::size_t>(n_jobs), d.cut_b);
      std::fill_n(cuts.begin(), d.n_a, d.cut_a);
    } else {
      const std::vector<sched::CutOption> options = curve_.as_cut_options();
      sched::BruteForceResult result;
      try {
        result = sched::bruteforce_exact(options, n_jobs, options_.bf_exact_cap);
      } catch (const std::invalid_argument&) {
        result = sched::bruteforce_two_type(options, n_jobs);
      }
      cuts.assign(result.cuts.begin(), result.cuts.end());
    }
    plan = assemble_plan(curve_, strategy, cuts);
    plan.decision_overhead_ms = ms_since(start);
    return plan.predicted_makespan;
  });
  JPS_ENSURE(plan.jobs.size() == static_cast<std::size_t>(n_jobs),
             "every requested job must be scheduled");
  return plan;
}

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
    const PlanDecision d = decide(strategy, n_jobs, f, g);
    sweep.cut_a[p] = d.cut_a;
    sweep.cut_b[p] = d.cut_b;
    sweep.n_a[p] = static_cast<int>(d.n_a);
    sweep.makespan_ms[p] = d.predicted_makespan;
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
  std::fill_n(cuts.begin(), sweep.n_a[k], sweep.cut_a[k]);
  ExecutionPlan plan = assemble_plan(rebased, sweep.strategy, cuts);
  JPS_ENSURE(plan.predicted_makespan == sweep.makespan_ms[k],
             "materialized plan must reproduce the sweep makespan "
             "bit-for-bit");
  return plan;
}

}  // namespace jps::core
