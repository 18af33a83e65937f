// The joint partition + scheduling planner (the paper's primary
// contribution) and the comparison strategies of §6.2.
//
// A Planner is bound to one ProfileCurve — i.e. one model on one device pair
// over one channel.  plan(strategy, n) partitions n identical jobs and
// orders them with Johnson's rule (Alg. 1):
//
//   LO   — every job at the local-only cut.
//   CO   — every job at the cloud-only cut.
//   PO   — the state-of-the-art single-DNN partition [Hu et al. 2019 /
//          Neurosurgeon]: the cut minimizing a single job's latency
//          f(l) + g(l), applied homogeneously; no pipeline-aware mixing.
//   JPS  — Alg. 2's binary search for (l*-1, l*) and the Theorem 5.3 floor
//          ratio between the two cut types.
//   JPS* — same two cut types, but the split is swept exactly (the Fig. 14
//          tuning knob); never worse than JPS.
//   JPS+ — our extension: the mixing pair is chosen adjacent on the LOWER
//          CONVEX HULL of the curve's (f, g) points rather than adjacent in
//          index.  Theorem 5.2's continuous argument optimizes
//          max(avg f, avg g) over mixtures, whose optimum mixes the two
//          hull vertices bracketing the f = g balance; when f is linear and
//          g convex (the paper's §3.2 shapes) every cut lies on the hull
//          and JPS+ == JPS*.  On coarse real curves (few clustered cuts),
//          index-adjacent pairs can be strictly dominated — e.g. a
//          CO + LO endpoint mix — and JPS+ recovers the BF optimum.
//   BF   — brute force: exact multiset enumeration when tractable,
//          otherwise all two-cut-type assignments (see sched/bruteforce.h).
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "core/plan.h"
#include "net/channel.h"
#include "partition/binary_search.h"
#include "partition/profile_curve.h"

namespace jps::core {

/// Planner tuning knobs.
struct PlannerOptions {
  /// BF switches from exact multiset enumeration to the two-type search
  /// above this many assignments.
  std::uint64_t bf_exact_cap = 2'000'000;
};

/// Makespan of the two-cut-type schedule "n_a jobs at (f_a, g_a) then n_b
/// jobs at (f_b, g_b)" in O(1), via the permutation-flow-shop identity
///   makespan = max_i ( sum_{k<=i} f_k + sum_{k>=i} g_k ),
/// whose inner maximum over each homogeneous run is attained at a run
/// endpoint.  This is exactly flowshop2_makespan of that job sequence
/// (up to floating-point association).
///
/// PRECONDITION: the endpoint reduction is exact ONLY for this two-type
/// comm-heavy-before-comp-heavy shape (within a homogeneous run the
/// critical-path term is linear in i, so interior positions never dominate
/// their run's endpoints).  For an arbitrary job order interior terms can
/// dominate — evaluate sched::closed_form_makespan (the full identity)
/// instead.  The planner only calls this from best_two_type_split, whose
/// pair on a monotone curve guarantees the shape; the differential tests in
/// tests/core/planner_test.cpp cross-check the resulting plans against the
/// discrete-event simulator.
///
/// An empty run is ignored entirely: its (f, g) pair is never read, so a
/// degenerate cut (e.g. an infinite g from a zero-bandwidth probe) offered
/// as the UNUSED type cannot contaminate the result, and the partial
/// maximum can never escape as -inf.  Non-positive counts are empty runs;
/// both empty returns 0.
[[nodiscard]] double two_type_makespan(double f_a, double g_a, double f_b,
                                       double g_b, int n_a, int n_b);

/// Batched two_type_makespan over per-sample g lanes: out[s] is exactly
/// two_type_makespan(f_a, g_a[s], f_b, g_b[s], n_a, n_b) (one formula).
/// RobustPlanner's inner kernel: one candidate scored over the whole grid.
/// Throws std::invalid_argument when the spans disagree in length.
void two_type_makespan_batch(double f_a, std::span<const double> g_a,
                             double f_b, std::span<const double> g_b, int n_a,
                             int n_b, std::span<double> out);

/// The split n_a (jobs at cut a; the remaining n - n_a sit at cut b)
/// minimizing two_type_makespan, with the smallest minimizing n_a winning
/// ties.  O(n).  Requires cut a to precede cut b on a monotone curve
/// (f_a <= f_b, g_a >= g_b), which pins the Johnson order to "all a-jobs
/// before all b-jobs" for every split.
[[nodiscard]] int best_two_type_split(double f_a, double g_a, double f_b,
                                      double g_b, int n_jobs);

/// Assemble, Johnson-order and evaluate a plan from per-job cut indices
/// into `curve` (job i at cuts[i]), equal field for field to johnson_order +
/// apply_order + flowshop2_makespan, in O(n + k log k) for k distinct cuts.
/// Used by Planner::plan, materialize and RobustPlanner.
[[nodiscard]] ExecutionPlan assemble_plan(const partition::ProfileCurve& curve,
                                          Strategy strategy,
                                          const std::vector<std::size_t>& cuts);

/// The decision kernel, the one implementation of the LO/CO/PO/JPS/JPS*/
/// JPS+ rules: the PlanDecision (canonical form) for n_jobs jobs on one
/// curve's (f, g) lanes, with the makespan of the Johnson order "all cut_a
/// jobs, then all cut_b jobs".  Planner::plan, Planner::plan_sweep and
/// jps_serve's misses all call it.  O(cuts + n_jobs) time, O(cuts) memory.
/// Preconditions: f and g non-empty, equally long and monotone (as a
/// clustered curve's lanes are).  Throws std::invalid_argument for
/// n_jobs < 1, BF or ROB.
[[nodiscard]] PlanDecision decide(Strategy strategy, int n_jobs,
                                  std::span<const double> f,
                                  std::span<const double> g);

/// decide() as one planning call, with Planner::plan's telemetry and
/// contract: the `planner.plans` counter, a `planner.plan` span (strategy,
/// n_jobs, model, makespan_ms) and a finite, non-negative makespan.
[[nodiscard]] PlanDecision decide_traced(Strategy strategy, int n_jobs,
                                         std::span<const double> f,
                                         std::span<const double> g,
                                         const std::string& model);

/// Structure-of-arrays result of Planner::plan_sweep: lane entry k is
/// decide()'s PlanDecision at bandwidth_mbps[k] (the first n_a jobs at
/// cut_a, the rest at cut_b).  makespan_ms[k] is bit-identical to
/// Planner(curve.with_bandwidth(channel, b_k)).plan(strategy, n_jobs)
/// .predicted_makespan; Planner::materialize expands a lane into that plan.
struct PlanSweep {
  Strategy strategy = Strategy::kJPS;
  int n_jobs = 0;
  std::vector<double> bandwidth_mbps;
  std::vector<double> makespan_ms;
  std::vector<std::size_t> cut_a;
  std::vector<std::size_t> cut_b;
  std::vector<int> n_a;

  [[nodiscard]] std::size_t size() const { return bandwidth_mbps.size(); }
};

class Planner {
 public:
  /// The curve must be monotone (built with clustering on).
  explicit Planner(partition::ProfileCurve curve, PlannerOptions options = {});

  /// Plan `n_jobs` identical jobs with the given strategy: decide() on the
  /// curve's lanes, then assemble_plan (BF enumerates instead).
  /// Throws std::invalid_argument for n_jobs < 1 or kRobust.
  [[nodiscard]] ExecutionPlan plan(Strategy strategy, int n_jobs) const;

  /// Batched bandwidth sweep: decide() for `n_jobs` at every rate in
  /// `bandwidths`, without building a rebased ProfileCurve, a Planner, or
  /// an ExecutionPlan per point.  `channel` supplies the affine comm model
  /// (setup latency, jitter) that is re-based to each rate, exactly as
  /// ProfileCurve::with_bandwidth does, so lane k reproduces
  ///   Planner(curve().with_bandwidth(channel, bandwidths[k]))
  ///       .plan(strategy, n_jobs)
  /// bit-for-bit in cuts, order and makespan (the differential suite in
  /// tests/core/plan_sweep_test.cpp pins this).  The fig13/fig14 hot path:
  /// the f and offload-bytes lanes are hoisted once, and each point costs
  /// one O(cuts + n_jobs) lane scan.
  ///
  /// Throws std::invalid_argument for n_jobs < 1, BF or ROB (not O(cuts)
  /// per point; call plan()/RobustPlanner instead), or a non-finite or
  /// non-positive bandwidth.
  [[nodiscard]] PlanSweep plan_sweep(Strategy strategy, int n_jobs,
                                     std::span<const double> bandwidths,
                                     const net::Channel& channel) const;

  /// Expand lane `k` of a sweep into the full ExecutionPlan the scalar path
  /// would have produced at that bandwidth (same cuts, same Johnson order,
  /// bit-identical makespan).  Costs one curve rebase + assemble_plan; use
  /// it for the points you actually execute, not for the whole sweep.
  [[nodiscard]] ExecutionPlan materialize(const PlanSweep& sweep,
                                          std::size_t k,
                                          const net::Channel& channel) const;

  /// The Alg. 2 decision for this curve (exposed for benches/tests).
  [[nodiscard]] const partition::CutDecision& decision() const {
    return decision_;
  }

  [[nodiscard]] const partition::ProfileCurve& curve() const { return curve_; }

  /// The PO cut: argmin over cuts of single-job latency f + g.
  [[nodiscard]] std::size_t single_job_optimal_cut() const;

  /// Indices of the cuts on the lower convex hull of the (f, g) point set,
  /// in ascending f order (always includes the first and last cut).
  [[nodiscard]] std::vector<std::size_t> lower_hull_cuts() const;

 private:
  partition::ProfileCurve curve_;
  PlannerOptions options_;
  partition::CutDecision decision_;
};

}  // namespace jps::core
