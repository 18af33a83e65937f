#include "core/hetero.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <stdexcept>

#include "core/planner.h"
#include "sched/johnson.h"
#include "sched/makespan.h"
#include "util/thread_pool.h"

namespace jps::core {

namespace {

// Per-class cut indices -> ordered plan with makespan.
HeteroPlan evaluate(std::span<const JobClass> classes,
                    const std::vector<std::vector<std::size_t>>& cuts) {
  sched::JobList jobs;
  std::vector<HeteroUnit> units;
  for (std::size_t c = 0; c < classes.size(); ++c) {
    for (std::size_t j = 0; j < cuts[c].size(); ++j) {
      HeteroUnit unit;
      unit.class_index = static_cast<int>(c);
      unit.job_id = static_cast<int>(j);
      unit.cut_index = cuts[c][j];
      unit.f = classes[c].curve.f(unit.cut_index);
      unit.g = classes[c].curve.g(unit.cut_index);
      jobs.push_back(sched::Job{.id = static_cast<int>(units.size()),
                                .cut = static_cast<int>(unit.cut_index),
                                .f = unit.f,
                                .g = unit.g});
      units.push_back(unit);
    }
  }
  const sched::JohnsonSchedule schedule = sched::johnson_order(jobs);

  HeteroPlan plan;
  plan.comm_heavy_count = schedule.comm_heavy_count;
  plan.scheduled.reserve(units.size());
  for (const std::size_t idx : schedule.order)
    plan.scheduled.push_back(units[idx]);
  plan.makespan =
      sched::flowshop2_makespan(sched::apply_order(jobs, schedule.order));
  return plan;
}

// The cut of `curve` minimizing lambda*f + (1-lambda)*g (lowest index wins
// ties, which keeps the choice deterministic).
std::size_t argmin_cut(const partition::ProfileCurve& curve, double lambda) {
  std::size_t best = 0;
  double best_cost = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < curve.size(); ++i) {
    const double cost = lambda * curve.f(i) + (1.0 - lambda) * curve.g(i);
    if (cost < best_cost) {
      best_cost = cost;
      best = i;
    }
  }
  return best;
}

// Total f minus total g when every job of class c sits at assignment[c].
double imbalance(std::span<const JobClass> classes,
                 const std::vector<std::size_t>& assignment) {
  double d = 0.0;
  for (std::size_t c = 0; c < classes.size(); ++c) {
    const auto n = static_cast<double>(classes[c].count);
    d += n * (classes[c].curve.f(assignment[c]) -
              classes[c].curve.g(assignment[c]));
  }
  return d;
}

std::vector<std::size_t> per_class_cuts_at(std::span<const JobClass> classes,
                                           double lambda) {
  std::vector<std::size_t> cuts;
  cuts.reserve(classes.size());
  for (const JobClass& jc : classes) cuts.push_back(argmin_cut(jc.curve, lambda));
  return cuts;
}

HeteroPlan balanced_plan(std::span<const JobClass> classes) {
  // Bisect lambda: small lambda prices communication, pushing every class
  // local (sum f >> sum g); lambda -> 1 prices compute, pushing cloud-only.
  double lo = 0.0;
  double hi = 1.0;
  for (int iter = 0; iter < 64; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (imbalance(classes, per_class_cuts_at(classes, mid)) > 0.0) {
      lo = mid;  // still compute-heavy: price compute harder
    } else {
      hi = mid;
    }
  }
  const std::vector<std::size_t> cuts_lo = per_class_cuts_at(classes, lo);
  const std::vector<std::size_t> cuts_hi = per_class_cuts_at(classes, hi);

  // Expand to per-job assignments at the compute-heavy side of the fence.
  std::vector<std::vector<std::size_t>> assignment(classes.size());
  for (std::size_t c = 0; c < classes.size(); ++c)
    assignment[c].assign(static_cast<std::size_t>(classes[c].count),
                         cuts_lo[c]);

  HeteroPlan best = evaluate(classes, assignment);
  // Walk jobs across the fence one at a time (classes where the two lambda
  // endpoints disagree), keeping the best exact makespan seen.  Each move
  // trades total compute for total communication, so the sweep crosses the
  // balance point; the exact evaluation also captures the boundary terms.
  // Each class's walk starts from the all-lo assignment and is independent
  // of the others, so the walks run concurrently on the shared pool (each
  // on its own assignment copy) and merge in class order afterwards —
  // bit-identical to the sequential sweep.
  std::vector<std::optional<HeteroPlan>> walk_best(classes.size());
  util::parallel_for(classes.size(), [&](std::size_t c) {
    if (cuts_lo[c] == cuts_hi[c]) return;
    std::vector<std::vector<std::size_t>> local = assignment;
    std::optional<HeteroPlan> class_best;
    for (int moved = 0; moved < classes[c].count; ++moved) {
      local[c][static_cast<std::size_t>(moved)] = cuts_hi[c];
      HeteroPlan candidate = evaluate(classes, local);
      if (!class_best || candidate.makespan < class_best->makespan)
        class_best = std::move(candidate);
    }
    walk_best[c] = std::move(class_best);
  });
  for (std::optional<HeteroPlan>& candidate : walk_best) {
    if (candidate && candidate->makespan < best.makespan)
      best = std::move(*candidate);
  }
  // Combined greedy pass: move in whichever class best reduces |imbalance|
  // until no move helps the exact makespan.
  bool improved = true;
  while (improved) {
    improved = false;
    for (std::size_t c = 0; c < classes.size(); ++c) {
      if (cuts_lo[c] == cuts_hi[c]) continue;
      // Count jobs currently at the hi cut; try one more.
      auto& jobs = assignment[c];
      const auto at_hi = static_cast<int>(
          std::count(jobs.begin(), jobs.end(), cuts_hi[c]));
      if (at_hi >= classes[c].count) continue;
      jobs[static_cast<std::size_t>(at_hi)] = cuts_hi[c];
      HeteroPlan candidate = evaluate(classes, assignment);
      if (candidate.makespan < best.makespan - 1e-12) {
        best = std::move(candidate);
        improved = true;
      } else {
        jobs[static_cast<std::size_t>(at_hi)] = cuts_lo[c];  // undo
      }
    }
  }
  best.lambda = 0.5 * (lo + hi);
  return best;
}

}  // namespace

HeteroPlan plan_hetero(std::span<const JobClass> classes, Strategy strategy) {
  if (classes.empty())
    throw std::invalid_argument("plan_hetero: no job classes");
  for (const JobClass& jc : classes) {
    if (jc.count < 1)
      throw std::invalid_argument("plan_hetero: class count < 1");
    if (jc.curve.size() == 0)
      throw std::invalid_argument("plan_hetero: empty curve");
  }

  switch (strategy) {
    case Strategy::kLocalOnly:
    case Strategy::kCloudOnly:
    case Strategy::kPartitionOnly: {
      std::vector<std::vector<std::size_t>> cuts(classes.size());
      for (std::size_t c = 0; c < classes.size(); ++c) {
        // A pure strategy: one job's cut is every job's cut.
        const std::size_t cut = decide(strategy, 1, classes[c].curve.f_lane(),
                                       classes[c].curve.g_lane())
                                    .cut_a;
        cuts[c].assign(static_cast<std::size_t>(classes[c].count), cut);
      }
      return evaluate(classes, cuts);
    }
    case Strategy::kJPS:
    case Strategy::kJPSTuned:
    case Strategy::kJPSHull:
      return balanced_plan(classes);
    case Strategy::kBruteForce:
      throw std::invalid_argument(
          "plan_hetero: no built-in brute force; enumerate externally");
    case Strategy::kRobust:
      throw std::invalid_argument(
          "plan_hetero: robust planning is per-class; use core::RobustPlanner");
  }
  throw std::invalid_argument("plan_hetero: unknown strategy");
}

}  // namespace jps::core
