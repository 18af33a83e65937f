// Execution plans: the output of every planning strategy.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "partition/profile_curve.h"
#include "sched/job.h"
#include "sched/makespan.h"

namespace jps::core {

/// The strategies the paper compares (§6.2) plus this repo's extensions.
enum class Strategy {
  kLocalOnly,    // LO: everything on the mobile device
  kCloudOnly,    // CO: upload raw inputs, everything on the cloud
  kPartitionOnly,// PO: single-job optimal cut, same for all jobs, no pipeline-aware mixing
  kJPS,          // the paper's joint partition + scheduling (Alg. 2 ratio)
  kJPSTuned,     // JPS with the split between the two cut types swept exactly
  kJPSHull,      // extension: pick the pair adjacent on the lower convex
                 // hull of the (f, g) points instead of index-adjacent; on
                 // fine convex curves (the paper's assumption) the two
                 // coincide, on coarse curves the hull pair is optimal
  kBruteForce,   // exact or two-type brute force (§6.2's BF)
  kRobust,       // extension: uncertainty-aware mix minimizing worst-case /
                 // CVaR makespan over a bandwidth interval (core/robust.h);
                 // produced by RobustPlanner, not Planner::plan
};

/// Display name ("LO", "CO", "PO", "JPS", "JPS*", "JPS+", "BF", "ROB").
[[nodiscard]] const char* strategy_name(Strategy s);

/// LO, CO, PO, JPS, JPS* and JPS+: the strategies whose decision is an
/// O(cuts) two-cut-type mix (Planner::plan_sweep, jps_serve).  BF and ROB
/// are not.
[[nodiscard]] inline bool servable(Strategy s) {
  return s != Strategy::kBruteForce && s != Strategy::kRobust;
}

/// One job's slice of a plan.
struct JobAssignment {
  int job_id = 0;
  /// Cut index into the plan's curve.
  std::size_t cut_index = 0;

  friend bool operator==(const JobAssignment&, const JobAssignment&) = default;
};

/// One (cut index, job count) entry of a plan's cut mix.
struct CutMix {
  std::uint32_t cut = 0;
  std::uint32_t count = 0;

  friend bool operator==(const CutMix&, const CutMix&) = default;
};

/// A complete partition + schedule for n identical jobs.
struct ExecutionPlan {
  std::string model;
  Strategy strategy = Strategy::kJPS;
  /// Jobs in scheduled (processing) order.
  std::vector<JobAssignment> jobs;
  /// Stage lengths of each scheduled job (same order as `jobs`).
  sched::JobList scheduled_jobs;
  /// SoA mirrors of scheduled_jobs[i].f / .g: the contiguous lanes the
  /// branch-light makespan kernels iterate (sched::flowshop2_makespan /
  /// closed_form_makespan span overloads).  Kept in sync by refresh_lanes();
  /// assemble_plan and the plan parser maintain them, so they are valid on
  /// every plan those paths produce.
  std::vector<double> f_lane;
  std::vector<double> g_lane;
  /// Number of leading communication-heavy jobs in the order (Johnson S1).
  std::size_t comm_heavy_count = 0;
  /// Makespan of the plan under the 2-stage flow-shop recurrence, ms.
  double predicted_makespan = 0.0;
  /// Wall-clock time the planner itself took (Fig. 12(d) overhead), ms.
  double decision_overhead_ms = 0.0;

  /// Rebuild f_lane/g_lane from scheduled_jobs (call after mutating it).
  void refresh_lanes() {
    f_lane.resize(scheduled_jobs.size());
    g_lane.resize(scheduled_jobs.size());
    for (std::size_t i = 0; i < scheduled_jobs.size(); ++i) {
      f_lane[i] = scheduled_jobs[i].f;
      g_lane[i] = scheduled_jobs[i].g;
    }
  }

  /// Per-job stage timelines (computed from scheduled_jobs on demand).
  [[nodiscard]] std::vector<sched::JobTimeline> timeline() const {
    return sched::flowshop2_timeline(scheduled_jobs);
  }

  /// Average completion per job, ms.
  [[nodiscard]] double makespan_per_job() const {
    return jobs.empty() ? 0.0
                        : predicted_makespan / static_cast<double>(jobs.size());
  }
};

/// A servable plan reduced to its decision.  Thm 5.3 (DESIGN.md): every
/// LO/CO/PO/JPS/JPS*/JPS+ answer uses at most two cut types, so the first
/// n_a scheduled jobs sit at cut_a and the rest at cut_b.  Canonical form: a
/// pure plan has cut_a == cut_b and n_a == 0.  core::decide produces it
/// without building a plan; the serve cache stores it per key.  The job
/// count is not stored: it is the n_jobs of the key the decision is cached
/// under, so the two can never disagree.
struct PlanDecision {
  std::uint32_t cut_a = 0;
  std::uint32_t cut_b = 0;
  std::uint32_t n_a = 0;
  double predicted_makespan = 0.0;

  /// The decision of `plan`.  JPS_ENSUREs at most two distinct cuts, with
  /// every cut_a job scheduled before every cut_b job.
  [[nodiscard]] static PlanDecision of(const ExecutionPlan& plan);

  /// The (cut, count) mix of `n_jobs` jobs, ascending by cut and without
  /// empty entries: at most two pairs, counts summing to n_jobs.
  /// Precondition: n_a <= n_jobs.
  [[nodiscard]] std::vector<CutMix> mix(int n_jobs) const;

  friend bool operator==(const PlanDecision&, const PlanDecision&) = default;
};

}  // namespace jps::core
