// core::assemble_plan orders cut types, not jobs.  Its oracle is the per-job
// path it replaced: sched::johnson_order over every job, apply_order, the
// lanes copied out of the ordered jobs and sched::flowshop2_makespan of
// them.  Every field must agree, the makespan bit for bit, and every plan
// must lint clean of P004 (not Johnson order) and P005 (makespan mismatch).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "check/lint_plan.h"
#include "core/planner.h"
#include "core/robust.h"
#include "models/registry.h"
#include "net/channel.h"
#include "profile/device.h"
#include "profile/latency_model.h"
#include "sched/johnson.h"
#include "util/rng.h"

namespace jps::core {
namespace {

ExecutionPlan johnson_oracle(const partition::ProfileCurve& curve,
                             Strategy strategy,
                             const std::vector<std::size_t>& cuts) {
  sched::JobList jobs;
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
  for (const sched::Job& job : plan.scheduled_jobs)
    plan.jobs.push_back({job.id, static_cast<std::size_t>(job.cut)});
  plan.refresh_lanes();
  plan.predicted_makespan = sched::flowshop2_makespan(plan.f_lane, plan.g_lane);
  return plan;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// Job i of `plan` sits at cuts[i]: the per-job input assemble_plan was given.
std::vector<std::size_t> cuts_of(const ExecutionPlan& plan) {
  std::vector<std::size_t> cuts(plan.jobs.size());
  for (const JobAssignment& job : plan.jobs)
    cuts.at(static_cast<std::size_t>(job.job_id)) = job.cut_index;
  return cuts;
}

void expect_matches_oracle(const ExecutionPlan& got,
                           const partition::ProfileCurve& curve) {
  const ExecutionPlan want =
      johnson_oracle(curve, got.strategy, cuts_of(got));
  EXPECT_EQ(got.model, want.model);
  ASSERT_EQ(got.jobs, want.jobs);
  ASSERT_EQ(got.scheduled_jobs.size(), want.scheduled_jobs.size());
  for (std::size_t i = 0; i < want.scheduled_jobs.size(); ++i) {
    const sched::Job& a = got.scheduled_jobs[i];
    const sched::Job& b = want.scheduled_jobs[i];
    ASSERT_EQ(a.id, b.id) << "position " << i;
    ASSERT_EQ(a.cut, b.cut) << "position " << i;
    ASSERT_EQ(bits(a.f), bits(b.f)) << "position " << i;
    ASSERT_EQ(bits(a.g), bits(b.g)) << "position " << i;
    ASSERT_EQ(bits(a.cloud), bits(b.cloud)) << "position " << i;
    ASSERT_EQ(bits(got.f_lane.at(i)), bits(want.f_lane[i])) << "position " << i;
    ASSERT_EQ(bits(got.g_lane.at(i)), bits(want.g_lane[i])) << "position " << i;
  }
  EXPECT_EQ(got.f_lane.size(), want.f_lane.size());
  EXPECT_EQ(got.g_lane.size(), want.g_lane.size());
  EXPECT_EQ(got.comm_heavy_count, want.comm_heavy_count);
  EXPECT_EQ(bits(got.predicted_makespan), bits(want.predicted_makespan));

  check::DiagnosticList diagnostics;
  check::PlanLintContext context;
  context.curve = &curve;
  check::lint_plan(got, diagnostics, context);
  EXPECT_FALSE(diagnostics.has_code("P004"));
  EXPECT_FALSE(diagnostics.has_code("P005"));
  EXPECT_FALSE(diagnostics.has_errors());
}

constexpr Strategy kServable[] = {
    Strategy::kLocalOnly, Strategy::kCloudOnly, Strategy::kPartitionOnly,
    Strategy::kJPS,       Strategy::kJPSTuned,  Strategy::kJPSHull};

// 0.3 .. 200 Mbps, log-spaced.
std::vector<double> rate_grid(int points) {
  std::vector<double> rates;
  for (int i = 0; i < points; ++i) {
    const double t = static_cast<double>(i) / (points - 1);
    rates.push_back(0.3 * std::pow(200.0 / 0.3, t));
  }
  return rates;
}

class AssemblePlanZoo : public ::testing::TestWithParam<std::string> {};

TEST_P(AssemblePlanZoo, MatchesPerJobJohnsonOrderForEveryPlanner) {
  const profile::LatencyModel mobile(profile::DeviceProfile::raspberry_pi_4b());
  const dnn::Graph graph = models::build(GetParam());
  const std::vector<double> rates = rate_grid(13);
  std::size_t mixed = 0;
  for (std::size_t r = 0; r < rates.size(); ++r) {
    const net::Channel channel(rates[r]);
    const Planner planner(
        partition::ProfileCurve::build(graph, mobile, channel));
    for (const Strategy strategy : kServable) {
      for (const int n_jobs : {1, 2, 3, 8, 64, 512}) {
        SCOPED_TRACE(std::to_string(rates[r]) + " Mbps, " +
                     strategy_name(strategy) + ", n=" +
                     std::to_string(n_jobs));
        const ExecutionPlan plan = planner.plan(strategy, n_jobs);
        expect_matches_oracle(plan, planner.curve());
        if (plan.jobs.front().cut_index != plan.jobs.back().cut_index) ++mixed;
      }
    }
    // BF hands assemble_plan arbitrary per-job cuts; it is exponential, so
    // only small n on every other rate.
    if (r % 2 == 0) {
      for (const int n_jobs : {1, 2, 3, 8}) {
        SCOPED_TRACE(std::to_string(rates[r]) + " Mbps, BF, n=" +
                     std::to_string(n_jobs));
        expect_matches_oracle(planner.plan(Strategy::kBruteForce, n_jobs),
                              planner.curve());
      }
    }
    // The sweep's expansion goes through assemble_plan too.
    const PlanSweep sweep = planner.plan_sweep(Strategy::kJPSTuned, 64,
                                               {{rates[r] * 0.5}}, channel);
    const ExecutionPlan materialized = planner.materialize(sweep, 0, channel);
    expect_matches_oracle(
        materialized, planner.curve().with_bandwidth(channel, rates[r] * 0.5));
  }
  EXPECT_GT(mixed, 0u);  // two-type plans must be exercised, not just pure
}

TEST_P(AssemblePlanZoo, MatchesPerJobJohnsonOrderForRobustPlans) {
  const profile::LatencyModel mobile(profile::DeviceProfile::raspberry_pi_4b());
  const dnn::Graph graph = models::build(GetParam());
  RobustPlannerOptions options;
  options.samples = 5;
  for (const double mbps : {1.0, 5.85, 40.0}) {
    const net::Channel channel(mbps);
    const RobustPlanner planner(
        partition::ProfileCurve::build(graph, mobile, channel), channel,
        {mbps * 0.5, mbps * 2.0}, options);
    for (const int n_jobs : {1, 2, 3, 8}) {
      SCOPED_TRACE(std::to_string(mbps) + " Mbps, ROB, n=" +
                   std::to_string(n_jobs));
      expect_matches_oracle(planner.plan(n_jobs), planner.curve());
    }
  }
}

TEST_P(AssemblePlanZoo, MatchesPerJobJohnsonOrderForArbitraryCutLists) {
  const profile::LatencyModel mobile(profile::DeviceProfile::raspberry_pi_4b());
  const dnn::Graph graph = models::build(GetParam());
  partition::CurveOptions unclustered;
  unclustered.cluster = false;  // more cut types, ties and non-monotone runs
  const partition::ProfileCurve curve = partition::ProfileCurve::build(
      graph, mobile, net::Channel(5.85), unclustered);
  util::Rng rng(7);
  for (const int n_jobs : {1, 2, 3, 8, 64, 512}) {
    std::vector<std::size_t> cuts(static_cast<std::size_t>(n_jobs));
    for (std::size_t& cut : cuts)
      cut = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(curve.size()) - 1));
    SCOPED_TRACE("n=" + std::to_string(n_jobs));
    expect_matches_oracle(assemble_plan(curve, Strategy::kBruteForce, cuts),
                          curve);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, AssemblePlanZoo, ::testing::ValuesIn(models::all_names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

partition::ProfileCurve hand_built(
    const std::vector<std::pair<double, double>>& fg) {
  std::vector<partition::CutPoint> candidates;
  for (const auto& [f, g] : fg) {
    partition::CutPoint c;
    c.f = f;
    c.g = g;
    candidates.push_back(c);
  }
  partition::CurveOptions options;
  options.cluster = false;
  return partition::ProfileCurve::from_candidates("hand", std::move(candidates),
                                                  options);
}

TEST(AssemblePlan, MergesTheJobsOfDistinctCutsTiedOnTheJohnsonKey) {
  // Cuts 1 and 2 tie on f in S1 (f < g); cuts 3 and 4 tie on g in S2; cuts
  // 5 and 6 are the same (f, g) point.  Each tied pair must interleave its
  // jobs in ascending id, not run cut by cut.
  const partition::ProfileCurve curve = hand_built({{0.0, 20.0},
                                                    {2.0, 9.0},
                                                    {2.0, 7.0},
                                                    {6.0, 3.0},
                                                    {8.0, 3.0},
                                                    {9.0, 1.0},
                                                    {9.0, 1.0},
                                                    {12.0, 0.0}});
  const std::vector<std::size_t> cuts = {2, 1, 4, 3, 2, 6, 5, 1, 3, 4,
                                         0, 7, 5, 6, 1, 2, 7, 0, 3, 4};
  const ExecutionPlan plan = assemble_plan(curve, Strategy::kBruteForce, cuts);
  expect_matches_oracle(plan, curve);
  // S1 = cut 0 (f = 0), then cuts 1/2 merged; S2 = cuts 3/4 merged (g = 3),
  // cuts 5/6 merged (g = 1), cut 7 (g = 0).
  std::vector<int> ids;
  for (const JobAssignment& job : plan.jobs) ids.push_back(job.job_id);
  const std::vector<int> want = {10, 17, 0, 1, 4, 7, 14, 15, 2, 3,
                                 8,  9,  18, 19, 5, 6, 12, 13, 11, 16};
  EXPECT_EQ(ids, want);
  EXPECT_EQ(plan.comm_heavy_count, 8u);
}

TEST(AssemblePlan, PutsCutBFirstWhenItsJobsAreCommHeavy) {
  // RobustPlanner lays out its mix as "the first n_a jobs at cut_a, the rest
  // at cut_b".  On a monotone curve with cut_a < cut_b, Johnson keeps that
  // order; with the cuts swapped (cut_a the comp-heavy one), cut_b's jobs
  // must move ahead of cut_a's.
  const profile::LatencyModel mobile(profile::DeviceProfile::raspberry_pi_4b());
  const net::Channel channel(5.85);
  const partition::ProfileCurve curve = partition::ProfileCurve::build(
      models::build("alexnet"), mobile, channel);
  const std::size_t comm_heavy = 0;                  // cloud-only: f = 0 < g
  const std::size_t comp_heavy = curve.size() - 1;   // local-only: g = 0
  ASSERT_LT(curve.f(comm_heavy), curve.g(comm_heavy));
  ASSERT_GE(curve.f(comp_heavy), curve.g(comp_heavy));
  for (const int n_a : {1, 3, 7}) {
    std::vector<std::size_t> cuts(10, comm_heavy);
    std::fill_n(cuts.begin(), n_a, comp_heavy);
    const ExecutionPlan plan = assemble_plan(curve, Strategy::kRobust, cuts);
    expect_matches_oracle(plan, curve);
    EXPECT_EQ(plan.jobs.front().cut_index, comm_heavy);
    EXPECT_EQ(plan.jobs.front().job_id, n_a);
    EXPECT_EQ(plan.jobs.back().cut_index, comp_heavy);
    EXPECT_EQ(plan.comm_heavy_count, static_cast<std::size_t>(10 - n_a));
  }
}

TEST(AssemblePlan, RejectsCutsOutsideTheCurveAndNegativeStages) {
  const partition::ProfileCurve curve =
      hand_built({{0.0, 5.0}, {3.0, 1.0}, {4.0, 0.0}});
  EXPECT_THROW((void)assemble_plan(curve, Strategy::kJPS, {0, 3}),
               std::out_of_range);
  const partition::ProfileCurve negative =
      hand_built({{0.0, 5.0}, {3.0, -1.0}});
  EXPECT_THROW((void)assemble_plan(negative, Strategy::kJPS, {0, 1}),
               std::invalid_argument);
  // An unused negative cut is never read, as in johnson_order.
  EXPECT_NO_THROW((void)assemble_plan(negative, Strategy::kJPS, {0, 0}));
}

}  // namespace
}  // namespace jps::core
