#include "sched/makespan.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "sched/johnson.h"
#include "util/rng.h"

namespace jps::sched {
namespace {

JobList make_jobs(std::initializer_list<std::pair<double, double>> fg) {
  JobList jobs;
  int id = 0;
  for (const auto& [f, g] : fg)
    jobs.push_back(Job{.id = id++, .cut = -1, .f = f, .g = g});
  return jobs;
}

TEST(Flowshop2, SingleJob) {
  const JobList jobs = make_jobs({{3, 4}});
  EXPECT_DOUBLE_EQ(flowshop2_makespan(jobs), 7.0);
}

TEST(Flowshop2, PipelineOverlaps) {
  // Job 1 comp [0,4], comm [4,10]; job 2 comp [4,11], comm [11,13].
  const JobList jobs = make_jobs({{4, 6}, {7, 2}});
  EXPECT_DOUBLE_EQ(flowshop2_makespan(jobs), 13.0);
  const auto timeline = flowshop2_timeline(jobs);
  ASSERT_EQ(timeline.size(), 2u);
  EXPECT_DOUBLE_EQ(timeline[0].comm_start, 4.0);
  EXPECT_DOUBLE_EQ(timeline[1].comp_start, 4.0);
  EXPECT_DOUBLE_EQ(timeline[1].comm_start, 11.0);
  EXPECT_DOUBLE_EQ(timeline[1].completion(), 13.0);
}

TEST(Flowshop2, CommQueuesBehindPreviousComm) {
  // Job 2's comp finishes early but must wait for the link.
  const JobList jobs = make_jobs({{1, 10}, {1, 5}});
  const auto timeline = flowshop2_timeline(jobs);
  EXPECT_DOUBLE_EQ(timeline[1].comp_end, 2.0);
  EXPECT_DOUBLE_EQ(timeline[1].comm_start, 11.0);  // waits for job 1's comm
  EXPECT_DOUBLE_EQ(flowshop2_makespan(jobs), 16.0);
}

TEST(Flowshop2, EmptyIsZero) {
  EXPECT_DOUBLE_EQ(flowshop2_makespan(JobList{}), 0.0);
}

TEST(Flowshop2, TimelineMatchesMakespan) {
  util::Rng rng(4);
  JobList jobs;
  for (int i = 0; i < 20; ++i)
    jobs.push_back(Job{.id = i,
                       .cut = -1,
                       .f = rng.uniform(0.0, 5.0),
                       .g = rng.uniform(0.0, 5.0)});
  const auto timeline = flowshop2_timeline(jobs);
  double max_completion = 0.0;
  for (const auto& t : timeline)
    max_completion = std::max(max_completion, t.completion());
  EXPECT_DOUBLE_EQ(max_completion, flowshop2_makespan(jobs));
}

TEST(Flowshop3, CloudStageExtendsMakespan) {
  JobList jobs = make_jobs({{4, 6}, {7, 2}});
  for (auto& j : jobs) j.cloud = 1.0;
  EXPECT_DOUBLE_EQ(flowshop3_makespan(jobs), 14.0);  // 13 + trailing cloud
  // With zero cloud time the 3-stage result collapses to the 2-stage one.
  for (auto& j : jobs) j.cloud = 0.0;
  EXPECT_DOUBLE_EQ(flowshop3_makespan(jobs), flowshop2_makespan(jobs));
}

TEST(ClosedForm, MatchesCriticalPathIdentityByHand) {
  // max_k (sum_{i<=k} f_i + sum_{i>=k} g_i): k=1 -> 2+15, k=2 -> 5+6,
  // k=3 -> 11+1.  The maximum (17) sits at k=1 here.
  const JobList jobs = make_jobs({{2, 9}, {3, 5}, {6, 1}});
  EXPECT_DOUBLE_EQ(closed_form_makespan(jobs), 17.0);
  EXPECT_DOUBLE_EQ(flowshop2_makespan(jobs), 17.0);
}

TEST(ClosedForm, InteriorCriticalJobCounterexample) {
  // The regression that motivated the exact sweep: the k=2 term dominates
  // (1+10 f-prefix, 10+1 g-suffix = 22) but the old k-in-{1,n} rendering
  // reported 1 + max(11, 11) + 1 = 13.
  const JobList jobs = make_jobs({{1, 1}, {10, 10}, {1, 1}});
  EXPECT_DOUBLE_EQ(closed_form_makespan(jobs), 22.0);
  EXPECT_DOUBLE_EQ(flowshop2_makespan(jobs), 22.0);
}

TEST(ClosedForm, MatchesRecurrenceOnRandomOrders) {
  // The identity is exact for EVERY order, not only Johnson's: 1000+
  // random job sequences must agree with the flow-shop recurrence.
  util::Rng rng(9);
  for (int trial = 0; trial < 1200; ++trial) {
    JobList jobs;
    const int n = static_cast<int>(rng.uniform_int(1, 12));
    for (int i = 0; i < n; ++i)
      jobs.push_back(Job{.id = i,
                         .cut = -1,
                         .f = rng.uniform(0.0, 10.0),
                         .g = rng.uniform(0.0, 10.0)});
    const double reference = flowshop2_makespan(jobs);
    EXPECT_NEAR(closed_form_makespan(jobs), reference,
                1e-9 * std::max(1.0, reference))
        << "trial " << trial << " n=" << n;
  }
}

TEST(ClosedForm, ExactUnderJohnsonForTwoAdjacentCutTypes) {
  // Proposition 4.1's setting: identical jobs from two adjacent cut types
  // of a monotone curve, Johnson-ordered.  There the k-in-{1,n} special
  // case the paper states coincides with the full identity.
  util::Rng rng(13);
  for (int trial = 0; trial < 200; ++trial) {
    // Random adjacent pair: comm-heavy (f1 < g1) and comp-heavy (f2 >= g2)
    // with f1 <= f2 and g1 >= g2 (monotone curve).
    const double f1 = rng.uniform(0.0, 5.0);
    const double g1 = f1 + rng.uniform(0.1, 5.0);
    const double f2 = f1 + rng.uniform(0.0, 5.0);
    const double g2 = rng.uniform(0.0, std::min(f2, g1));
    JobList jobs;
    const int n1 = static_cast<int>(rng.uniform_int(0, 6));
    const int n2 = static_cast<int>(rng.uniform_int(0, 6));
    if (n1 + n2 == 0) continue;
    for (int i = 0; i < n1; ++i)
      jobs.push_back(Job{.id = i, .cut = 0, .f = f1, .g = g1});
    for (int i = 0; i < n2; ++i)
      jobs.push_back(Job{.id = n1 + i, .cut = 1, .f = f2, .g = g2});
    const JohnsonSchedule s = johnson_order(jobs);
    const JobList ordered = apply_order(jobs, s.order);
    EXPECT_NEAR(closed_form_makespan(ordered), flowshop2_makespan(ordered),
                1e-9)
        << "trial " << trial;
  }
}

TEST(Lanes, MatchJobSpanOverloadsBitwise) {
  // The SoA overloads run the same additions in the same order as the
  // Job-span ones, so on identical sequences the doubles must match
  // bit for bit — that is the contract the batched planner path leans on.
  util::Rng rng(29);
  for (int trial = 0; trial < 200; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(1, 30));
    JobList jobs;
    std::vector<double> f(n), g(n);
    for (int i = 0; i < n; ++i) {
      f[i] = rng.uniform(0.0, 10.0);
      g[i] = rng.uniform(0.0, 10.0);
      jobs.push_back(Job{.id = i, .cut = -1, .f = f[i], .g = g[i]});
    }
    EXPECT_EQ(flowshop2_makespan(f, g), flowshop2_makespan(jobs))
        << "trial " << trial;
    EXPECT_EQ(closed_form_makespan(f, g), closed_form_makespan(jobs))
        << "trial " << trial;
  }
}

TEST(Lanes, RejectMismatchedLengths) {
  const std::vector<double> f = {1.0, 2.0};
  const std::vector<double> g = {3.0};
  EXPECT_THROW((void)flowshop2_makespan(f, g), std::invalid_argument);
  EXPECT_THROW((void)closed_form_makespan(f, g), std::invalid_argument);
}

TEST(Lanes, EmptyLanesAreZero) {
  const std::vector<double> none;
  EXPECT_DOUBLE_EQ(flowshop2_makespan(none, none), 0.0);
  EXPECT_DOUBLE_EQ(closed_form_makespan(none, none), 0.0);
}

TEST(TwoTypeFlowshop2, MatchesMaterializedSequenceBitwise) {
  util::Rng rng(31);
  for (int trial = 0; trial < 200; ++trial) {
    const double f_a = rng.uniform(0.0, 10.0);
    const double g_a = rng.uniform(0.0, 10.0);
    const double f_b = rng.uniform(0.0, 10.0);
    const double g_b = rng.uniform(0.0, 10.0);
    const int n_a = static_cast<int>(rng.uniform_int(0, 8));
    const int n_b = static_cast<int>(rng.uniform_int(0, 8));
    JobList jobs;
    for (int i = 0; i < n_a; ++i)
      jobs.push_back(Job{.id = i, .cut = 0, .f = f_a, .g = g_a});
    for (int i = 0; i < n_b; ++i)
      jobs.push_back(Job{.id = n_a + i, .cut = 1, .f = f_b, .g = g_b});
    EXPECT_EQ(two_type_flowshop2_makespan(f_a, g_a, n_a, f_b, g_b, n_b),
              flowshop2_makespan(jobs))
        << "trial " << trial << " n_a=" << n_a << " n_b=" << n_b;
  }
}

TEST(TwoTypeFlowshop2, NegativeAndZeroCountsAreEmptyRuns) {
  EXPECT_DOUBLE_EQ(two_type_flowshop2_makespan(1.0, 2.0, 0, 3.0, 4.0, 0), 0.0);
  EXPECT_DOUBLE_EQ(two_type_flowshop2_makespan(1.0, 2.0, -3, 3.0, 4.0, -1),
                   0.0);
  // One empty run: identical to the pure run of the other type.
  const JobList pure_b = make_jobs({{3, 4}, {3, 4}});
  EXPECT_EQ(two_type_flowshop2_makespan(9.0, 9.0, -2, 3.0, 4.0, 2),
            flowshop2_makespan(pure_b));
}

TEST(AverageBound, MatchesHandComputation) {
  const JobList jobs = make_jobs({{2, 8}, {4, 2}});
  // max(sum f, sum g)/n = max(6, 10)/2 = 5.
  EXPECT_DOUBLE_EQ(average_makespan_bound(jobs), 5.0);
  EXPECT_DOUBLE_EQ(average_makespan_bound(JobList{}), 0.0);
}

TEST(AverageBound, LowerBoundsPerJobMakespan) {
  util::Rng rng(17);
  for (int trial = 0; trial < 100; ++trial) {
    JobList jobs;
    const int n = static_cast<int>(rng.uniform_int(1, 15));
    for (int i = 0; i < n; ++i)
      jobs.push_back(Job{.id = i,
                         .cut = -1,
                         .f = rng.uniform(0.0, 10.0),
                         .g = rng.uniform(0.0, 10.0)});
    const JohnsonSchedule s = johnson_order(jobs);
    const double makespan = flowshop2_makespan(apply_order(jobs, s.order));
    EXPECT_LE(average_makespan_bound(jobs),
              makespan / static_cast<double>(n) + 1e-9);
  }
}

}  // namespace
}  // namespace jps::sched
