// PlanDecision: the fixed-size value the serve cache stores in place of a
// full ExecutionPlan.  The reply a client sees is derived from it, so every
// servable plan's decision is checked against a reference derived from the
// full plan: plan.jobs walked into an ordered (cut -> count) map.  The
// decision kernel core::decide, which serve misses run without building a
// plan, must return exactly PlanDecision::of that plan.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "check/contracts.h"
#include "core/plan_cache.h"
#include "core/planner.h"
#include "models/registry.h"
#include "net/channel.h"
#include "profile/device.h"
#include "profile/latency_model.h"

namespace jps::core {
namespace {

// The reference cut mix, counted job by job from the full plan.
std::vector<CutMix> mix_from_jobs(const ExecutionPlan& plan) {
  std::map<std::size_t, std::uint32_t> counts;
  for (const JobAssignment& job : plan.jobs) ++counts[job.cut_index];
  std::vector<CutMix> out;
  for (const auto& [cut, count] : counts)
    out.push_back({static_cast<std::uint32_t>(cut), count});
  return out;
}

constexpr Strategy kServable[] = {
    Strategy::kLocalOnly, Strategy::kCloudOnly, Strategy::kPartitionOnly,
    Strategy::kJPS,       Strategy::kJPSTuned,  Strategy::kJPSHull};

// One zoo model per case, so ctest spreads the 1<<20-job plans over cores.
class PlanDecisionZoo : public ::testing::TestWithParam<std::string> {};

TEST_P(PlanDecisionZoo, ReproducesTheMixOfEveryServablePlan) {
  const profile::LatencyModel mobile(profile::DeviceProfile::raspberry_pi_4b());
  const dnn::Graph graph = models::build(GetParam());
  std::size_t checked = 0;
  std::size_t mixed = 0;
  for (const double mbps : {0.5, 5.85, 40.0}) {
    const Planner planner(
        partition::ProfileCurve::build(graph, mobile, net::Channel(mbps)));
    for (const Strategy strategy : kServable) {
      for (const int n_jobs : {1, 2, 7, 64, 512, 1 << 20}) {
        const ExecutionPlan plan = planner.plan(strategy, n_jobs);
        const PlanDecision decision = PlanDecision::of(plan);
        const std::vector<CutMix> mix = decision.mix(n_jobs);
        SCOPED_TRACE(std::to_string(mbps) + " Mbps, " +
                     strategy_name(strategy) + ", n=" +
                     std::to_string(n_jobs));
        ASSERT_EQ(mix, mix_from_jobs(plan));
        EXPECT_EQ(decision.predicted_makespan, plan.predicted_makespan);
        // The kernel on the curve's lanes: every field, canonical form and
        // makespan bits included.
        const PlanDecision kernel =
            decide(strategy, n_jobs, planner.curve().f_lane(),
                   planner.curve().g_lane());
        EXPECT_EQ(kernel.cut_a, decision.cut_a);
        EXPECT_EQ(kernel.cut_b, decision.cut_b);
        EXPECT_EQ(kernel.n_a, decision.n_a);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(kernel.predicted_makespan),
                  std::bit_cast<std::uint64_t>(decision.predicted_makespan));
        EXPECT_TRUE(kernel.n_a > 0 || kernel.cut_a == kernel.cut_b);
        ASSERT_GE(mix.size(), 1u);
        ASSERT_LE(mix.size(), 2u);
        std::uint64_t total = 0;
        for (const CutMix& entry : mix) total += entry.count;
        EXPECT_EQ(total, static_cast<std::uint64_t>(n_jobs));
        if (mix.size() == 2) {
          EXPECT_LT(mix[0].cut, mix[1].cut);
          ++mixed;
        }
        ++checked;
      }
    }
  }
  EXPECT_EQ(checked, 3u * 6u * 6u);
  EXPECT_GT(mixed, 0u);  // the two-cut path must be exercised, not just pure
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, PlanDecisionZoo, ::testing::ValuesIn(models::all_names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

TEST(PlanDecision, StoredSizeDoesNotDependOnJobCount) {
  // Trivially copyable: the decision owns no heap storage, so an entry
  // costs sizeof(PlanDecision) at any n_jobs.
  static_assert(std::is_trivially_copyable_v<PlanDecision>);
  static_assert(sizeof(PlanDecision) <= 24);

  const profile::LatencyModel mobile(profile::DeviceProfile::raspberry_pi_4b());
  const Planner planner(partition::ProfileCurve::build(
      models::build("alexnet"), mobile, net::Channel(5.85)));
  ShardedPlanCache cache(2);
  for (const int n_jobs : {1, 1 << 20}) {
    const PlanCacheKey key("alexnet", "pi4b", 5.85, Strategy::kJPS, n_jobs);
    const auto stored = cache.plan(
        key, [&] { return planner.plan(Strategy::kJPS, n_jobs); });
    EXPECT_EQ(*stored, PlanDecision::of(planner.plan(Strategy::kJPS, n_jobs)));
  }
  EXPECT_EQ(cache.plan_count(), 2u);
}

TEST(PlanDecision, PurePlansAndSplitsFollowThePlanSweepShape) {
  ExecutionPlan plan;
  plan.predicted_makespan = 42.0;
  plan.jobs = {{0, 4}, {1, 4}, {2, 4}};
  EXPECT_EQ(PlanDecision::of(plan), (PlanDecision{4, 4, 0, 42.0}));
  EXPECT_EQ(PlanDecision::of(plan).mix(3), (std::vector<CutMix>{{4, 3}}));

  // cut_a is the first-scheduled type, even when it is the larger cut.
  plan.jobs = {{0, 6}, {1, 2}, {2, 2}};
  EXPECT_EQ(PlanDecision::of(plan), (PlanDecision{6, 2, 1, 42.0}));
  EXPECT_EQ(PlanDecision::of(plan).mix(3),
            (std::vector<CutMix>{{2, 2}, {6, 1}}));
}

TEST(PlanDecision, RefusesPlansThatAreNotTwoContiguousCutTypes) {
  ExecutionPlan three_types;
  three_types.jobs = {{0, 1}, {1, 2}, {2, 3}};
  EXPECT_THROW((void)PlanDecision::of(three_types), check::ContractViolation);
  ExecutionPlan interleaved;
  interleaved.jobs = {{0, 1}, {1, 2}, {2, 1}};
  EXPECT_THROW((void)PlanDecision::of(interleaved), check::ContractViolation);
}

TEST(PlanDecision, DecideRefusesWhatIsNotAServableAsk) {
  const std::vector<double> f = {0.0, 4.0, 9.0};
  const std::vector<double> g = {8.0, 3.0, 0.0};
  EXPECT_THROW((void)decide(Strategy::kJPS, 0, f, g), std::invalid_argument);
  EXPECT_THROW((void)decide(Strategy::kBruteForce, 4, f, g),
               std::invalid_argument);
  EXPECT_THROW((void)decide(Strategy::kRobust, 4, f, g),
               std::invalid_argument);
  EXPECT_THROW((void)decide(Strategy::kJPS, 4, std::span<const double>(),
                            std::span<const double>()),
               check::ContractViolation);
}

TEST(PlanDecision, DecideWritesOneSidedMixesInCanonicalForm) {
  // Alg. 2's pair is (0, 1), but one job cannot be split: JPS* puts it at
  // cut 1, and the empty cut-0 side is folded away.  LO is pure anyway.
  const std::vector<double> f = {0.0, 4.0, 9.0};
  const std::vector<double> g = {8.0, 3.0, 0.0};
  const PlanDecision one = decide(Strategy::kJPSTuned, 1, f, g);
  EXPECT_EQ(one.cut_a, one.cut_b);
  EXPECT_EQ(one.n_a, 0u);
  EXPECT_EQ(one.predicted_makespan, 7.0);  // f = 4 then g = 3
  const PlanDecision lo = decide(Strategy::kLocalOnly, 3, f, g);
  EXPECT_EQ(lo, (PlanDecision{2, 2, 0, 27.0}));
}

TEST(PlanDecision, MixRefusesMoreCutAJobsThanTheKeyHas) {
  const PlanDecision decision{1, 2, 4, 10.0};
  EXPECT_EQ(decision.mix(4), (std::vector<CutMix>{{1, 4}}));
  EXPECT_THROW((void)decision.mix(3), check::ContractViolation);
}

}  // namespace
}  // namespace jps::core
