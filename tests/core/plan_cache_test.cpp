#include "core/plan_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <vector>

#include "check/contracts.h"
#include "core/planner.h"
#include "models/registry.h"
#include "net/channel.h"
#include "profile/device.h"
#include "profile/latency_model.h"
#include "util/thread_pool.h"

namespace jps::core {
namespace {

partition::ProfileCurve build_alexnet_curve(double mbps) {
  static const dnn::Graph graph = models::build("alexnet");
  static const profile::LatencyModel mobile(
      profile::DeviceProfile::raspberry_pi_4b());
  return partition::ProfileCurve::build(graph, mobile, net::Channel(mbps));
}

TEST(PlanCache, CurveMissesThenHits) {
  PlanCache cache;
  std::atomic<int> builds{0};
  const CurveCacheKey key{"alexnet", "pi4b", 5.85};
  const auto build = [&] {
    builds.fetch_add(1);
    return build_alexnet_curve(5.85);
  };
  const auto first = cache.curve(key, build);
  const auto second = cache.curve(key, build);
  EXPECT_EQ(builds.load(), 1);
  EXPECT_EQ(first.get(), second.get());  // hits return the cached object
  const PlanCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.curve_misses, 1u);
  EXPECT_EQ(stats.curve_hits, 1u);
  EXPECT_EQ(cache.curve_count(), 1u);
}

TEST(PlanCache, KeysRejectNonFiniteBandwidth) {
  // Regression: a NaN bandwidth would build a key unequal to itself —
  // every lookup misses and the entry is unreachable forever.  The key
  // constructors refuse instead of poisoning the table.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(CurveCacheKey("alexnet", "pi4b", nan),
               check::ContractViolation);
  EXPECT_THROW(CurveCacheKey("alexnet", "pi4b", inf),
               check::ContractViolation);
  EXPECT_THROW(CurveCacheKey("alexnet", "pi4b", -inf),
               check::ContractViolation);
  EXPECT_THROW(PlanCacheKey("alexnet", "pi4b", nan, Strategy::kJPS, 10),
               check::ContractViolation);
  EXPECT_THROW(PlanCacheKey("alexnet", "pi4b", inf, Strategy::kJPS, 10),
               check::ContractViolation);
}

TEST(PlanCache, KeysCanonicalizeNegativeZero) {
  // Regression: -0.0 == 0.0 but their bit patterns differ, so a hash built
  // from the bits would scatter equal keys across buckets.  Construction
  // canonicalizes the sign away.
  const CurveCacheKey negative{"alexnet", "pi4b", -0.0};
  const CurveCacheKey positive{"alexnet", "pi4b", 0.0};
  EXPECT_FALSE(std::signbit(negative.bandwidth_mbps));
  EXPECT_EQ(negative, positive);

  const PlanCacheKey plan_negative{"alexnet", "pi4b", -0.0, Strategy::kJPS, 4};
  EXPECT_FALSE(std::signbit(plan_negative.bandwidth_mbps));
  EXPECT_EQ(plan_negative,
            (PlanCacheKey{"alexnet", "pi4b", 0.0, Strategy::kJPS, 4}));

  // End to end: a -0.0 lookup must hash into and hit the +0.0 entry, not
  // rebuild it.
  PlanCache cache;
  std::atomic<int> builds{0};
  const auto build = [&] {
    builds.fetch_add(1);
    return build_alexnet_curve(5.85);
  };
  const auto positive_curve = cache.curve({"alexnet", "pi4b", 0.0}, build);
  const auto negative_curve = cache.curve({"alexnet", "pi4b", -0.0}, build);
  EXPECT_EQ(negative_curve.get(), positive_curve.get());
  EXPECT_EQ(builds.load(), 1);
  EXPECT_EQ(cache.curve_count(), 1u);
}

TEST(PlanCache, DistinctKeysDoNotCollide) {
  PlanCache cache;
  const auto at_5 = cache.curve({"alexnet", "pi4b", 5.0},
                                [] { return build_alexnet_curve(5.0); });
  const auto at_10 = cache.curve({"alexnet", "pi4b", 10.0},
                                 [] { return build_alexnet_curve(10.0); });
  const auto other_device = cache.curve(
      {"alexnet", "jetson", 5.0}, [] { return build_alexnet_curve(5.0); });
  EXPECT_EQ(cache.curve_count(), 3u);
  EXPECT_NE(at_5.get(), at_10.get());
  EXPECT_NE(at_5.get(), other_device.get());
  // Same bandwidth, different device: independent entries, equal contents.
  EXPECT_EQ(at_5->size(), other_device->size());
}

TEST(PlanCache, PlanKeyIncludesStrategyAndJobCount) {
  PlanCache cache;
  const auto curve = cache.curve({"alexnet", "pi4b", 5.85},
                                 [] { return build_alexnet_curve(5.85); });
  const auto plan_for = [&](Strategy s, int n) {
    return cache.plan({"alexnet", "pi4b", 5.85, s, n},
                      [&] { return Planner(*curve).plan(s, n); });
  };
  const auto jps_10 = plan_for(Strategy::kJPS, 10);
  const auto jps_10_again = plan_for(Strategy::kJPS, 10);
  const auto jps_20 = plan_for(Strategy::kJPS, 20);
  const auto lo_10 = plan_for(Strategy::kLocalOnly, 10);
  EXPECT_EQ(jps_10.get(), jps_10_again.get());
  EXPECT_NE(jps_10.get(), jps_20.get());
  EXPECT_NE(jps_10.get(), lo_10.get());
  const PlanCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.plan_misses, 3u);
  EXPECT_EQ(stats.plan_hits, 1u);
  EXPECT_GT(stats.hit_rate(), 0.0);
}

TEST(PlanCache, ClearDropsEntriesButKeepsOutstandingPointers) {
  PlanCache cache;
  const auto curve = cache.curve({"alexnet", "pi4b", 5.85},
                                 [] { return build_alexnet_curve(5.85); });
  const std::size_t size_before = curve->size();
  cache.clear();
  EXPECT_EQ(cache.curve_count(), 0u);
  EXPECT_EQ(cache.stats().misses(), 0u);
  EXPECT_EQ(curve->size(), size_before);  // shared_ptr keeps the value alive
}

TEST(PlanCache, ConcurrentMixedAccessIsSafeAndCoherent) {
  // Hammer one cache from many threads over a handful of keys: every
  // returned pointer for one key must be the same object, and lookups must
  // add up.  Suitable for running under TSan.
  PlanCache cache;
  constexpr std::size_t kLookups = 200;
  const double bandwidths[] = {1.0, 2.0, 4.0, 8.0};
  std::vector<std::shared_ptr<const partition::ProfileCurve>> seen(kLookups);
  util::parallel_for(kLookups, [&](std::size_t i) {
    const double mbps = bandwidths[i % 4];
    seen[i] = cache.curve({"alexnet", "pi4b", mbps},
                          [&] { return build_alexnet_curve(mbps); });
  });
  EXPECT_EQ(cache.curve_count(), 4u);
  for (std::size_t i = 4; i < kLookups; ++i)
    EXPECT_EQ(seen[i].get(), seen[i % 4].get());
  const PlanCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.curve_hits + stats.curve_misses, kLookups);
  EXPECT_GE(stats.curve_misses, 4u);  // racing builders may double-build
}

TEST(PlanCache, FindPlanCountsAHitOnlyOnSuccess) {
  PlanCache cache;
  const PlanCacheKey key{"alexnet", "pi4b", 5.85, Strategy::kJPS, 4};
  const partition::ProfileCurve curve = build_alexnet_curve(5.85);

  // A miss finds nothing and counts nothing.
  EXPECT_EQ(cache.find_plan(key), nullptr);
  EXPECT_EQ(cache.stats().plan_hits + cache.stats().plan_misses, 0u);

  // The plan() that follows counts that lookup once, as its miss.
  const auto built = cache.plan(
      key, [&] { return Planner(curve).plan(Strategy::kJPS, 4); });
  EXPECT_EQ(cache.stats().plan_misses, 1u);
  EXPECT_EQ(cache.stats().plan_hits, 0u);

  // A hit returns the cached object and counts once.
  const auto found = cache.find_plan(key);
  EXPECT_EQ(found.get(), built.get());
  EXPECT_EQ(cache.stats().plan_hits, 1u);
  EXPECT_EQ(cache.stats().plan_misses, 1u);
}

TEST(PlanCache, GlobalIsASingleton) {
  EXPECT_EQ(&PlanCache::global(), &PlanCache::global());
}

// ---- ShardedPlanCache: the lock-striped wrapper jps_serve sits on ----

TEST(ShardedPlanCache, DelegatesAndAggregatesStats) {
  ShardedPlanCache cache(4);
  EXPECT_EQ(cache.shard_count(), 4u);
  std::atomic<int> curve_builds{0};
  std::atomic<int> plan_builds{0};
  // Distinct bandwidths scatter across shards; each key misses once, hits
  // once, and stats() must add up across every shard.
  for (const double mbps : {1.0, 2.0, 3.0, 4.0, 5.0}) {
    const CurveCacheKey curve_key{"alexnet", "pi4b", mbps};
    for (int round = 0; round < 2; ++round) {
      const auto curve = cache.curve(curve_key, [&] {
        curve_builds.fetch_add(1);
        return build_alexnet_curve(mbps);
      });
      const PlanCacheKey plan_key{"alexnet", "pi4b", mbps, Strategy::kJPS, 4};
      const auto plan = cache.plan(plan_key, [&] {
        plan_builds.fetch_add(1);
        return Planner(*curve).plan(Strategy::kJPS, 4);
      });
      ASSERT_NE(plan, nullptr);
      // The shard keeps the decision of the plan the builder returned.
      EXPECT_EQ(*plan,
                PlanDecision::of(Planner(*curve).plan(Strategy::kJPS, 4)));
    }
  }
  EXPECT_EQ(curve_builds.load(), 5);
  EXPECT_EQ(plan_builds.load(), 5);
  const PlanCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.curve_misses, 5u);
  EXPECT_EQ(stats.curve_hits, 5u);
  EXPECT_EQ(stats.plan_misses, 5u);
  EXPECT_EQ(stats.plan_hits, 5u);
  EXPECT_EQ(cache.curve_count(), 5u);
  EXPECT_EQ(cache.plan_count(), 5u);
}

TEST(ShardedPlanCache, FindPlanLookupsAddUpAcrossShards) {
  ShardedPlanCache cache(4);
  std::uint64_t lookups = 0;
  for (const double mbps : {1.0, 2.0, 3.0, 4.0, 5.0}) {
    const PlanCacheKey key{"alexnet", "pi4b", mbps, Strategy::kJPS, 4};
    const partition::ProfileCurve curve = build_alexnet_curve(mbps);
    // Lookup-then-build, the serving pattern: one lookup, counted once.
    if (cache.find_plan(key) == nullptr) {
      (void)cache.plan(
          key, [&] { return Planner(curve).plan(Strategy::kJPS, 4); });
    }
    ++lookups;
    ASSERT_NE(cache.find_plan(key), nullptr);
    ++lookups;
  }
  const PlanCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.plan_hits + stats.plan_misses, lookups);
  EXPECT_EQ(stats.plan_misses, 5u);
  EXPECT_EQ(stats.plan_hits, 5u);
}

TEST(ShardedPlanCache, RoutingIsDeterministicAndInRange) {
  ShardedPlanCache cache(8);
  const CurveCacheKey a{"alexnet", "pi4b", 5.0};
  const CurveCacheKey b{"alexnet", "pi4b", 5.0};
  EXPECT_EQ(cache.shard_of(a), cache.shard_of(b));  // equal keys, one shard
  EXPECT_LT(cache.shard_of(a), cache.shard_count());
  const PlanCacheKey p{"alexnet", "pi4b", 5.0, Strategy::kJPS, 4};
  EXPECT_LT(cache.shard_of(p), cache.shard_count());
  // -0.0 canonicalizes before hashing, so it routes with +0.0.
  EXPECT_EQ(cache.shard_of(CurveCacheKey{"alexnet", "pi4b", -0.0}),
            cache.shard_of(CurveCacheKey{"alexnet", "pi4b", 0.0}));
}

TEST(ShardedPlanCache, ShardCountClampsToAtLeastOne) {
  ShardedPlanCache cache(0);
  EXPECT_EQ(cache.shard_count(), 1u);
  EXPECT_EQ(cache.shard_of(CurveCacheKey{"alexnet", "pi4b", 2.5}), 0u);
}

TEST(ShardedPlanCache, ClearAndResetStatsTouchEveryShard) {
  ShardedPlanCache cache(4);
  for (const double mbps : {1.0, 2.0, 3.0, 4.0}) {
    (void)cache.curve({"alexnet", "pi4b", mbps},
                      [&] { return build_alexnet_curve(mbps); });
  }
  EXPECT_EQ(cache.curve_count(), 4u);
  cache.clear();
  EXPECT_EQ(cache.curve_count(), 0u);
  EXPECT_EQ(cache.plan_count(), 0u);
  cache.reset_stats();
  const PlanCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.curve_misses, 0u);
  EXPECT_EQ(stats.curve_hits, 0u);
}

TEST(ShardedPlanCache, ConcurrentMixedAccessIsSafeAndCoherent) {
  // Same contract as the single-cache test, through the striped wrapper:
  // one object per key no matter which thread asked.  TSan target.
  ShardedPlanCache cache(4);
  constexpr std::size_t kLookups = 200;
  const double bandwidths[] = {1.0, 2.0, 4.0, 8.0};
  std::vector<std::shared_ptr<const partition::ProfileCurve>> seen(kLookups);
  util::parallel_for(kLookups, [&](std::size_t i) {
    const double mbps = bandwidths[i % 4];
    seen[i] = cache.curve({"alexnet", "pi4b", mbps},
                          [&] { return build_alexnet_curve(mbps); });
  });
  EXPECT_EQ(cache.curve_count(), 4u);
  for (std::size_t i = 4; i < kLookups; ++i)
    EXPECT_EQ(seen[i].get(), seen[i % 4].get());
  const PlanCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.curve_hits + stats.curve_misses, kLookups);
  EXPECT_GE(stats.curve_misses, 4u);  // racing builders may double-build
}

}  // namespace
}  // namespace jps::core
