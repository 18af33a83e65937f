#include "serve/snapshot.h"

#include <gtest/gtest.h>

#include <bit>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/plan_cache.h"
#include "core/plan_io.h"
#include "core/planner.h"
#include "models/registry.h"
#include "net/channel.h"
#include "profile/device.h"
#include "profile/latency_model.h"
#include "util/crc32.h"

namespace jps::serve {
namespace {

using core::PlanCacheKey;
using core::PlanDecision;
using core::ShardedPlanCache;
using core::Strategy;

std::shared_ptr<const PlanDecision> sample_decision(
    const std::string& model, Strategy strategy = Strategy::kJPS,
    int n_jobs = 6) {
  static const profile::LatencyModel mobile(
      profile::DeviceProfile::raspberry_pi_4b());
  const dnn::Graph g = models::build(model);
  const auto curve =
      partition::ProfileCurve::build(g, mobile, net::Channel::preset_4g());
  return std::make_shared<const PlanDecision>(
      PlanDecision::of(core::Planner(curve).plan(strategy, n_jobs)));
}

/// A cache with three distinct keys (two models, two bandwidth buckets).
void populate(ShardedPlanCache& cache) {
  cache.insert_plan(PlanCacheKey("alexnet", "pi4b", 2.0, Strategy::kJPS, 6),
                    sample_decision("alexnet"));
  cache.insert_plan(PlanCacheKey("alexnet", "pi4b", 10.0, Strategy::kJPS, 6),
                    sample_decision("alexnet"));
  cache.insert_plan(PlanCacheKey("nin", "pi4b", 2.0, Strategy::kJPSTuned, 4),
                    sample_decision("nin", Strategy::kJPSTuned, 4));
}

void put_le(std::string& out, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

/// One snapshot entry's fields, written out by hand below so these tests
/// pin the byte layout independently of the encoder.
struct Record {
  std::string model = "alexnet";
  std::string device = "pi4b";
  double bandwidth_mbps = 2.0;
  std::uint8_t strategy = static_cast<std::uint8_t>(Strategy::kJPS);
  std::uint32_t n_jobs = 6;
  std::uint32_t cut_a = 3;
  std::uint32_t cut_b = 5;
  std::uint32_t n_a = 2;
  double makespan = 120.5;
};

/// str16 model | str16 device | f64 bandwidth | u8 strategy | u32 n_jobs.
std::string key_bytes(const Record& r) {
  std::string out;
  put_le(out, r.model.size(), 2);
  out += r.model;
  put_le(out, r.device.size(), 2);
  out += r.device;
  put_le(out, std::bit_cast<std::uint64_t>(r.bandwidth_mbps), 8);
  put_le(out, r.strategy, 1);
  put_le(out, r.n_jobs, 4);
  return out;
}

/// A v2 entry: the key, then u32 cut_a | u32 cut_b | u32 n_a | f64 makespan.
std::string entry_bytes(const Record& r) {
  std::string out = key_bytes(r);
  put_le(out, r.cut_a, 4);
  put_le(out, r.cut_b, 4);
  put_le(out, r.n_a, 4);
  put_le(out, std::bit_cast<std::uint64_t>(r.makespan), 8);
  return out;
}

/// Magic | version | count | entries | CRC-32, with a valid CRC.
std::string snapshot_bytes(std::uint32_t version,
                           const std::vector<std::string>& entries) {
  std::string out = "JPSSNAP\n";
  put_le(out, version, 4);
  put_le(out, entries.size(), 4);
  for (const std::string& entry : entries) out += entry;
  put_le(out, util::crc32(out), 4);
  return out;
}

/// Decode `record` as a one-entry v2 snapshot into a fresh cache; a
/// rejection must leave that cache empty.
SnapshotLoadResult decode_record(const Record& record) {
  ShardedPlanCache victim(1);
  const SnapshotLoadResult result = decode_cache_snapshot(
      snapshot_bytes(kSnapshotVersion, {entry_bytes(record)}), victim);
  EXPECT_EQ(victim.plan_count(), result.ok ? 1u : 0u) << result.error;
  return result;
}

TEST(Snapshot, RoundTripPreservesEveryEntry) {
  ShardedPlanCache cache(4);
  populate(cache);
  const std::string bytes = encode_cache_snapshot(cache);

  ShardedPlanCache reloaded(2);
  const SnapshotLoadResult result = decode_cache_snapshot(bytes, reloaded);
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.entries, 3u);

  // Every original entry reloads with a bit-identical makespan under the
  // same key (compare via the sorted entry lists).
  auto want = cache.plan_entries();
  auto got = reloaded.plan_entries();
  ASSERT_EQ(got.size(), want.size());
  for (const auto& [key, plan] : want) {
    bool found = false;
    for (const auto& [rkey, rplan] : got) {
      if (rkey == key) {
        found = true;
        EXPECT_EQ(rplan->predicted_makespan, plan->predicted_makespan);
        EXPECT_EQ(*rplan, *plan);  // cuts, split and makespan
      }
    }
    EXPECT_TRUE(found) << key.model << "@" << key.bandwidth_mbps;
  }
}

TEST(Snapshot, EncodeIsDeterministic) {
  ShardedPlanCache a(8);
  ShardedPlanCache b(3);  // different shard count, same logical content
  populate(a);
  populate(b);
  const std::string first = encode_cache_snapshot(a);
  EXPECT_EQ(first, encode_cache_snapshot(a));
  EXPECT_EQ(first, encode_cache_snapshot(b));

  // encode(decode(bytes)) is canonical too.
  ShardedPlanCache reloaded(1);
  ASSERT_TRUE(decode_cache_snapshot(first, reloaded).ok);
  EXPECT_EQ(encode_cache_snapshot(reloaded), first);
}

TEST(Snapshot, EmptyCacheRoundTrips) {
  ShardedPlanCache cache(1);
  const std::string bytes = encode_cache_snapshot(cache);
  ShardedPlanCache reloaded(1);
  const SnapshotLoadResult result = decode_cache_snapshot(bytes, reloaded);
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.entries, 0u);
  EXPECT_EQ(reloaded.plan_count(), 0u);
}

TEST(Snapshot, EveryByteFlipIsRejectedAndLeavesCacheUntouched) {
  ShardedPlanCache cache(2);
  cache.insert_plan(PlanCacheKey("alexnet", "pi4b", 2.0), sample_decision("alexnet"));
  const std::string bytes = encode_cache_snapshot(cache);

  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::string bad = bytes;
    bad[i] = static_cast<char>(bad[i] ^ 0xFF);
    ShardedPlanCache victim(1);
    const SnapshotLoadResult result = decode_cache_snapshot(bad, victim);
    EXPECT_FALSE(result.ok) << "flip at byte " << i << " was accepted";
    EXPECT_EQ(result.entries, 0u);
    // All-or-nothing: a rejected snapshot inserts nothing.
    EXPECT_EQ(victim.plan_count(), 0u) << "flip at byte " << i;
  }
}

TEST(Snapshot, EveryTruncationIsRejected) {
  ShardedPlanCache cache(2);
  cache.insert_plan(PlanCacheKey("nin", "pi4b", 4.0), sample_decision("nin"));
  const std::string bytes = encode_cache_snapshot(cache);

  for (std::size_t len = 0; len < bytes.size(); ++len) {
    ShardedPlanCache victim(1);
    const SnapshotLoadResult result =
        decode_cache_snapshot(bytes.substr(0, len), victim);
    EXPECT_FALSE(result.ok) << "truncation to " << len << " bytes accepted";
    EXPECT_EQ(victim.plan_count(), 0u);
  }
}

TEST(Snapshot, TrailingBytesAreRejected) {
  ShardedPlanCache cache(1);
  cache.insert_plan(PlanCacheKey("alexnet", "pi4b", 2.0), sample_decision("alexnet"));
  std::string bytes = encode_cache_snapshot(cache);
  bytes += '\0';  // one stray byte after the CRC trailer
  ShardedPlanCache victim(1);
  EXPECT_FALSE(decode_cache_snapshot(bytes, victim).ok);
}

TEST(Snapshot, FirstInsertWinsOnWarmStart) {
  // Snapshot carries a kJPS decision; the victim cache already holds a
  // *different* decision (kCloudOnly's) under the same key.  Warm-start
  // must not clobber the fresher entry.
  ShardedPlanCache source(1);
  const PlanCacheKey key("alexnet", "pi4b", 2.0, Strategy::kJPS, 6);
  source.insert_plan(key, sample_decision("alexnet", Strategy::kJPS));
  const std::string bytes = encode_cache_snapshot(source);

  ShardedPlanCache victim(1);
  const auto existing = sample_decision("alexnet", Strategy::kCloudOnly);
  ASSERT_NE(*existing, *sample_decision("alexnet", Strategy::kJPS));
  victim.insert_plan(key, existing);
  const SnapshotLoadResult result = decode_cache_snapshot(bytes, victim);
  EXPECT_TRUE(result.ok) << result.error;

  const auto entries = victim.plan_entries();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(*entries[0].second, *existing);
  EXPECT_EQ(entries[0].second.get(), existing.get());
}

TEST(Snapshot, MissingFileIsACleanColdStart) {
  ShardedPlanCache cache(1);
  const SnapshotLoadResult result = load_cache_snapshot(
      cache, ::testing::TempDir() + "/jps_snapshot_does_not_exist.bin");
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.entries, 0u);
  EXPECT_TRUE(result.error.empty());
}

TEST(Snapshot, FileRoundTripThroughAtomicSave) {
  const std::string path = ::testing::TempDir() + "/jps_snapshot_test.bin";
  ShardedPlanCache cache(4);
  populate(cache);
  save_cache_snapshot(cache, path);

  // The atomic tmp file must not linger after a successful rename.
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());

  ShardedPlanCache reloaded(4);
  const SnapshotLoadResult result = load_cache_snapshot(reloaded, path);
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.entries, 3u);
  EXPECT_EQ(reloaded.plan_count(), 3u);
  std::remove(path.c_str());
}

TEST(Snapshot, CorruptFileLoadsAsRejectionNotThrow) {
  const std::string path = ::testing::TempDir() + "/jps_snapshot_garbage.bin";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "JPSSNAP\nthis is not a valid snapshot body at all............";
  }
  ShardedPlanCache cache(1);
  SnapshotLoadResult result;
  EXPECT_NO_THROW(result = load_cache_snapshot(cache, path));
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(cache.plan_count(), 0u);
  std::remove(path.c_str());
}

TEST(Snapshot, UnknownVersionIsRejectedWithReason) {
  ShardedPlanCache cache(1);
  std::string bytes = encode_cache_snapshot(cache);
  // Patch the version field (bytes 8..11) and re-stamp the CRC so only the
  // version check can fire.
  bytes[8] = 9;
  const std::uint32_t crc =
      util::crc32(std::string_view(bytes).substr(0, bytes.size() - 4));
  for (int i = 0; i < 4; ++i)
    bytes[bytes.size() - 4 + static_cast<std::size_t>(i)] =
        static_cast<char>((crc >> (8 * i)) & 0xFF);
  ShardedPlanCache victim(1);
  const SnapshotLoadResult result = decode_cache_snapshot(bytes, victim);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("version"), std::string::npos) << result.error;
}

// ---- v2 records: the key plus a fixed-size decision ----

TEST(Snapshot, EntryIsTheKeyPlusAFixedSizeDecision) {
  const Record r;
  ShardedPlanCache cache(2);
  cache.insert_plan(
      PlanCacheKey(r.model, r.device, r.bandwidth_mbps, Strategy::kJPS,
                   static_cast<int>(r.n_jobs)),
      std::make_shared<const PlanDecision>(
          PlanDecision{r.cut_a, r.cut_b, r.n_a, r.makespan}));
  EXPECT_EQ(encode_cache_snapshot(cache),
            snapshot_bytes(kSnapshotVersion, {entry_bytes(r)}));

  // An entry's size does not depend on its job count.
  Record huge = r;
  huge.n_jobs = 1u << 30;
  EXPECT_EQ(entry_bytes(huge).size(), entry_bytes(r).size());
  EXPECT_TRUE(decode_record(huge).ok);
}

TEST(Snapshot, RejectsJobCountsNoRequestCanProduce) {
  Record zero;
  zero.n_jobs = 0;
  zero.n_a = 0;
  const SnapshotLoadResult result = decode_record(zero);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("n_jobs"), std::string::npos) << result.error;

  // Above INT_MAX a u32 would wrap to a negative key.
  Record wraps;
  wraps.n_jobs = static_cast<std::uint32_t>(INT_MAX) + 1u;
  EXPECT_FALSE(decode_record(wraps).ok);
  wraps.n_jobs = static_cast<std::uint32_t>(INT_MAX);
  EXPECT_TRUE(decode_record(wraps).ok);
}

TEST(Snapshot, RejectsStrategiesTheServerWillNotServe) {
  for (const Strategy s : {Strategy::kBruteForce, Strategy::kRobust}) {
    Record r;
    r.strategy = static_cast<std::uint8_t>(s);
    const SnapshotLoadResult result = decode_record(r);
    EXPECT_FALSE(result.ok) << core::strategy_name(s);
    EXPECT_NE(result.error.find("strategy"), std::string::npos)
        << result.error;
  }
  Record unknown;
  unknown.strategy = 200;
  EXPECT_FALSE(decode_record(unknown).ok);
}

TEST(Snapshot, RejectsMoreCutAJobsThanTheKeyHas) {
  Record r;
  r.n_a = r.n_jobs + 1;
  const SnapshotLoadResult result = decode_record(r);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("n_a"), std::string::npos) << result.error;
  r.n_a = r.n_jobs;  // every job at cut_a is a (non-canonical) pure plan
  EXPECT_TRUE(decode_record(r).ok);
}

TEST(Snapshot, RejectsAMakespanThatIsNotFiniteAndNonNegative) {
  for (const double makespan : {std::numeric_limits<double>::quiet_NaN(),
                                std::numeric_limits<double>::infinity(),
                                -1.0}) {
    Record r;
    r.makespan = makespan;
    const SnapshotLoadResult result = decode_record(r);
    EXPECT_FALSE(result.ok) << makespan;
    EXPECT_NE(result.error.find("makespan"), std::string::npos)
        << result.error;
  }
  Record zero;
  zero.makespan = 0.0;
  EXPECT_TRUE(decode_record(zero).ok);
}

TEST(Snapshot, RejectsABandwidthNoBucketCanHave) {
  for (const double mbps : {0.0, -2.0, std::numeric_limits<double>::infinity(),
                            std::numeric_limits<double>::quiet_NaN()}) {
    Record r;
    r.bandwidth_mbps = mbps;
    const SnapshotLoadResult result = decode_record(r);
    EXPECT_FALSE(result.ok) << mbps;
    EXPECT_NE(result.error.find("bandwidth"), std::string::npos)
        << result.error;
  }
}

TEST(Snapshot, HugeEntryCountIsRejectedNotPreallocated) {
  // A CRC-valid header claiming 2^32 - 1 entries and holding none: decode
  // must reject it as truncated, not reserve room for every claimed entry
  // (a bad_alloc would escape the never-throws contract).
  std::string bytes = "JPSSNAP\n";
  put_le(bytes, kSnapshotVersion, 4);
  put_le(bytes, 0xFFFFFFFFu, 4);
  put_le(bytes, util::crc32(bytes), 4);
  ShardedPlanCache victim(1);
  SnapshotLoadResult result;
  EXPECT_NO_THROW(result = decode_cache_snapshot(bytes, victim));
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(victim.plan_count(), 0u);
}

TEST(Snapshot, VersionOneFileIsAColdStart) {
  // A v1 entry embedded the per-job "jps-plan v1" text after its key.
  const Record r;
  std::string entry = key_bytes(r);
  const std::string text = core::serialize_plan(
      core::Planner(partition::ProfileCurve::build(
                        models::build(r.model),
                        profile::LatencyModel(
                            profile::DeviceProfile::raspberry_pi_4b()),
                        net::Channel(r.bandwidth_mbps)))
          .plan(Strategy::kJPS, static_cast<int>(r.n_jobs)));
  put_le(entry, text.size(), 4);
  entry += text;
  const std::string path = ::testing::TempDir() + "/jps_snapshot_v1.bin";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    const std::string bytes = snapshot_bytes(1, {entry});
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  ShardedPlanCache cache(1);
  const SnapshotLoadResult result = load_cache_snapshot(cache, path);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("unsupported snapshot version 1"),
            std::string::npos)
      << result.error;
  EXPECT_EQ(cache.plan_count(), 0u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace jps::serve
