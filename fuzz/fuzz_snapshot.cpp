// Fuzz the plan-cache snapshot decoder (serve/snapshot.h).
//
// decode_cache_snapshot has the strongest contract of all the parsers: it
// NEVER throws (a corrupt snapshot is a clean cold start, not a crashed
// server) and it is all-or-nothing (nothing is inserted unless the whole
// snapshot validates).  So this target runs WITHOUT a try/catch — any
// escaping exception is a finding — and checks:
//
//   * rejected  => a non-empty error and an untouched (empty) cache
//   * accepted  => re-encoding the populated cache and re-decoding it
//                  yields the same entry count and the same bytes again
//                  (round trip to a fixed point)
#include <cstdint>
#include <string>

#include "core/plan_cache.h"
#include "serve/snapshot.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  using jps::serve::SnapshotLoadResult;
  const std::string bytes(reinterpret_cast<const char*>(data), size);

  jps::core::ShardedPlanCache cache(4);
  const SnapshotLoadResult result =
      jps::serve::decode_cache_snapshot(bytes, cache);
  if (!result.ok) {
    if (result.error.empty()) __builtin_trap();
    if (cache.plan_count() != 0) __builtin_trap();  // all-or-nothing
    return 0;
  }
  if (result.entries != cache.plan_count()) __builtin_trap();

  const std::string reencoded = jps::serve::encode_cache_snapshot(cache);
  jps::core::ShardedPlanCache again(4);
  const SnapshotLoadResult second =
      jps::serve::decode_cache_snapshot(reencoded, again);
  if (!second.ok) __builtin_trap();
  if (again.plan_count() != cache.plan_count()) __builtin_trap();
  if (jps::serve::encode_cache_snapshot(again) != reencoded) __builtin_trap();
  return 0;
}
