// Layers without a span of their own, timed from outside by calling their
// public functions on the workload's own inputs.
#pragma once

#include <algorithm>
#include <chrono>
#include <map>
#include <string>
#include <vector>

#include "load.h"
#include "serve/protocol.h"

namespace perfbench {

/// Per-layer metric name -> value, for serve.protocol.*, core.cache_hit_ns,
/// core.cache_insert_us, core.planner_ctor_us, core.plan_us.<strategy>,
/// core.sweep_ns_per_point.<strategy>, util.pool_roundtrip_us and
/// obs.span_ns.{live,inert}.  `replies` are OK replies the daemon sent for
/// some of `requests` (the reply codecs are timed on them).
[[nodiscard]] std::map<std::string, double> time_layers(
    const std::vector<jps::serve::PlanRequest>& requests,
    const std::vector<jps::serve::PlanReply>& replies, Verifier& verifier);

/// Keep `value` alive through the optimizer.
template <typename T>
inline void keep(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

/// Median per-operation time (ns) of `body`, which performs `ops`
/// operations per call, over five batches of at least 10 ms each.
template <typename F>
[[nodiscard]] double ns_per_op(std::size_t ops, F&& body) {
  using Clock = std::chrono::steady_clock;
  std::vector<double> batches;
  for (int b = 0; b < 5; ++b) {
    std::size_t calls = 0;
    const Clock::time_point start = Clock::now();
    double elapsed_ns = 0.0;
    do {
      body();
      ++calls;
      elapsed_ns =
          std::chrono::duration<double, std::nano>(Clock::now() - start)
              .count();
    } while (elapsed_ns < 1e7);
    batches.push_back(elapsed_ns / static_cast<double>(calls * ops));
  }
  std::nth_element(batches.begin(), batches.begin() + 2, batches.end());
  return batches[2];
}

}  // namespace perfbench
