// The traced run's per-layer split: drain the daemon's flight recorder,
// join each server trace to its client round trip by trace id, and divide
// every joined round trip among the layers.
//
// Self time.  Each instant of a request's server-side root span
// ("serve.request") is given to exactly one span: the deepest span that
// covers it.  Where a wait span (serve.plan_wait, serve.coalesce_wait) and
// the pool-side work it waits for (serve.plan_compute, a sibling running on
// another thread) cover the same instant at the same depth, the work gets
// it.  A span's self time is the total it was given, so per request
//
//   sum over spans of self time  ==  root span duration
//   root span duration + serve.unattributed_us  ==  client round trip
//
// and the layers add up to the round trip by construction.  The benchmark
// checks the identity for every joined request within kSumToleranceUs.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "load.h"
#include "obs/flight_recorder.h"
#include "serve/client.h"

namespace perfbench {

/// Allowed |sum of self times + unattributed - round trip| per request.
inline constexpr double kSumToleranceUs = 0.01;

/// Drain every retained trace from the daemon (TRACE_DUMP until none
/// remain).
[[nodiscard]] std::vector<jps::obs::TraceRecord> drain_traces(
    jps::serve::Client& client);

/// Per-request self times (us) of each span name, over the requests whose
/// trace contains that span.
struct LayerSplit {
  std::map<std::string, std::vector<double>> self_us;
  std::vector<double> unattributed_us;
  std::size_t records = 0;          ///< traces drained
  std::size_t invalid_records = 0;  ///< traces failing obs::validate_trace
  std::size_t joined = 0;           ///< OK samples whose trace was drained
  std::size_t ok_samples = 0;
  std::size_t sum_violations = 0;   ///< joined requests off by > tolerance
  double max_sum_error_us = 0.0;
  std::string first_problem;
};

/// Join `samples` to `records` and split each joined round trip.
[[nodiscard]] LayerSplit split_layers(
    const std::vector<Sample>& samples,
    const std::vector<jps::obs::TraceRecord>& records);

/// Self times of every span named `name` across `records` (joined or not):
/// the warm-up's curve builds are measured this way.
[[nodiscard]] std::vector<double> span_self_us(
    const std::vector<jps::obs::TraceRecord>& records, const std::string& name);

}  // namespace perfbench
