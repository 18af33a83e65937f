// Closed-loop load against a daemon, and verification of its replies.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "dnn/graph.h"
#include "partition/profile_curve.h"
#include "serve/client.h"
#include "serve/protocol.h"

namespace perfbench {

/// Client read timeout: a daemon that stops answering fails the run.
inline constexpr double kReadTimeoutMs = 10000.0;

/// A client connected to the daemon on 127.0.0.1:`port`, with the read
/// timeout armed.
[[nodiscard]] std::unique_ptr<jps::serve::Client> connect(std::uint16_t port);

/// One timed request as the client saw it.
struct Sample {
  bool sent = false;
  bool ok = false;                ///< an OK reply arrived
  double round_trip_us = 0.0;     ///< send to reply (connect included on churn)
  double connect_us = 0.0;        ///< churn only
  std::uint64_t trace_hi = 0;     ///< the request's client-side trace id
  std::uint64_t trace_lo = 0;
  jps::serve::PlanReply reply;
  std::string error;              ///< transport/timeout failure, if any
};

struct LoadResult {
  std::vector<Sample> samples;  ///< parallel to the requests
  double window_s = 0.0;        ///< first send to last reply
  std::size_t attempted = 0;
  std::size_t ok = 0;
  [[nodiscard]] std::size_t failed() const { return attempted - ok; }
};

/// Drive `requests` through `connections` closed-loop clients (each waits
/// for its reply before sending again).  Connection c sends requests c,
/// c + connections, ...  Persistent connections are opened before the
/// window starts; with `churn` every request connects, plans and closes.
/// Every request runs under its own client-side obs::TraceContext, which
/// Client::plan stamps onto the wire.
[[nodiscard]] LoadResult run_load(
    std::uint16_t port, const std::vector<jps::serve::PlanRequest>& requests,
    std::size_t connections, bool churn);

/// Send `requests` one after another on one connection.
[[nodiscard]] std::vector<jps::serve::PlanReply> run_sequential(
    jps::serve::Client& client,
    const std::vector<jps::serve::PlanRequest>& requests);

/// Daemon counters from a STATS scrape.
using Counters = std::map<std::string, double>;
[[nodiscard]] Counters scrape_counters(jps::serve::Client& client);
[[nodiscard]] double delta(const Counters& after, const Counters& before,
                           const std::string& name);

/// Checks replies against a direct in-process Planner::plan at the reply's
/// bucket, on curves built exactly as the daemon builds them.  Curves and
/// expected answers are memoized, so one Verifier serves a whole run.
class Verifier {
 public:
  /// Empty when `reply` is the plan Planner::plan gives for `request`: the
  /// bucket the daemon's quantization gives, a bit-identical makespan and
  /// an equal cut mix.  Otherwise a description of the mismatch.
  [[nodiscard]] std::string check(const jps::serve::PlanRequest& request,
                                  const jps::serve::PlanReply& reply);

  /// The curve the daemon plans `model` on at `bucket_mbps`.
  [[nodiscard]] const jps::partition::ProfileCurve& curve(
      const std::string& model, double bucket_mbps);

 private:
  struct Expected {
    double makespan_ms = 0.0;
    std::vector<jps::serve::CutMix> mix;
  };
  std::map<std::string, std::shared_ptr<const jps::dnn::Graph>> graphs_;
  std::unordered_map<std::string,
                     std::unique_ptr<jps::partition::ProfileCurve>>
      curves_;
  std::unordered_map<std::string, Expected> expected_;
};

/// The reply's (cut -> count) mix of a plan, ascending by cut, exactly as
/// the server aggregates it.
[[nodiscard]] std::vector<jps::serve::CutMix> cut_mix(
    const std::vector<std::size_t>& job_cuts);

}  // namespace perfbench
