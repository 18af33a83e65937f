// The serve tests' reply oracle: what Server must answer for a request,
// computed directly (ProfileCurve::build + Planner::plan), never through
// the serve path.
#pragma once

#include <cstdint>
#include <map>

#include "core/planner.h"
#include "models/registry.h"
#include "net/channel.h"
#include "partition/profile_curve.h"
#include "profile/latency_model.h"
#include "serve/protocol.h"
#include "serve/server.h"

namespace jps::serve {

/// The OK reply a direct Planner run gives for `request` at the bucket
/// `options` quantizes it to: bucket, makespan and ascending (cut, count)
/// mix.
inline PlanReply direct_reply(const ServerOptions& options,
                              const PlanRequest& request) {
  const double bucket = quantize_bandwidth(request.bandwidth_mbps,
                                           options.bandwidth_bucket_mbps);
  const profile::LatencyModel mobile(options.device);
  const auto curve = partition::ProfileCurve::build(
      models::build(request.model), mobile, net::Channel(bucket));
  const core::ExecutionPlan plan =
      core::Planner(curve).plan(request.strategy, request.n_jobs);
  PlanReply reply;
  reply.bandwidth_bucket_mbps = bucket;
  reply.makespan_ms = plan.predicted_makespan;
  std::map<std::uint32_t, std::uint32_t> mix;
  for (const core::JobAssignment& job : plan.jobs)
    ++mix[static_cast<std::uint32_t>(job.cut_index)];
  for (const auto& [cut, count] : mix) reply.mix.push_back({cut, count});
  return reply;
}

/// Whether `got` is OK and carries `want`'s makespan bits, bucket and mix.
inline bool same_plan(const PlanReply& got, const PlanReply& want) {
  return got.ok() && got.makespan_ms == want.makespan_ms &&
         got.bandwidth_bucket_mbps == want.bandwidth_bucket_mbps &&
         got.mix == want.mix;
}

}  // namespace jps::serve
