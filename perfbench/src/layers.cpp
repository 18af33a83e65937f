#include "layers.h"

#include <set>

#include "core/plan_cache.h"
#include "core/planner.h"
#include "net/channel.h"
#include "obs/flight_recorder.h"
#include "obs/obs.h"
#include "obs/trace_context.h"
#include "profile/device.h"
#include "serve/server.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace perfbench {

using jps::core::Planner;
using jps::serve::PlanReply;
using jps::serve::PlanRequest;
using Clock = std::chrono::steady_clock;

namespace {

// Inputs per layer: the first this-many distinct items of the workload.
constexpr std::size_t kMaxInputs = 256;

double bucket_of(const PlanRequest& r) {
  return jps::serve::quantize_bandwidth(r.bandwidth_mbps, kBucketMbps);
}

// The workload's first kMaxInputs requests with distinct plan keys.
std::vector<PlanRequest> distinct_requests(const std::vector<PlanRequest>& all) {
  std::set<std::string> seen;
  std::vector<PlanRequest> out;
  for (const PlanRequest& r : all) {
    if (out.size() == kMaxInputs) break;
    if (seen.insert(plan_key(r)).second) out.push_back(r);
  }
  return out;
}

void time_protocol(const std::vector<PlanRequest>& requests,
                   const std::vector<PlanReply>& replies,
                   std::map<std::string, double>& out) {
  std::vector<std::string> wire_requests;
  for (const PlanRequest& r : requests)
    wire_requests.push_back(jps::serve::encode_plan_request(r));
  std::vector<std::string> wire_replies;
  for (const PlanReply& r : replies)
    wire_replies.push_back(jps::serve::encode_plan_reply(r));

  out["serve.protocol.encode_request_ns"] = ns_per_op(requests.size(), [&] {
    for (const PlanRequest& r : requests)
      keep(jps::serve::encode_plan_request(r).size());
  });
  out["serve.protocol.decode_request_ns"] =
      ns_per_op(wire_requests.size(), [&] {
        for (const std::string& w : wire_requests)
          keep(jps::serve::decode_plan_request(w).n_jobs);
      });
  out["serve.protocol.encode_reply_ns"] = ns_per_op(replies.size(), [&] {
    for (const PlanReply& r : replies)
      keep(jps::serve::encode_plan_reply(r).size());
  });
  out["serve.protocol.decode_reply_ns"] = ns_per_op(wire_replies.size(), [&] {
    for (const std::string& w : wire_replies)
      keep(jps::serve::decode_plan_reply(w).makespan_ms);
  });
}

void time_core(const std::vector<PlanRequest>& requests, Verifier& verifier,
               std::map<std::string, double>& out) {
  const std::string device = jps::profile::DeviceProfile::raspberry_pi_4b().name;
  std::vector<const jps::partition::ProfileCurve*> curves;
  std::vector<Planner> planners;
  std::vector<jps::core::PlanCacheKey> keys;
  std::vector<jps::core::ExecutionPlan> plans;
  for (const PlanRequest& r : requests) {
    curves.push_back(&verifier.curve(r.model, bucket_of(r)));
    planners.emplace_back(*curves.back());
    keys.emplace_back(r.model, device, bucket_of(r), r.strategy, r.n_jobs);
    plans.push_back(planners.back().plan(r.strategy, r.n_jobs));
  }

  out["core.planner_ctor_us"] = ns_per_op(curves.size(), [&] {
                                  for (const auto* c : curves) {
                                    const Planner planner(*c);
                                    keep(planner);
                                  }
                                }) / 1000.0;

  for (const NamedStrategy& s : servable_strategies()) {
    out[std::string("core.plan_us.") + s.name] =
        ns_per_op(planners.size(), [&] {
          for (std::size_t i = 0; i < planners.size(); ++i)
            keep(planners[i].plan(s.strategy, requests[i].n_jobs)
                     .predicted_makespan);
        }) / 1000.0;
  }

  // Inserts: each pass fills a fresh cache by moving prebuilt plans in, so
  // only the miss path's lookup and insert are timed.
  std::vector<double> insert_us;
  for (int pass = 0; pass < 5; ++pass) {
    jps::core::ShardedPlanCache cache(8);
    std::vector<jps::core::ExecutionPlan> fresh = plans;
    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i < keys.size(); ++i)
      keep(cache.plan(keys[i], [&] { return std::move(fresh[i]); }).get());
    insert_us.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - start)
            .count() /
        static_cast<double>(keys.size()));
  }
  std::nth_element(insert_us.begin(), insert_us.begin() + 2, insert_us.end());
  out["core.cache_insert_us"] = insert_us[2];

  jps::core::ShardedPlanCache cache(8);
  for (std::size_t i = 0; i < keys.size(); ++i)
    keep(cache.plan(keys[i], [&] { return plans[i]; }).get());
  out["core.cache_hit_ns"] = ns_per_op(keys.size(), [&] {
    for (const jps::core::PlanCacheKey& k : keys)
      keep(cache.plan(k, [] { return jps::core::ExecutionPlan{}; }).get());
  });

  // The batched sweep over the workload's models and n_jobs values.
  std::vector<const PlanRequest*> sweeps;
  std::set<std::string> models;
  std::set<int> jobs;
  for (const PlanRequest& r : requests) {
    if (jobs.size() < 3) jobs.insert(r.n_jobs);
    if (models.insert(r.model).second) sweeps.push_back(&r);
  }
  std::vector<Planner> sweep_planners;
  for (const PlanRequest* r : sweeps)
    sweep_planners.emplace_back(verifier.curve(r->model, bucket_of(*r)));
  const std::vector<double> grid = sweep_grid();
  for (const NamedStrategy& s : servable_strategies()) {
    out[std::string("core.sweep_ns_per_point.") + s.name] =
        ns_per_op(sweep_planners.size() * jobs.size() * grid.size(), [&] {
          for (std::size_t m = 0; m < sweep_planners.size(); ++m) {
            const jps::net::Channel channel(bucket_of(*sweeps[m]));
            for (const int n : jobs)
              keep(sweep_planners[m]
                       .plan_sweep(s.strategy, n, grid, channel)
                       .makespan_ms.back());
          }
        });
  }
}

void time_util_and_obs(std::map<std::string, double>& out) {
  {
    jps::util::ThreadPool pool(4);
    out["util.pool_roundtrip_us"] = ns_per_op(1, [&] {
                                      keep(pool.submit([] { return 1; }).get());
                                    }) / 1000.0;
  }

  jps::obs::set_enabled(false);
  out["obs.span_ns.inert"] = ns_per_op(64, [] {
    for (int i = 0; i < 64; ++i) {
      jps::obs::Span span("serve.cache_lookup", "serve");
      keep(span.active());
    }
  });

  // Live: spans under a request trace with the flight recorder on, 32 per
  // trace (below the per-trace cap); finishing and draining traces is not
  // timed.
  jps::obs::FlightRecorder& recorder = jps::obs::FlightRecorder::global();
  recorder.reset();
  recorder.set_enabled(true);
  std::vector<double> batches;
  for (int b = 0; b < 5; ++b) {
    double ns = 0.0;
    std::size_t spans = 0;
    while (ns < 1e7) {
      const jps::obs::TraceContext context = jps::obs::TraceContext::start();
      {
        const jps::obs::TraceScope scope(context);
        const Clock::time_point start = Clock::now();
        for (int i = 0; i < 32; ++i) {
          jps::obs::Span span("serve.cache_lookup", "serve");
          keep(span.active());
        }
        ns += std::chrono::duration<double, std::nano>(Clock::now() - start)
                  .count();
        spans += 32;
      }
      recorder.finish(context, "OK", false, 0.0, 0.0);
      if (recorder.size() >= 64) keep(recorder.drain().size());
    }
    batches.push_back(ns / static_cast<double>(spans));
  }
  recorder.set_enabled(false);
  recorder.reset();
  std::nth_element(batches.begin(), batches.begin() + 2, batches.end());
  out["obs.span_ns.live"] = batches[2];
}

}  // namespace

std::map<std::string, double> time_layers(
    const std::vector<PlanRequest>& requests,
    const std::vector<PlanReply>& replies, Verifier& verifier) {
  std::map<std::string, double> out;
  const std::vector<PlanRequest> inputs = distinct_requests(requests);
  std::vector<PlanReply> reply_inputs(
      replies.begin(),
      replies.begin() + static_cast<std::ptrdiff_t>(
                            std::min(replies.size(), kMaxInputs)));
  time_protocol(inputs, reply_inputs, out);
  time_core(inputs, verifier, out);
  time_util_and_obs(out);
  return out;
}

}  // namespace perfbench
