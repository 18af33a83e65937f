// Server semantics: bit-identity with the direct Planner, quantization,
// admission/backpressure statuses, drain, and the connection loop's
// guarantee that hostile frames produce error replies or clean closes —
// never an escaped exception.
#include "serve/server.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/planner.h"
#include "models/registry.h"
#include "net/channel.h"
#include "obs/flight_recorder.h"
#include "obs/obs.h"
#include "partition/profile_curve.h"
#include "profile/latency_model.h"
#include "serve/client.h"

namespace jps::serve {
namespace {

PlanRequest request_for(const std::string& model, double mbps, int jobs,
                        core::Strategy strategy = core::Strategy::kJPS) {
  PlanRequest request;
  request.tenant = "test";
  request.model = model;
  request.bandwidth_mbps = mbps;
  request.strategy = strategy;
  request.n_jobs = jobs;
  return request;
}

// The reply the server must reproduce, computed directly.
core::ExecutionPlan direct_plan(const ServerOptions& options,
                                const PlanRequest& request) {
  const double bucket = quantize_bandwidth(request.bandwidth_mbps,
                                           options.bandwidth_bucket_mbps);
  const dnn::Graph graph = models::build(request.model);
  const profile::LatencyModel mobile(options.device);
  const auto curve =
      partition::ProfileCurve::build(graph, mobile, net::Channel(bucket));
  return core::Planner(curve).plan(request.strategy, request.n_jobs);
}

// A plan's (cut -> count) mix in the reply's ascending order.
std::vector<CutMix> mix_of(const core::ExecutionPlan& plan) {
  std::map<std::uint32_t, std::uint32_t> counts;
  for (const core::JobAssignment& job : plan.jobs)
    ++counts[static_cast<std::uint32_t>(job.cut_index)];
  std::vector<CutMix> mix;
  for (const auto& [cut, count] : counts) mix.push_back({cut, count});
  return mix;
}

TEST(Quantize, SnapsToNearestBucketAndNeverZero) {
  EXPECT_DOUBLE_EQ(quantize_bandwidth(7.3, 0.25), 7.25);
  EXPECT_DOUBLE_EQ(quantize_bandwidth(7.4, 0.25), 7.5);
  EXPECT_DOUBLE_EQ(quantize_bandwidth(0.25, 0.25), 0.25);
  // Estimates that would round to zero snap up to one step.
  EXPECT_DOUBLE_EQ(quantize_bandwidth(0.01, 0.25), 0.25);
  EXPECT_DOUBLE_EQ(quantize_bandwidth(1e-9, 0.25), 0.25);
}

TEST(Server, ReplyIsBitIdenticalToDirectPlanner) {
  ServerOptions options;
  Server server(options);
  const PlanRequest request = request_for("alexnet", 9.87, 7);
  const PlanReply reply = server.handle_plan(request);
  ASSERT_TRUE(reply.ok()) << reply.message;

  const core::ExecutionPlan expected = direct_plan(options, request);
  EXPECT_EQ(reply.makespan_ms, expected.predicted_makespan);  // exact, not near
  EXPECT_DOUBLE_EQ(reply.bandwidth_bucket_mbps, 9.75);  // round(9.87/0.25)*0.25

  int total = 0;
  for (const CutMix& m : reply.mix) total += static_cast<int>(m.count);
  EXPECT_EQ(total, request.n_jobs);
}

TEST(Server, ExtremeBandwidthRepliesMatchAFreshCurvePerBucket) {
  // From about 1e15 Mbps up, distinct offload sizes round to one g and the
  // freshly built curve drops cuts; the reply must still be that curve's
  // plan, for every servable strategy.
  ServerOptions options;
  Server server(options);
  std::size_t checked = 0;
  for (const char* model : {"alexnet", "vgg16", "mobilenet_v2", "googlenet"}) {
    for (const double mbps : {1e16, 1e300}) {
      for (const core::Strategy strategy :
           {core::Strategy::kLocalOnly, core::Strategy::kCloudOnly,
            core::Strategy::kPartitionOnly, core::Strategy::kJPS,
            core::Strategy::kJPSTuned, core::Strategy::kJPSHull}) {
        const PlanRequest request = request_for(model, mbps, 7, strategy);
        const PlanReply reply = server.handle_plan(request);
        ASSERT_TRUE(reply.ok()) << reply.message;
        const core::ExecutionPlan expected = direct_plan(options, request);
        SCOPED_TRACE(::testing::Message() << model << " at " << mbps
                                          << " Mbps, "
                                          << core::strategy_name(strategy));
        EXPECT_EQ(reply.makespan_ms, expected.predicted_makespan);
        EXPECT_EQ(reply.mix, mix_of(expected));
        ++checked;
      }
    }
  }
  EXPECT_EQ(checked, 4u * 2u * 6u);
}

TEST(Server, AMissIsOnePlannerPlanAndAHitIsNone) {
  obs::Counter& plans = obs::counter("planner.plans");
  obs::Counter& curve_builds = obs::counter("curve.builds");
  Server server{ServerOptions{}};
  // The model's first miss builds its candidate lanes (one unclustered
  // curve); later misses build nothing.
  ASSERT_TRUE(server.handle_plan(request_for("resnet18", 3.0, 9)).ok());
  const PlanRequest request = request_for("resnet18", 12.3, 9);
  const std::uint64_t plans_before = plans.value();
  const std::uint64_t builds_before = curve_builds.value();

  const PlanReply miss = server.handle_plan(request);
  ASSERT_TRUE(miss.ok()) << miss.message;
  EXPECT_FALSE(miss.cache_hit);
  EXPECT_EQ(plans.value() - plans_before, 1u);

  const PlanReply hit = server.handle_plan(request);
  ASSERT_TRUE(hit.ok()) << hit.message;
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(plans.value() - plans_before, 1u);

  // The miss decided on the model's lanes: no curve built or cached for
  // its bucket.
  EXPECT_EQ(curve_builds.value(), builds_before);
  EXPECT_EQ(server.cache().curve_count(), 0u);
}

TEST(Server, NearbyBandwidthsShareABucketAndTheCache) {
  Server server{ServerOptions{}};
  const PlanReply a = server.handle_plan(request_for("alexnet", 10.05, 4));
  const PlanReply b = server.handle_plan(request_for("alexnet", 9.95, 4));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.bandwidth_bucket_mbps, b.bandwidth_bucket_mbps);
  EXPECT_EQ(a.makespan_ms, b.makespan_ms);
  EXPECT_FALSE(a.cache_hit);  // first computed it
  EXPECT_TRUE(b.cache_hit);   // second came from the sharded cache
  EXPECT_EQ(server.stats().plans_computed, 1u);
}

TEST(Server, InvalidArgumentsGetStatusesNotThrows) {
  Server server{ServerOptions{}};
  EXPECT_EQ(server
                .handle_plan(request_for(
                    "alexnet", std::numeric_limits<double>::quiet_NaN(), 4))
                .status,
            Status::kInvalidArgument);
  EXPECT_EQ(server.handle_plan(request_for("alexnet", -1.0, 4)).status,
            Status::kInvalidArgument);
  EXPECT_EQ(
      server
          .handle_plan(request_for(
              "alexnet", std::numeric_limits<double>::infinity(), 4))
          .status,
      Status::kInvalidArgument);
  // Finite, but its bucket overflows to +inf: refused before the cache key
  // (which requires a finite bandwidth) is ever built.
  EXPECT_EQ(server.handle_plan(request_for("alexnet", 1e308, 4)).status,
            Status::kInvalidArgument);
  EXPECT_EQ(server.handle_plan(request_for("alexnet", 10.0, 0)).status,
            Status::kInvalidArgument);
  EXPECT_EQ(server
                .handle_plan(request_for("alexnet", 10.0, 4,
                                         core::Strategy::kBruteForce))
                .status,
            Status::kInvalidArgument);
  EXPECT_EQ(
      server.handle_plan(request_for("alexnet", 10.0, 4,
                                     core::Strategy::kRobust))
          .status,
      Status::kInvalidArgument);
}

TEST(Server, UnknownModelIsNotFound) {
  Server server{ServerOptions{}};
  const PlanReply reply = server.handle_plan(request_for("not-a-model", 10, 4));
  EXPECT_EQ(reply.status, Status::kNotFound);
  EXPECT_FALSE(reply.message.empty());
}

TEST(Server, TenantRateLimitSheds) {
  ServerOptions options;
  options.tenant_rate_per_sec = 0.001;  // effectively no refill in-test
  options.tenant_burst = 2.0;
  Server server(options);
  EXPECT_TRUE(server.handle_plan(request_for("alexnet", 10, 1)).ok());
  EXPECT_TRUE(server.handle_plan(request_for("alexnet", 10, 1)).ok());
  const PlanReply shed = server.handle_plan(request_for("alexnet", 10, 1));
  EXPECT_EQ(shed.status, Status::kResourceExhausted);
  EXPECT_EQ(server.stats().shed_rate_limited, 1u);

  // A different tenant is admitted immediately.
  PlanRequest other = request_for("alexnet", 10, 1);
  other.tenant = "other";
  EXPECT_TRUE(server.handle_plan(other).ok());
}

TEST(Server, OverloadShedsWithResourceExhausted) {
  ServerOptions options;
  options.max_inflight = 1;
  options.debug_plan_delay_ms = 200.0;  // hold the leader's computation open
  Server server(options);

  std::thread leader(
      [&] { EXPECT_TRUE(server.handle_plan(request_for("alexnet", 5, 2)).ok()); });
  // Wait until the leader's computation occupies the single inflight slot.
  while (server.inflight() == 0) std::this_thread::yield();

  // A DIFFERENT key cannot start a second computation: shed, not queue.
  const PlanReply shed = server.handle_plan(request_for("alexnet", 50, 2));
  EXPECT_EQ(shed.status, Status::kResourceExhausted);
  EXPECT_EQ(server.stats().shed_overload, 1u);
  leader.join();

  // With the burst over, the previously shed key now computes fine.
  EXPECT_TRUE(server.handle_plan(request_for("alexnet", 50, 2)).ok());
}

TEST(Server, IdenticalConcurrentRequestsCoalesce) {
  ServerOptions options;
  options.debug_plan_delay_ms = 100.0;
  Server server(options);

  std::thread leader(
      [&] { EXPECT_TRUE(server.handle_plan(request_for("alexnet", 5, 2)).ok()); });
  while (server.inflight() == 0) std::this_thread::yield();

  // Same key while the leader holds it: joins the computation.
  const PlanReply follower = server.handle_plan(request_for("alexnet", 5, 2));
  leader.join();
  ASSERT_TRUE(follower.ok());
  EXPECT_TRUE(follower.coalesced);
  EXPECT_EQ(server.stats().coalesce_hits, 1u);
  EXPECT_EQ(server.stats().plans_computed, 1u);  // one Planner run for both
}

TEST(Server, FailingLeaderFailsItsFollowersToo) {
  ServerOptions options;
  options.debug_plan_delay_ms = 100.0;  // hold the leader open for a join
  Server server(options);
  const PlanRequest unknown = request_for("no-such-model", 5, 2);

  PlanReply leader_reply;
  std::thread leader([&] { leader_reply = server.handle_plan(unknown); });
  while (server.inflight() == 0) std::this_thread::yield();
  const PlanReply follower = server.handle_plan(unknown);
  leader.join();

  // The leader's exception reaches the follower through the shared future.
  EXPECT_EQ(leader_reply.status, Status::kNotFound);
  EXPECT_FALSE(leader_reply.coalesced);
  EXPECT_EQ(follower.status, Status::kNotFound);
  EXPECT_TRUE(follower.coalesced);
  EXPECT_EQ(server.stats().coalesce_hits, 1u);
  // The failed leader gave its slot back: the server is not wedged.
  EXPECT_EQ(server.inflight(), 0u);
  EXPECT_TRUE(server.handle_plan(request_for("alexnet", 5, 2)).ok());
  server.stop();
  EXPECT_TRUE(server.stopped());
}

TEST(Server, StopWaitsForAPendingLeader) {
  ServerOptions options;
  options.debug_plan_delay_ms = 100.0;  // the leader is mid-compute at stop()
  Server server(options);
  const PlanRequest request = request_for("alexnet", 6.0, 3);
  const core::PlanCacheKey key(request.model, options.device.name,
                               quantize_bandwidth(request.bandwidth_mbps,
                                                  options.bandwidth_bucket_mbps),
                               request.strategy, request.n_jobs);

  PlanReply reply;
  std::thread leader([&] { reply = server.handle_plan(request); });
  while (server.inflight() == 0) std::this_thread::yield();
  server.stop();

  // stop() returned only after the leader's decision reached the cache:
  // the exact key is there (nearest_plan reports the key's own bandwidth).
  EXPECT_EQ(server.inflight(), 0u);
  EXPECT_EQ(server.cache().plan_count(), 1u);
  double cached_mbps = 0.0;
  const auto cached = server.cache().nearest_plan(key, &cached_mbps);
  ASSERT_NE(cached, nullptr);
  EXPECT_EQ(cached_mbps, key.bandwidth_mbps);
  leader.join();
  ASSERT_TRUE(reply.ok()) << reply.message;
  EXPECT_EQ(cached->predicted_makespan, reply.makespan_ms);
  EXPECT_EQ(cached->mix(request.n_jobs), reply.mix);
}

TEST(Server, StopDrainsAndRefusesNewWork) {
  Server server{ServerOptions{}};
  EXPECT_TRUE(server.handle_plan(request_for("alexnet", 10, 2)).ok());
  ASSERT_TRUE(server.handle_plan(request_for("alexnet", 10, 2)).cache_hit);
  server.stop();
  EXPECT_TRUE(server.stopped());
  // Refused even though the key is cached: the drain check comes first.
  const PlanReply reply = server.handle_plan(request_for("alexnet", 10, 2));
  EXPECT_EQ(reply.status, Status::kUnavailable);
  EXPECT_EQ(server.stats().cache_hits, 1u);
  server.stop();  // idempotent
}

// ---- cache hits answered on the connection thread -----------------------

TEST(Server, CachedKeyIsAnsweredInlineWithoutAPoolTask) {
  obs::FlightRecorder& recorder = obs::FlightRecorder::global();
  recorder.reset();
  ServerOptions options;
  options.flight_recorder_sample_every = 1;  // retain the miss's trace
  Server server(options);
  const PlanRequest request = request_for("alexnet", 7.3, 6);

  // Neither a miss nor a hit hands work to a pool: the leader plans on the
  // calling thread, and a hit is answered there.
  const obs::Counter& pool_tasks = obs::counter("thread_pool.tasks");
  const std::uint64_t before_miss = pool_tasks.value();
  const PlanReply miss = server.handle_plan(request);
  EXPECT_EQ(pool_tasks.value() - before_miss, 0u);
  ASSERT_TRUE(miss.ok()) << miss.message;
  EXPECT_FALSE(miss.cache_hit);

  // The miss's plan_compute span ran on its root span's thread, and there
  // is no wait span: nothing was handed off.
  const std::vector<obs::TraceRecord> traces = recorder.drain();
  ASSERT_EQ(traces.size(), 1u);
  const obs::SpanRecord* root = nullptr;
  const obs::SpanRecord* compute = nullptr;
  for (const obs::SpanRecord& span : traces[0].spans) {
    if (span.name == "serve.request") root = &span;
    if (span.name == "serve.plan_compute") compute = &span;
    EXPECT_NE(span.name, "serve.plan_wait");
  }
  ASSERT_NE(root, nullptr);
  ASSERT_NE(compute, nullptr);
  EXPECT_EQ(compute->thread, root->thread);

  const std::uint64_t before_hit = pool_tasks.value();
  const PlanReply hit = server.handle_plan(request);
  EXPECT_EQ(pool_tasks.value() - before_hit, 0u);
  ASSERT_TRUE(hit.ok()) << hit.message;
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_FALSE(hit.coalesced);

  const core::ExecutionPlan expected = direct_plan(options, request);
  EXPECT_EQ(hit.makespan_ms, expected.predicted_makespan);  // exact
  EXPECT_EQ(hit.mix, mix_of(expected));
  EXPECT_DOUBLE_EQ(hit.bandwidth_bucket_mbps, 7.25);

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.plans_computed, 1u);
  EXPECT_EQ(server.inflight(), 0u);
  recorder.reset();
}

TEST(Server, CachedKeyIsAnsweredWhileTheInflightBoundIsFull) {
  ServerOptions options;
  options.max_inflight = 1;
  options.debug_plan_delay_ms = 200.0;  // hold each leader's computation open
  Server server(options);
  const PlanRequest cached = request_for("alexnet", 10, 2);
  ASSERT_TRUE(server.handle_plan(cached).ok());  // prime the cache

  std::thread leader(
      [&] { EXPECT_TRUE(server.handle_plan(request_for("alexnet", 5, 2)).ok()); });
  while (server.inflight() == 0) std::this_thread::yield();

  // The only inflight slot is taken, yet a cached key still answers: hits
  // never take a slot.  A key that needs a computation is shed.
  const PlanReply hit = server.handle_plan(cached);
  EXPECT_TRUE(hit.ok()) << hit.message;
  EXPECT_TRUE(hit.cache_hit);
  const PlanReply shed = server.handle_plan(request_for("alexnet", 50, 2));
  EXPECT_EQ(shed.status, Status::kResourceExhausted);
  leader.join();

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.shed_overload, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);
}

TEST(Server, OpenBreakerServesStaleEvenForACachedKey) {
  ServerOptions options;
  options.debug_plan_delay_ms = 10.0;  // planning always outlives 2 ms
  options.breaker.window = 8;
  options.breaker.min_samples = 4;
  options.breaker.failure_ratio = 0.5;
  options.breaker.cooldown_ms = 60'000.0;  // stays open for the whole test
  Server server(options);

  // Another tenant caches the key, so the victim's window holds failures
  // only.
  PlanRequest cached = request_for("alexnet", 10.0, 4);
  cached.tenant = "healthy";
  const PlanReply fresh = server.handle_plan(cached);
  ASSERT_TRUE(fresh.ok());
  cached.tenant = "victim";

  // Trip the victim's breaker with planner-too-slow failures on fresh
  // buckets.
  for (int i = 0; i < 4; ++i) {
    PlanRequest doomed = request_for("alexnet", 20.0 + 10.0 * i, 4);
    doomed.tenant = "victim";
    doomed.deadline_ms = 2.0;
    ASSERT_EQ(server.handle_plan(doomed).status, Status::kDeadlineExceeded);
  }
  const std::uint64_t hits_before = server.stats().cache_hits;

  // The exact key is cached, but the breaker gate comes before the cache
  // lookup: the answer is the degraded-mode reply, labeled stale.
  const PlanReply reply = server.handle_plan(cached);
  EXPECT_EQ(reply.status, Status::kOkStale);
  EXPECT_TRUE(reply.stale);
  EXPECT_DOUBLE_EQ(reply.bandwidth_bucket_mbps, 10.0);
  EXPECT_EQ(reply.makespan_ms, fresh.makespan_ms);
  EXPECT_EQ(server.stats().cache_hits, hits_before);
  EXPECT_EQ(server.stats().stale_served, 1u);
}

TEST(Server, RequestsSplitIntoHitsComputationsAndJoins) {
  ServerOptions options;
  options.debug_plan_delay_ms = 100.0;
  Server server(options);
  const PlanRequest a = request_for("alexnet", 5, 2);
  const PlanRequest b = request_for("nin", 5, 2);

  // Miss + coalesced join on key a.
  std::thread leader([&] { EXPECT_TRUE(server.handle_plan(a).ok()); });
  while (server.inflight() == 0) std::this_thread::yield();
  const PlanReply joined = server.handle_plan(a);
  leader.join();
  EXPECT_TRUE(joined.coalesced);

  // Two hits on a, a miss on b, a hit on b.
  EXPECT_TRUE(server.handle_plan(a).cache_hit);
  EXPECT_TRUE(server.handle_plan(a).cache_hit);
  EXPECT_FALSE(server.handle_plan(b).cache_hit);
  EXPECT_TRUE(server.handle_plan(b).cache_hit);

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.requests, 6u);
  EXPECT_EQ(stats.cache_hits, 3u);
  EXPECT_EQ(stats.plans_computed, 2u);
  EXPECT_EQ(stats.coalesce_hits, 1u);
  EXPECT_EQ(stats.requests,
            stats.cache_hits + stats.plans_computed + stats.coalesce_hits);
}

// ---- deadlines (tentpole: deadline propagation) -------------------------

TEST(Server, ExpiredDeadlineIsRefusedAtAdmission) {
  ServerOptions options;
  options.debug_admission_delay_ms = 5.0;  // arrival -> check takes >= 5 ms
  Server server(options);

  PlanRequest request = request_for("alexnet", 10, 2);
  request.deadline_ms = 0.5;  // long gone by the time admission looks
  const PlanReply refused = server.handle_plan(request);
  EXPECT_EQ(refused.status, Status::kDeadlineExceeded);

  // No deadline means no refusal, same knobs.
  request.deadline_ms = 0.0;
  EXPECT_TRUE(server.handle_plan(request).ok());
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.deadline_exceeded, 1u);
  // The refused request never reached the planner.
  EXPECT_EQ(stats.plans_computed, 1u);
}

TEST(Server, DeadlinePassingDuringPlanningStillCachesThePlan) {
  ServerOptions options;
  options.debug_plan_delay_ms = 20.0;  // planning outlives the deadline
  Server server(options);

  PlanRequest request = request_for("alexnet", 10, 2);
  request.deadline_ms = 5.0;
  const PlanReply late = server.handle_plan(request);
  EXPECT_EQ(late.status, Status::kDeadlineExceeded);

  // The computation was not wasted: a later request hits the cache.
  request.deadline_ms = 0.0;
  const PlanReply cached = server.handle_plan(request);
  EXPECT_TRUE(cached.ok());
  EXPECT_TRUE(cached.cache_hit);
  EXPECT_EQ(server.stats().plans_computed, 1u);
}

TEST(Server, InvalidDeadlinesAreInvalidArgument) {
  Server server{ServerOptions{}};
  for (const double bad :
       {std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity(), -1.0}) {
    PlanRequest request = request_for("alexnet", 10, 2);
    request.deadline_ms = bad;
    EXPECT_EQ(server.handle_plan(request).status, Status::kInvalidArgument)
        << bad;
  }
}

// ---- circuit breaker + degraded mode (tentpole) -------------------------

TEST(Server, OpenBreakerServesStaleFromTheNearestBucket) {
  ServerOptions options;
  options.debug_plan_delay_ms = 10.0;  // planning always outlives 2 ms
  options.breaker.window = 8;
  options.breaker.min_samples = 4;
  options.breaker.failure_ratio = 0.5;
  options.breaker.cooldown_ms = 60'000.0;  // stays open for the whole test
  Server server(options);

  // Prime the cache at bucket 10.0 with a healthy tenant.
  PlanRequest prime = request_for("alexnet", 10.0, 4);
  prime.tenant = "healthy";
  const PlanReply fresh = server.handle_plan(prime);
  ASSERT_TRUE(fresh.ok());

  // Trip the victim tenant's breaker: each request plans a FRESH bucket
  // (no cache rescue), so the 10 ms planner run outlives the 2 ms budget
  // and the reply lands as kDeadlineExceeded — a recorded server-health
  // failure.
  for (int i = 0; i < 4; ++i) {
    PlanRequest doomed = request_for("alexnet", 20.0 + 10.0 * i, 4);
    doomed.tenant = "victim";
    doomed.deadline_ms = 2.0;
    ASSERT_EQ(server.handle_plan(doomed).status, Status::kDeadlineExceeded);
  }

  // Open breaker, nearby bucket asked for: a stale plan, clearly labeled.
  PlanRequest degraded = request_for("alexnet", 12.0, 4);
  degraded.tenant = "victim";
  const PlanReply stale = server.handle_plan(degraded);
  EXPECT_EQ(stale.status, Status::kOkStale);
  EXPECT_TRUE(stale.stale);
  EXPECT_TRUE(stale.has_plan());
  EXPECT_DOUBLE_EQ(stale.bandwidth_bucket_mbps, 10.0);  // the primed bucket
  EXPECT_DOUBLE_EQ(stale.makespan_ms, fresh.makespan_ms);

  // Open breaker but nothing cached for that shape: UNAVAILABLE, not OK.
  PlanRequest uncached = request_for("nin", 10.0, 4);
  uncached.tenant = "victim";
  EXPECT_EQ(server.handle_plan(uncached).status, Status::kUnavailable);

  // The healthy tenant is untouched (per-tenant isolation).
  EXPECT_TRUE(server.handle_plan(prime).ok());

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.breaker_opens, 1u);
  EXPECT_GE(stats.stale_served, 1u);
  EXPECT_GE(stats.deadline_exceeded, 4u);
}

TEST(Server, BreakerCanBeDisabled) {
  ServerOptions options;
  options.debug_plan_delay_ms = 10.0;
  options.breaker_enabled = false;
  options.breaker.window = 8;
  options.breaker.min_samples = 4;
  options.breaker.failure_ratio = 0.5;
  Server server(options);

  // A failure pattern that WOULD open the small breaker above.
  for (int i = 0; i < 5; ++i) {
    PlanRequest doomed = request_for("alexnet", 20.0 + 10.0 * i, 4);
    doomed.tenant = "victim";
    doomed.deadline_ms = 2.0;
    ASSERT_EQ(server.handle_plan(doomed).status, Status::kDeadlineExceeded);
  }

  // With the breaker off the tenant still gets fresh (non-stale) answers.
  PlanRequest request = request_for("alexnet", 20.0, 4);
  request.tenant = "victim";
  const PlanReply reply = server.handle_plan(request);
  EXPECT_TRUE(reply.ok());
  EXPECT_FALSE(reply.stale);
  EXPECT_EQ(server.stats().breaker_opens, 0u);
}

// ---- one wire version ---------------------------------------------------

// A v1 frame (no deadline, no trace context) or v2 frame (no trace
// context), byte for byte as an old client sent it.
std::string old_plan_frame(std::uint8_t version, const PlanRequest& request) {
  std::string frame = encode_plan_request(request);
  frame.resize(frame.size() - 24 - (version == 1 ? 8 : 0));
  frame[1] = static_cast<char>(version);
  return frame;
}

TEST(Connection, OldVersionFramesGetOneInvalidArgumentReplyEach) {
  Server server{ServerOptions{}};
  StreamPair pair = make_in_process_pair();
  std::thread conn([&] { server.handle_connection(*pair.first); });

  for (const std::uint8_t version : {std::uint8_t{1}, std::uint8_t{2}}) {
    write_frame(*pair.second,
                old_plan_frame(version, request_for("alexnet", 10, 4)));
    const auto refusal = read_frame(*pair.second);
    ASSERT_TRUE(refusal.has_value());
    const PlanReply reply = decode_plan_reply(*refusal);
    EXPECT_EQ(reply.status, Status::kInvalidArgument) << int(version);
    EXPECT_NE(reply.message.find("version 3"), std::string::npos)
        << reply.message;

    // Exactly one reply: the next v3 request on the same connection gets
    // its own answer, and it is OK.
    write_frame(*pair.second,
                encode_plan_request(request_for("alexnet", 10, 4)));
    const auto answer = read_frame(*pair.second);
    ASSERT_TRUE(answer.has_value());
    EXPECT_TRUE(decode_plan_reply(*answer).ok());
  }

  pair.second->close();
  conn.join();
  EXPECT_EQ(server.stats().protocol_errors, 2u);
  // The refused frames never reached planning.
  EXPECT_EQ(server.stats().requests, 2u);
}

// ---- connection-loop negative paths (satellite: protocol robustness) ----

TEST(Connection, PlanAndPingOverTheWire) {
  Server server{ServerOptions{}};
  StreamPair pair = make_in_process_pair();
  std::thread conn([&] { server.handle_connection(*pair.first); });
  Client client(std::move(pair.second));
  EXPECT_TRUE(client.ping());
  const PlanReply reply = client.plan(request_for("alexnet", 10, 4));
  EXPECT_TRUE(reply.ok());
  client.close();
  conn.join();
}

TEST(Connection, UnknownModelAndBadBandwidthAreRepliesNotDisconnects) {
  Server server{ServerOptions{}};
  StreamPair pair = make_in_process_pair();
  std::thread conn([&] { server.handle_connection(*pair.first); });
  Client client(std::move(pair.second));

  EXPECT_EQ(client.plan(request_for("no-such-model", 10, 4)).status,
            Status::kNotFound);
  EXPECT_EQ(client
                .plan(request_for("alexnet",
                                  std::numeric_limits<double>::quiet_NaN(), 4))
                .status,
            Status::kInvalidArgument);
  EXPECT_EQ(client.plan(request_for("alexnet", 1e308, 4)).status,
            Status::kInvalidArgument);
  // The connection survived every error.
  EXPECT_TRUE(client.plan(request_for("alexnet", 10, 4)).ok());
  client.close();
  conn.join();
}

TEST(Connection, MalformedPayloadGetsErrorReplyAndConnectionSurvives) {
  Server server{ServerOptions{}};
  StreamPair pair = make_in_process_pair();
  std::thread conn([&] { server.handle_connection(*pair.first); });

  // A well-framed payload that decodes as no known request.
  write_frame(*pair.second, "garbage-bytes");
  const auto reply_payload = read_frame(*pair.second);
  ASSERT_TRUE(reply_payload.has_value());
  EXPECT_EQ(decode_plan_reply(*reply_payload).status,
            Status::kInvalidArgument);

  // A reply op sent TO the server is equally malformed from its viewpoint.
  write_frame(*pair.second, encode_ping_reply());
  const auto reply2 = read_frame(*pair.second);
  ASSERT_TRUE(reply2.has_value());
  EXPECT_EQ(decode_plan_reply(*reply2).status, Status::kInvalidArgument);

  // Still alive afterwards.
  Client client(std::move(pair.second));
  EXPECT_TRUE(client.ping());
  client.close();
  conn.join();
  EXPECT_GE(server.stats().protocol_errors, 2u);
}

TEST(Connection, TruncatedLengthPrefixClosesConnectionQuietly) {
  Server server{ServerOptions{}};
  StreamPair pair = make_in_process_pair();
  std::thread conn([&] { server.handle_connection(*pair.first); });
  pair.second->write("\x10\x00", 2);  // half a prefix
  pair.second->close();
  conn.join();  // loop must exit, not throw
  EXPECT_EQ(server.stats().protocol_errors, 1u);
}

TEST(Connection, OversizedFrameClosesConnectionQuietly) {
  Server server{ServerOptions{}};
  StreamPair pair = make_in_process_pair();
  std::thread conn([&] { server.handle_connection(*pair.first); });
  pair.second->write("\xFF\xFF\xFF\x7F", 4);  // ~2 GiB announcement
  // The server hangs up; our next read sees EOF.
  char b;
  EXPECT_EQ(pair.second->read(&b, 1), 0u);
  conn.join();
  EXPECT_EQ(server.stats().protocol_errors, 1u);
}

TEST(Connection, StopHalfClosesActiveConnections) {
  Server server{ServerOptions{}};
  StreamPair pair = make_in_process_pair();
  std::thread conn([&] { server.handle_connection(*pair.first); });
  Client client(std::move(pair.second));
  EXPECT_TRUE(client.ping());  // connection is up and registered
  server.stop();               // half-closes the server side
  conn.join();                 // loop exited at the frame boundary
}

}  // namespace
}  // namespace jps::serve
