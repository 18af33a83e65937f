// The multi-tenant plan server: admission, coalescing, caching, backpressure.
//
// A fleet of mobile devices keeps asking one question — "given my model, my
// device class and my current uplink, how should I split and order my
// jobs?" — and the answer is a pure function of (model, strategy, n_jobs,
// bandwidth).  This server turns the repo's Planner into a long-running
// service around that purity:
//
//   * Bandwidth quantization — live uplink estimates are noisy; requests
//     are snapped to `bandwidth_bucket_mbps` buckets so nearby estimates
//     share one answer.  The reply reports the bucket actually planned at.
//   * Plan caching — completed answers land in a ShardedPlanCache as
//     fixed-size PlanDecisions (two cuts, a split, the makespan), so a
//     cached key costs the same at any n_jobs.  A miss runs core::decide
//     on the bucket's lanes, derived from the model's CandidateLanes: no
//     per-bucket curve, no Planner or plan, and nothing kept per bucket
//     but the decision.
//     Once a request has passed every gate (drain, validation, deadlines,
//     tenant admission, breaker), a cached key is answered right on the
//     connection thread: a lock-striped lookup, no inflight slot, the
//     reply's mix copied from the decision.
//   * Request coalescing — concurrent cache MISSES for the same (model,
//     strategy, n_jobs, bucket) share ONE decision via a shared_future
//     map keyed by the cache key: the first arrival (the leader) plans on
//     its own thread, no lock held, and fulfils that future for everyone
//     else.
//   * Admission control — a token bucket per tenant id sheds chatty tenants
//     with RESOURCE_EXHAUSTED before any planning work is queued.
//   * Backpressure — at most `max_inflight` distinct computations may be in
//     flight; beyond that new leaders are shed with RESOURCE_EXHAUSTED
//     instead of queueing unboundedly ("fail fast beats fail late").  Cache
//     hits take no slot, so they are never shed for overload.
//
// Transport: handle_connection() speaks the serve/protocol.h framing over
// any ByteStream, so tests drive the full server through in-process pipes
// and serve() runs the same loop over a Listener's accepted sockets.  The
// connection loop never lets an exception escape: malformed payloads, and
// frames at any protocol version but kVersion, get an error reply;
// unframeable streams are closed.  serve() runs connections on
// reused threads (leader/followers): idle threads block in accept(), and a
// thread that takes a connection while no other thread waits there starts
// one more first (unless a served connection is ending: its peer closed,
// left nothing unread and acknowledged every reply), so the thread count
// stays at the peak number of concurrent connections plus one and no
// thread is created per connection.
//
// Resilience (PR 8 — see docs/ROBUSTNESS.md "Serve-path resilience"):
//   * Deadlines — a request may carry a relative deadline_ms budget,
//     checked at admission, before planning, and again before the reply;
//     an expired request answers kDeadlineExceeded immediately instead of
//     occupying the planner (a computed plan still lands in the cache).
//   * Circuit breaker — per-tenant rolling failure window (serve/breaker.h);
//     when open, requests skip planning and degrade to the nearest-
//     bandwidth stale plan from the cache, tagged kOkStale.  No stale
//     candidate => kUnavailable.
//
// Observability (PR 10 — see docs/OBSERVABILITY.md "Request tracing"):
//   * Tracing — every request runs under an obs::TraceContext (adopted from
//     the frame's trace fields, or minted fresh), so its admission /
//     cache-lookup / plan-compute or coalesce-wait / encode spans form one
//     causal tree.  Every request's tree stays on its connection thread: a
//     leader plans there, a follower waits there.
//   * Flight recorder — completed traces are retained tail-based in the
//     process-wide obs::FlightRecorder (errors + latency outliers always,
//     the rest sampled) until a kTraceDump drains them.
//   * Introspection — kStats answers with a live MetricsSnapshot as JSON;
//     kTraceDump drains recorded traces; both are served inline on the
//     connection thread without touching the planner.
//
// Drain: stop() flips the server to UNAVAILABLE (no new leader), half-closes
// the read side of every active connection (loops exit at the next frame
// boundary while in-flight replies still flow out; a connection registered
// after that is half-closed at registration), then waits until no leader is
// pending: every admitted plan is cached before stop() returns.  serve()
// runs stop() once its listener closes, then joins every connection thread.
//
// Replies are bit-identical to a direct
//   Planner(ProfileCurve::build(models::build(m), LatencyModel(device),
//                               Channel(bucket))).plan(strategy, n)
// — the serve layer adds routing, never arithmetic (CandidateLanes::at
// reproduces that curve's lanes bit for bit).  Metrics: see
// docs/SERVING.md for the instrument table.
#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/plan_cache.h"
#include "partition/profile_curve.h"
#include "profile/device.h"
#include "serve/admission.h"
#include "serve/breaker.h"
#include "serve/protocol.h"
#include "serve/transport.h"
#include "util/mutex.h"

namespace jps::serve {

/// Round `bandwidth_mbps` to the nearest positive multiple of `step_mbps`
/// (the bucket all coalescing/caching keys on).  A rounded-to-zero estimate
/// snaps up to one step so the planner never sees a zero-bandwidth channel.
/// Precondition: both arguments finite and > 0.
[[nodiscard]] double quantize_bandwidth(double bandwidth_mbps,
                                        double step_mbps);

struct ServerOptions {
  /// Bound on distinct computations in flight; further leaders are shed
  /// with RESOURCE_EXHAUSTED.  Cache hits never take a slot.  Clamped to
  /// at least 1.
  std::size_t max_inflight = 8;
  /// Bandwidth quantization step (Mbps).
  double bandwidth_bucket_mbps = 0.25;
  /// Per-tenant admission rate; <= 0 disables admission control.
  double tenant_rate_per_sec = 0.0;
  /// Per-tenant burst allowance (token bucket capacity).
  double tenant_burst = 16.0;
  /// Lock stripes of the plan cache.
  std::size_t cache_shards = 8;
  /// Device whose latency model plans are computed against.
  profile::DeviceProfile device = profile::DeviceProfile::raspberry_pi_4b();
  /// Per-tenant circuit breaker (degraded mode).  The defaults need >= 8
  /// failed outcomes in a 32-request window, which no healthy workload
  /// reaches; set breaker_enabled = false to disable entirely.
  bool breaker_enabled = true;
  BreakerOptions breaker{};
  /// Test hook: artificial delay inside each miss's decision (ms).  Lets tests
  /// hold a leader's computation open deterministically to observe
  /// coalescing and overload shedding.  0 in production.
  double debug_plan_delay_ms = 0.0;
  /// Test hook: artificial delay before the admission deadline check (ms).
  /// Lets tests expire a request's deadline deterministically server-side.
  double debug_admission_delay_ms = 0.0;
  /// Request-scoped tracing into the process-wide obs::FlightRecorder.
  /// When enabled (default), every request runs under a TraceContext, its
  /// spans are collected per trace, and completed traces are retained
  /// tail-based for the kTraceDump introspection op.  Construction applies
  /// these to the GLOBAL recorder (last server built wins).
  bool flight_recorder_enabled = true;
  /// Ring capacity / head-sampling rate overrides; 0 keeps the recorder's
  /// defaults (128 traces, 1-in-8).
  std::size_t flight_recorder_capacity = 0;
  std::uint64_t flight_recorder_sample_every = 0;
};

/// Point-in-time counters (also mirrored into jps::obs as serve.*).
struct ServerStats {
  std::uint64_t requests = 0;
  std::uint64_t plans_computed = 0;
  std::uint64_t coalesce_hits = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t shed_rate_limited = 0;
  std::uint64_t shed_overload = 0;
  std::uint64_t protocol_errors = 0;
  std::uint64_t deadline_exceeded = 0;
  /// Degraded-mode replies served from a stale bucket (kOkStale).
  std::uint64_t stale_served = 0;
  /// Closed -> open breaker transitions across all tenants.
  std::uint64_t breaker_opens = 0;
  /// Live introspection ops answered (kStats / kTraceDump frames).
  std::uint64_t stats_scrapes = 0;
  std::uint64_t trace_dumps = 0;

  [[nodiscard]] std::uint64_t shed_total() const {
    return shed_rate_limited + shed_overload;
  }
};

class Server {
 public:
  explicit Server(ServerOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Answer one request directly (no transport).  Never throws: failures
  /// come back as non-OK statuses.  This is the exact computation
  /// handle_connection performs per kPlan frame.
  [[nodiscard]] PlanReply handle_plan(const PlanRequest& request);

  /// Serve one connection on the calling thread until the peer closes (or
  /// stop() half-closes it).  Frame/decoding errors never escape: payloads
  /// that parse as no known request get an INVALID_ARGUMENT reply; streams
  /// broken mid-frame are closed.  A stream that arrives once stop() has
  /// begun is half-closed at once.  serve() runs this for each accepted
  /// socket on a reused connection thread; tests also call it with an
  /// in-process stream.
  void handle_connection(ByteStream& stream);

  /// Serve `listener`'s connections until it closes, each on a reused
  /// connection thread (leader/followers, see the header).  The calling
  /// thread only waits; once accept() returns nullptr it runs stop(), joins
  /// every connection thread, and returns.  Throws std::system_error only
  /// when the first connection thread cannot be started; a later spawn
  /// failure is logged, and the thread that hit it serves its connection
  /// and goes back to accept() (the listen backlog holds new clients).
  void serve(Listener& listener);

  /// Drain: refuse new work (UNAVAILABLE), half-close active connections,
  /// and wait for every pending leader.  Every admitted computation
  /// completes before stop() returns.  Idempotent.
  void stop();

  [[nodiscard]] bool stopped() const {
    return stopping_.load(std::memory_order_acquire);
  }

  [[nodiscard]] ServerStats stats() const;
  [[nodiscard]] const ServerOptions& options() const { return options_; }
  /// Distinct computations currently in flight (leaders, not joiners).
  [[nodiscard]] std::size_t inflight() const;
  [[nodiscard]] const core::ShardedPlanCache& cache() const { return cache_; }

 private:
  struct PlanOutcome {
    std::shared_ptr<const core::PlanDecision> decision;
    bool cache_hit = false;
    double bucket_mbps = 0.0;
  };

  /// handle_plan without the request tracer (handle_connection runs its own
  /// tracer so the encode span joins the same trace).
  [[nodiscard]] PlanReply process_plan(const PlanRequest& request);
  /// One drained flight-recorder batch for a kTraceDump frame.
  [[nodiscard]] TraceDumpReply build_trace_dump(std::uint32_t max_traces);
  /// The server's live metrics snapshot for a kStats frame.
  [[nodiscard]] StatsReply build_stats_reply();
  /// The decision behind every leader: the model's lanes at the key's
  /// bucket, then core::decide_traced.
  [[nodiscard]] PlanOutcome compute_plan(const core::PlanCacheKey& key);
  /// The reply for `outcome`'s decision, its cut mix spread over n_jobs.
  [[nodiscard]] PlanReply to_reply(const PlanOutcome& outcome,
                                   int n_jobs) const;
  /// Degraded-mode reply for an open breaker: nearest-bucket stale plan
  /// (kOkStale) or kUnavailable when the cache has no candidate.
  [[nodiscard]] PlanReply stale_reply(const PlanRequest& request,
                                      const core::PlanCacheKey& key);
  /// kDeadlineExceeded reply, counted; `where` names the check that fired.
  [[nodiscard]] PlanReply deadline_reply(const PlanRequest& request,
                                         const char* where);
  /// The tail every planned reply (cache hit or computed plan) goes through:
  /// deadline check 3 and the breaker's record of the outcome.
  [[nodiscard]] PlanReply finish_reply(const PlanRequest& request,
                                       double arrival_ms, PlanReply reply);

  ServerOptions options_;
  TenantAdmission admission_;
  core::ShardedPlanCache cache_;
  CircuitBreaker breaker_;

  std::atomic<bool> stopping_{false};

  // Serializes the drain itself: every stop() caller — not just the first —
  // returns only after connections are half-closed and every pending
  // leader's decision is cached.  Before this lock existed, a second
  // concurrent stop() returned early and its caller could destroy the
  // Server while the first was still draining.
  util::Mutex stop_mutex_{"serve.server.stop"};
  bool stop_complete_ JPS_GUARDED_BY(stop_mutex_) = false;

  // Each model's candidate lanes, built on its first miss; the model's
  // graph is dropped once they are built.
  util::Mutex lanes_mutex_{"serve.server.lanes"};
  std::unordered_map<std::string,
                     std::shared_ptr<const partition::CandidateLanes>>
      lanes_ JPS_GUARDED_BY(lanes_mutex_);

  // Coalescing: cache key -> the pending leader's shared future.  Only cache
  // misses enter it; its size is the backpressure bound.  stop() waits on
  // inflight_drained_ until it is empty.
  mutable util::Mutex inflight_mutex_{"serve.server.inflight"};
  std::unordered_map<core::PlanCacheKey, std::shared_future<PlanOutcome>,
                     core::PlanCache::PlanKeyHash>
      inflight_ JPS_GUARDED_BY(inflight_mutex_);
  util::CondVar inflight_drained_;

  // Active connections, so stop() can half-close them.  Slots are nulled on
  // connection exit and reused.
  util::Mutex connections_mutex_{"serve.server.connections"};
  std::vector<ByteStream*> connections_ JPS_GUARDED_BY(connections_mutex_);

  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> plans_computed_{0};
  std::atomic<std::uint64_t> coalesce_hits_{0};
  std::atomic<std::uint64_t> cache_hits_{0};
  std::atomic<std::uint64_t> shed_rate_limited_{0};
  std::atomic<std::uint64_t> shed_overload_{0};
  std::atomic<std::uint64_t> protocol_errors_{0};
  std::atomic<std::uint64_t> deadline_exceeded_{0};
  std::atomic<std::uint64_t> stale_served_{0};
  std::atomic<std::uint64_t> stats_scrapes_{0};
  std::atomic<std::uint64_t> trace_dumps_{0};
  // Last breaker_.opens() mirrored into the serve.breaker_opens counter.
  std::atomic<std::uint64_t> breaker_opens_seen_{0};
};

}  // namespace jps::serve
