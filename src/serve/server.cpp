#include "serve/server.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>
#include <map>
#include <thread>
#include <utility>

#include "core/planner.h"
#include "models/registry.h"
#include "net/channel.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/metrics_export.h"
#include "obs/obs.h"
#include "obs/trace_context.h"
#include "partition/profile_curve.h"
#include "profile/latency_model.h"
#include "serve/snapshot.h"
#include "util/log.h"

namespace jps::serve {

namespace {

double steady_now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Deadline test shared by all three checks; a zero deadline never expires.
bool deadline_expired(const PlanRequest& request, double arrival_ms) {
  return request.deadline_ms > 0.0 &&
         steady_now_ms() - arrival_ms >= request.deadline_ms;
}

PlanReply error_reply(Status status, std::string message) {
  PlanReply reply;
  reply.status = status;
  reply.message = std::move(message);
  return reply;
}

// RAII per-request tracer: installs a TraceContext (adopted from the wire
// request's trace fields, or minted fresh), opens the root "serve.request"
// span, and on destruction completes the trace in the flight recorder and
// links the request's latency into the serve.plan_ms exemplars.  Inert when
// both the recorder and process-wide span tracing are off.
class RequestTracer {
 public:
  explicit RequestTracer(const PlanRequest& request) {
    if (!obs::FlightRecorder::global().enabled() && !obs::enabled()) return;
    active_ = true;
    if ((request.trace_hi | request.trace_lo) != 0) {
      // Adopt the client's trace; our root span parents onto the client-side
      // span that issued the request.
      context_.trace_hi = request.trace_hi;
      context_.trace_lo = request.trace_lo;
      context_.span_id = request.trace_parent_span;
    } else {
      context_ = obs::TraceContext::start();
      context_.span_id = 0;  // server-originated trace: the root has no parent
    }
    start_ms_ = obs::Registry::global().now_ms();
    scope_.emplace(context_);
    root_.emplace("serve.request", "serve");
    root_->arg("tenant", request.tenant);
    root_->arg("model", request.model);
  }

  RequestTracer(const RequestTracer&) = delete;
  RequestTracer& operator=(const RequestTracer&) = delete;

  /// Record the request's outcome (call once the reply is known; the tracer
  /// stays open so the encode span still joins the trace).
  void set_outcome(const PlanReply& reply) {
    if (!active_) return;
    plan_ms_ = obs::Registry::global().now_ms() - start_ms_;
    status_ = status_name(reply.status);
    error_ = !reply.has_plan();
    if (reply.coalesced) root_->arg("coalesced", "1");
    if (reply.cache_hit) root_->arg("cache_hit", "1");
    root_->arg("status", status_);
  }

  ~RequestTracer() {
    if (!active_) return;
    root_.reset();  // close the root span so it reaches the recorder
    const double dur_ms = obs::Registry::global().now_ms() - start_ms_;
    obs::FlightRecorder& recorder = obs::FlightRecorder::global();
    recorder.record_exemplar("serve.plan_ms",
                             plan_ms_ > 0.0 ? plan_ms_ : dur_ms, context_);
    recorder.finish(context_, status_, error_, start_ms_, dur_ms);
    scope_.reset();
  }

 private:
  bool active_ = false;
  bool error_ = false;
  double start_ms_ = 0.0;
  double plan_ms_ = 0.0;
  std::string status_ = "UNKNOWN";
  obs::TraceContext context_;
  std::optional<obs::TraceScope> scope_;
  std::optional<obs::Span> root_;
};

}  // namespace

double quantize_bandwidth(double bandwidth_mbps, double step_mbps) {
  const double buckets = std::round(bandwidth_mbps / step_mbps);
  return std::max(1.0, buckets) * step_mbps;
}

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      pool_(std::max<std::size_t>(1, options_.workers)),
      admission_(options_.tenant_rate_per_sec, options_.tenant_burst),
      cache_(std::max<std::size_t>(1, options_.cache_shards)),
      breaker_(options_.breaker) {
  options_.max_inflight = std::max<std::size_t>(1, options_.max_inflight);

  // The recorder is process-wide; the most recently constructed server's
  // options govern it (one server per process outside tests).
  obs::FlightRecorder& recorder = obs::FlightRecorder::global();
  recorder.set_enabled(options_.flight_recorder_enabled);
  if (options_.flight_recorder_capacity > 0)
    recorder.set_capacity(options_.flight_recorder_capacity);
  if (options_.flight_recorder_sample_every > 0)
    recorder.set_sample_every(options_.flight_recorder_sample_every);

  if (!options_.snapshot_path.empty()) {
    const SnapshotLoadResult loaded =
        load_cache_snapshot(cache_, options_.snapshot_path);
    if (loaded.entries > 0) {
      warm_start_entries_.store(loaded.entries, std::memory_order_relaxed);
      obs::counter("serve.warm_start_entries").add(loaded.entries);
    }
    if (options_.snapshot_interval_ms > 0.0) {
      snapshot_thread_ = std::thread([this] {
        const auto interval = std::chrono::duration<double, std::milli>(
            options_.snapshot_interval_ms);
        util::MutexLock lock(snapshot_mutex_);
        while (!stopping_.load(std::memory_order_acquire)) {
          // Fixed deadline so spurious wakeups re-enter the wait with the
          // remaining budget; a stop() notification breaks out early.
          const auto deadline = std::chrono::steady_clock::now() + interval;
          while (!stopping_.load(std::memory_order_acquire) &&
                 snapshot_cv_.wait_until(lock, deadline) !=
                     std::cv_status::timeout) {
          }
          if (stopping_.load(std::memory_order_acquire)) break;
          lock.unlock();
          save_snapshot_if_configured();
          lock.lock();
        }
      });
    }
  }
}

Server::~Server() { stop(); }

Server::PlanOutcome Server::compute_plan(const core::PlanCacheKey& key) {
  // Runs on a pool worker; ThreadPool::submit carried the leader's
  // TraceContext here, so these spans join the request's tree.
  obs::Span compute_span("serve.plan_compute", "serve");
  compute_span.arg("model", key.model);

  if (options_.debug_plan_delay_ms > 0.0) {
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
        options_.debug_plan_delay_ms));
  }

  std::shared_ptr<const dnn::Graph> graph;
  {
    util::MutexLock lock(graphs_mutex_);
    auto it = graphs_.find(key.model);
    if (it != graphs_.end()) graph = it->second;
  }
  if (!graph) {
    // models::build throws std::invalid_argument for unknown names; the
    // caller maps that to NOT_FOUND.  Build outside the map lock (graph
    // construction is the expensive part); last insert wins harmlessly.
    obs::Span graph_span("serve.model_graph", "serve");
    auto built = std::make_shared<const dnn::Graph>(models::build(key.model));
    util::MutexLock lock(graphs_mutex_);
    graph = graphs_.emplace(key.model, std::move(built)).first->second;
  }

  const net::Channel channel(key.bandwidth_mbps);
  const core::CurveCacheKey curve_key(key.model, key.device,
                                      key.bandwidth_mbps);
  auto curve = cache_.curve(curve_key, [&] {
    const profile::LatencyModel mobile(options_.device);
    return partition::ProfileCurve::build(*graph, mobile, channel);
  });

  PlanOutcome outcome;
  outcome.bucket_mbps = key.bandwidth_mbps;
  bool built = false;
  {
    // A second look: another leader may have inserted this key since the
    // connection thread's fast-path lookup missed.
    obs::Span cache_span("serve.cache_lookup", "serve");
    outcome.plan = cache_.plan(key, [&] {
      built = true;
      return core::Planner(*curve).plan(key.strategy, key.n_jobs);
    });
    cache_span.arg("hit", built ? "0" : "1");
  }
  outcome.cache_hit = !built;
  if (built) plans_computed_.fetch_add(1, std::memory_order_relaxed);
  return outcome;
}

PlanReply Server::to_reply(const PlanOutcome& outcome) const {
  PlanReply reply;
  reply.status = Status::kOk;
  reply.cache_hit = outcome.cache_hit;
  reply.bandwidth_bucket_mbps = outcome.bucket_mbps;
  reply.makespan_ms = outcome.plan->predicted_makespan;
  // Aggregate per-job assignments into a (cut -> count) mix, ascending.
  std::map<std::size_t, std::uint32_t> mix;
  for (const core::JobAssignment& job : outcome.plan->jobs)
    ++mix[job.cut_index];
  reply.mix.reserve(mix.size());
  for (const auto& [cut, count] : mix)
    reply.mix.push_back({static_cast<std::uint32_t>(cut), count});
  return reply;
}

PlanReply Server::stale_reply(const PlanRequest& request,
                              const core::PlanCacheKey& key) {
  static obs::Counter& stale_counter = obs::counter("serve.stale_served");

  obs::Span span("serve.stale_lookup", "serve");
  double stale_bw = 0.0;
  auto plan = cache_.nearest_plan(key, &stale_bw);
  if (!plan) {
    return error_reply(Status::kUnavailable,
                       "breaker open for tenant '" + request.tenant +
                           "' and no stale plan cached");
  }
  PlanOutcome outcome;
  outcome.plan = std::move(plan);
  outcome.cache_hit = true;
  outcome.bucket_mbps = stale_bw;
  PlanReply reply = to_reply(outcome);
  reply.status = Status::kOkStale;
  reply.stale = true;
  reply.message = "breaker open; stale plan from bucket " +
                  std::to_string(stale_bw) + " Mbps";
  stale_served_.fetch_add(1, std::memory_order_relaxed);
  stale_counter.add();
  return reply;
}

PlanReply Server::handle_plan(const PlanRequest& request) {
  // The tracer owns the trace for the whole request (admission through
  // reply); process_plan's spans nest under its root "serve.request" span.
  RequestTracer tracer(request);
  PlanReply reply = process_plan(request);
  tracer.set_outcome(reply);
  return reply;
}

PlanReply Server::deadline_reply(const PlanRequest& request,
                                 const char* where) {
  static obs::Counter& deadline_count = obs::counter("serve.deadline_exceeded");
  deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
  deadline_count.add();
  return error_reply(Status::kDeadlineExceeded,
                     "deadline of " + std::to_string(request.deadline_ms) +
                         " ms exhausted " + where);
}

PlanReply Server::finish_reply(const PlanRequest& request, double arrival_ms,
                               PlanReply reply) {
  static obs::Counter& breaker_opens = obs::counter("serve.breaker_opens");
  static obs::Gauge& breaker_gauge = obs::gauge("serve.breaker_open");

  // Deadline check 3/3: the plan is ready (cached or just computed) but too
  // late.  A computed plan stays cached (the NEXT request gets it cheaply);
  // only this reply turns into kDeadlineExceeded.
  if (reply.status == Status::kOk && deadline_expired(request, arrival_ms)) {
    const bool was_coalesced = reply.coalesced;
    reply = deadline_reply(request, "before reply");
    reply.coalesced = was_coalesced;
  }

  if (options_.breaker_enabled) {
    // kInternal (planner broken) and kDeadlineExceeded (planner too slow)
    // are server-health failures; client-caused statuses are not.
    const bool failure = reply.status == Status::kInternal ||
                         reply.status == Status::kDeadlineExceeded;
    breaker_.record(request.tenant, steady_now_ms(), failure,
                    steady_now_ms() - arrival_ms);
    const std::uint64_t opens_now = breaker_.opens();
    const std::uint64_t opens_prev =
        breaker_opens_seen_.exchange(opens_now, std::memory_order_relaxed);
    if (opens_now > opens_prev) breaker_opens.add(opens_now - opens_prev);
    breaker_gauge.set(static_cast<double>(breaker_.open_count()));
  }
  return reply;
}

PlanReply Server::process_plan(const PlanRequest& request) {
  static obs::Counter& requests_total = obs::counter("serve.requests");
  static obs::Counter& coalesce_hits = obs::counter("serve.coalesce_hits");
  static obs::Counter& cache_hits = obs::counter("serve.cache_hits");
  static obs::Counter& shed_rate = obs::counter("serve.shed_rate_limited");
  static obs::Counter& shed_overload = obs::counter("serve.shed_overload");
  static obs::Histogram& plan_ms = obs::histogram("serve.plan_ms");
  static obs::Gauge& inflight_gauge = obs::gauge("serve.inflight");
  static obs::Gauge& breaker_gauge = obs::gauge("serve.breaker_open");

  const double arrival_ms = steady_now_ms();
  obs::ScopedTimer timer(plan_ms);
  requests_.fetch_add(1, std::memory_order_relaxed);
  requests_total.add();

  // Covers validation, deadline checks, rate limiting, and the breaker gate;
  // reset just before the cache lookup so "time spent being admitted" is
  // separable from "time spent finding a plan" in the trace.
  std::optional<obs::Span> admission_span;
  admission_span.emplace("serve.admission", "serve");

  if (stopping_.load(std::memory_order_acquire))
    return error_reply(Status::kUnavailable, "server is draining");

  if (!std::isfinite(request.bandwidth_mbps) || request.bandwidth_mbps <= 0.0)
    return error_reply(Status::kInvalidArgument,
                       "bandwidth_mbps must be finite and > 0");
  // A finite bandwidth near DBL_MAX still overflows its bucket to +inf, and
  // the cache key refuses a non-finite bandwidth by contract.
  const double bucket =
      quantize_bandwidth(request.bandwidth_mbps, options_.bandwidth_bucket_mbps);
  if (!std::isfinite(bucket))
    return error_reply(Status::kInvalidArgument,
                       "bandwidth_mbps is too large to bucket");
  if (request.n_jobs < 1)
    return error_reply(Status::kInvalidArgument, "n_jobs must be >= 1");
  if (request.strategy == core::Strategy::kBruteForce ||
      request.strategy == core::Strategy::kRobust)
    return error_reply(Status::kInvalidArgument,
                       std::string("strategy ") +
                           core::strategy_name(request.strategy) +
                           " is not servable");
  if (!std::isfinite(request.deadline_ms) || request.deadline_ms < 0.0)
    return error_reply(Status::kInvalidArgument,
                       "deadline_ms must be finite and >= 0");

  if (options_.debug_admission_delay_ms > 0.0) {
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
        options_.debug_admission_delay_ms));
  }

  // Deadline check 1/3: a request that arrives already expired (or expired
  // in the accept queue) must not consume an admission token.
  if (deadline_expired(request, arrival_ms))
    return deadline_reply(request, "at admission");

  if (!admission_.admit(request.tenant, steady_now_ms())) {
    shed_rate_limited_.fetch_add(1, std::memory_order_relaxed);
    shed_rate.add();
    return error_reply(Status::kResourceExhausted,
                       "tenant '" + request.tenant + "' over rate limit");
  }

  // Deadline check 2/3: before any planning work is queued.  Running this
  // BEFORE the breaker gate means an expired probe never needs cancelling.
  if (deadline_expired(request, arrival_ms))
    return deadline_reply(request, "before planning");

  // The one key of this request: the plan cache, the stale lookup and the
  // coalescing map all use it.
  const core::PlanCacheKey key(request.model, options_.device.name, bucket,
                               request.strategy, request.n_jobs);

  CircuitBreaker::Decision decision = CircuitBreaker::Decision::kClosed;
  if (options_.breaker_enabled) {
    decision = breaker_.admit(request.tenant, steady_now_ms());
    if (decision == CircuitBreaker::Decision::kOpen) {
      breaker_gauge.set(static_cast<double>(breaker_.open_count()));
      return stale_reply(request, key);
    }
  }
  const bool probe = decision == CircuitBreaker::Decision::kProbe;

  admission_span.reset();

  // Fast path: a ready plan is answered here on the connection thread.  It
  // takes no inflight slot and never touches the pool; only misses go on
  // to coalescing and a Planner run.
  std::shared_ptr<const core::ExecutionPlan> cached;
  {
    obs::Span cache_span("serve.cache_lookup", "serve");
    cached = cache_.find_plan(key);
    cache_span.arg("hit", cached ? "1" : "0");
  }
  if (cached) {
    cache_hits_.fetch_add(1, std::memory_order_relaxed);
    cache_hits.add();
    return finish_reply(request, arrival_ms,
                        to_reply({std::move(cached), true, bucket}));
  }

  std::shared_future<PlanOutcome> future;
  bool leader = false;
  {
    util::MutexLock lock(inflight_mutex_);
    auto it = inflight_.find(key);
    if (it != inflight_.end()) {
      future = it->second;
    } else {
      if (inflight_.size() >= options_.max_inflight) {
        shed_overload_.fetch_add(1, std::memory_order_relaxed);
        shed_overload.add();
        // A shed is not a planning outcome: return the probe slot instead
        // of recording, or a half-open breaker would wait forever.
        if (probe) breaker_.cancel_probe(request.tenant);
        return error_reply(Status::kResourceExhausted,
                           "server overloaded (" +
                               std::to_string(inflight_.size()) +
                               " computations in flight)");
      }
      try {
        future = pool_.submit([this, key] { return compute_plan(key); })
                     .share();
      } catch (const std::exception&) {
        // Pool already shut down: we lost the race with stop().
        if (probe) breaker_.cancel_probe(request.tenant);
        return error_reply(Status::kUnavailable, "server is draining");
      }
      inflight_.emplace(key, future);
      leader = true;
      inflight_gauge.set(static_cast<double>(inflight_.size()));
    }
  }

  if (!leader) {
    coalesce_hits_.fetch_add(1, std::memory_order_relaxed);
    coalesce_hits.add();
  }

  PlanReply reply;
  try {
    {
      // Leaders wait for their own pool submission; followers block on the
      // leader's future ("coalesce wait").  Distinct span names make the two
      // shapes distinguishable in a trace without reading args.
      obs::Span wait_span(leader ? "serve.plan_wait" : "serve.coalesce_wait",
                          "serve");
      future.wait();
    }
    const PlanOutcome& outcome = future.get();
    reply = to_reply(outcome);
    if (outcome.cache_hit && leader) {
      cache_hits_.fetch_add(1, std::memory_order_relaxed);
      cache_hits.add();
    }
  } catch (const std::invalid_argument& e) {
    // models::build (unknown model) and Planner argument checks land here.
    reply = error_reply(Status::kNotFound, e.what());
  } catch (const std::exception& e) {
    reply = error_reply(Status::kInternal, e.what());
  }
  reply.coalesced = !leader;

  if (leader) {
    util::MutexLock lock(inflight_mutex_);
    inflight_.erase(key);
    inflight_gauge.set(static_cast<double>(inflight_.size()));
  }
  return finish_reply(request, arrival_ms, std::move(reply));
}

StatsReply Server::build_stats_reply() {
  static obs::Counter& scrapes = obs::counter("serve.stats_scrapes");
  stats_scrapes_.fetch_add(1, std::memory_order_relaxed);
  scrapes.add();
  StatsReply reply;
  reply.status = Status::kOk;
  reply.json = obs::to_json(obs::MetricsSnapshot::capture());
  return reply;
}

TraceDumpReply Server::build_trace_dump(std::uint32_t max_traces) {
  // Batch cap: a dump reply must stay well under kMaxFrameBytes even with
  // max-span traces, so large recorders drain across several requests
  // (reply.remaining tells the client to come back).
  constexpr std::uint32_t kTraceBatchCap = 32;
  static obs::Counter& dumps = obs::counter("serve.trace_dumps");
  trace_dumps_.fetch_add(1, std::memory_order_relaxed);
  dumps.add();

  std::uint32_t batch = max_traces == 0 ? kTraceBatchCap
                                        : std::min(max_traces, kTraceBatchCap);
  obs::FlightRecorder& recorder = obs::FlightRecorder::global();
  const std::vector<obs::TraceRecord> records = recorder.drain(batch);
  TraceDumpReply reply;
  reply.status = Status::kOk;
  reply.remaining = static_cast<std::uint32_t>(
      std::min<std::size_t>(recorder.size(), 0xFFFFFFFFu));
  reply.json = obs::flight_records_json(records);
  return reply;
}

void Server::handle_connection(ByteStream& stream) {
  static obs::Counter& protocol_errors = obs::counter("serve.protocol_errors");
  static obs::Histogram& ping_ms = obs::histogram("serve.ping_ms");
  static obs::Gauge& connections_gauge = obs::gauge("serve.connections");

  std::size_t slot;
  {
    util::MutexLock lock(connections_mutex_);
    const auto it =
        std::find(connections_.begin(), connections_.end(), nullptr);
    if (it != connections_.end()) {
      slot = static_cast<std::size_t>(it - connections_.begin());
      *it = &stream;
    } else {
      slot = connections_.size();
      connections_.push_back(&stream);
    }
    connections_gauge.add(1.0);
  }
  obs::Registry::global().set_thread_name("serve-conn-" +
                                          std::to_string(slot));
  // stop() may half-close the stream at any point from here on; every exit
  // path below must unregister the slot.

  while (true) {
    std::optional<std::string> payload;
    try {
      payload = read_frame(stream);
    } catch (const ProtocolError&) {
      // Truncated or oversized frame: the byte stream cannot be
      // resynchronized, so the only safe move is to drop the connection.
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      protocol_errors.add();
      break;
    }
    if (!payload) break;  // clean EOF

    // Answer each frame at the version it arrived with, so one connection
    // may mix v1, v2, and v3 requests (and an unparseable header falls back
    // to the current version for the error reply).
    std::uint8_t version = kVersion;
    std::string out;
    try {
      version = peek_version(*payload);
      switch (peek_op(*payload)) {
        case Op::kPing: {
          obs::ScopedTimer timer(ping_ms);
          out = encode_ping_reply();
          break;
        }
        case Op::kPlan: {
          const PlanRequest request = decode_plan_request(*payload);
          RequestTracer tracer(request);
          const PlanReply reply = process_plan(request);
          tracer.set_outcome(reply);
          // Encoding inside the tracer's lifetime keeps serialization cost
          // attributed to the request's trace.
          obs::Span encode_span("serve.encode", "serve");
          out = encode_plan_reply(reply, version);
          break;
        }
        case Op::kStats:
          decode_stats_request(*payload);  // validates op + version >= 3
          out = encode_stats_reply(build_stats_reply());
          break;
        case Op::kTraceDump:
          out = encode_trace_dump_reply(
              build_trace_dump(decode_trace_dump_request(*payload)));
          break;
        default:
          throw ProtocolError("serve: unexpected op from client");
      }
    } catch (const ProtocolError& e) {
      // The frame boundary held, so the connection is still usable — answer
      // with an error instead of hanging up.  (Introspection ops on a pre-v3
      // frame land here too: the error reply names the version requirement.)
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      protocol_errors.add();
      out = encode_plan_reply(error_reply(Status::kInvalidArgument, e.what()),
                              kVersion);
    } catch (const std::exception& e) {
      // Anything else is a server fault, not the peer's: answer INTERNAL and
      // keep both the connection and the daemon alive.
      out = encode_plan_reply(error_reply(Status::kInternal, e.what()),
                              kVersion);
    }

    try {
      write_frame(stream, out);
    } catch (const std::exception&) {
      break;  // peer went away mid-reply
    }
  }

  // Unregister FIRST (stop() touches streams only under this lock, so after
  // the slot is nulled nobody else holds the pointer), THEN close so the
  // peer sees EOF promptly — especially after an unresynchronizable frame.
  {
    util::MutexLock lock(connections_mutex_);
    connections_[slot] = nullptr;
    connections_gauge.add(-1.0);
  }
  stream.close();
}

void Server::save_snapshot_if_configured() {
  if (options_.snapshot_path.empty()) return;
  static obs::Counter& saves = obs::counter("serve.snapshot_saves");
  try {
    save_cache_snapshot(cache_, options_.snapshot_path);
    snapshot_saves_.fetch_add(1, std::memory_order_relaxed);
    saves.add();
  } catch (const std::exception& e) {
    // A failed save costs warmth after the NEXT restart, never availability
    // now — and the previous snapshot (if any) is still intact.
    util::log_line(util::LogLevel::kWarn, "plan-cache snapshot save failed",
                   {{"path", options_.snapshot_path}, {"error", e.what()}});
  }
}

void Server::stop() {
  // Refuse new work first (idempotent), then serialize the drain itself
  // under stop_mutex_: the previous exchange-and-return-early scheme let a
  // concurrent stop() return after only pool_.shutdown(), BEFORE the winner
  // had half-closed connections, joined the snapshot thread, and saved the
  // final snapshot — so its caller could destroy the Server out from under
  // the still-draining winner.  Every caller now owns the full
  // postcondition when stop() returns (ServerStopRace regression test).
  stopping_.store(true, std::memory_order_release);
  util::MutexLock stop_lock(stop_mutex_);
  if (stop_complete_) return;
  {
    // Lock/unlock pairs with the snapshot thread's predicate re-check, so
    // the notify below cannot slot between its check and its wait.
    util::MutexLock lock(snapshot_mutex_);
  }
  snapshot_cv_.notify_all();
  {
    util::MutexLock lock(connections_mutex_);
    for (ByteStream* stream : connections_)
      if (stream != nullptr) stream->shutdown_read();
  }
  pool_.shutdown();
  if (snapshot_thread_.joinable()) snapshot_thread_.join();
  // Final save AFTER the pool has drained: every admitted computation's plan
  // is in the cache, so the snapshot a restart warm-starts from is complete.
  save_snapshot_if_configured();
  stop_complete_ = true;
}

ServerStats Server::stats() const {
  ServerStats s;
  s.requests = requests_.load(std::memory_order_relaxed);
  s.plans_computed = plans_computed_.load(std::memory_order_relaxed);
  s.coalesce_hits = coalesce_hits_.load(std::memory_order_relaxed);
  s.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  s.shed_rate_limited = shed_rate_limited_.load(std::memory_order_relaxed);
  s.shed_overload = shed_overload_.load(std::memory_order_relaxed);
  s.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  s.deadline_exceeded = deadline_exceeded_.load(std::memory_order_relaxed);
  s.stale_served = stale_served_.load(std::memory_order_relaxed);
  s.breaker_opens = breaker_.opens();
  s.warm_start_entries = warm_start_entries_.load(std::memory_order_relaxed);
  s.snapshot_saves = snapshot_saves_.load(std::memory_order_relaxed);
  s.stats_scrapes = stats_scrapes_.load(std::memory_order_relaxed);
  s.trace_dumps = trace_dumps_.load(std::memory_order_relaxed);
  return s;
}

std::size_t Server::inflight() const {
  util::MutexLock lock(inflight_mutex_);
  return inflight_.size();
}

}  // namespace jps::serve
