#include "serve/server.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "core/planner.h"
#include "models/registry.h"
#include "net/channel.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/metrics_export.h"
#include "obs/obs.h"
#include "obs/trace_context.h"
#include "profile/latency_model.h"
#include "util/log.h"

namespace jps::serve {

namespace {

double steady_now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Deadline test shared by both checks; a zero deadline never expires.
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
    error_ = !reply.ok();
    if (reply.coalesced) root_->arg("coalesced", "1");
    if (reply.cache_hit) root_->arg("cache_hit", "1");
    root_->arg("status", status_);
  }

  ~RequestTracer() {
    if (!active_) return;
    // The trace ends where its root span ends, before ~Span records the root
    // into the recorder under its lock: that is not the request's time.
    const double dur_ms = obs::Registry::global().now_ms() - start_ms_;
    root_.reset();
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

// Server::serve's connection threads, in a leader/followers arrangement.
// Every idle thread blocks in listener.accept().  A thread that takes a
// connection while no other thread waits there first starts one more, then
// serves its socket and goes back to accept(), so the set grows to the peak
// number of concurrent connections plus one and then stops growing.
//
// One exception keeps sequential churn from starting threads however late
// the kernel runs a thread: a connection counts as ending while its stream
// reports finished() for every byte its thread has handed to write() (the
// peer closed, nothing is left to read outside the stream's own buffer,
// and every reply byte is acknowledged).  From there no read can wait, and
// the thread ends once it reads EOF, so the acceptor that finds it skips
// the spawn.  The skip is a loan: should the thread still owe a reply (to
// a request it is computing, or to the rest of a pipelined one already in
// the stream's own buffer), its next write() first starts the missing
// acceptor, so a thread that blocks writing to a peer that stopped reading
// never leaves the listener without one.
// mutex_ is a leaf: under it run only a stream's finished() and close(),
// which on a socket lock nothing.
class ConnectionThreads {
 public:
  /// Starts the first acceptor; a std::system_error propagates.
  ConnectionThreads(Server& server, Listener& listener)
      : server_(server), listener_(listener) {
    util::MutexLock lock(mutex_);
    spawn_locked();
  }

  /// Joins every thread: each returns once accept() gives nullptr, so the
  /// listener must be closed and every connection ending.
  ~ConnectionThreads() {
    std::vector<std::thread> threads;
    {
      util::MutexLock lock(mutex_);
      threads.swap(threads_);
    }
    for (std::thread& t : threads) t.join();
  }

  ConnectionThreads(const ConnectionThreads&) = delete;
  ConnectionThreads& operator=(const ConnectionThreads&) = delete;

  /// Block until an acceptor has seen the listener close.  From then on no
  /// thread is started, so the destructor joins the complete set.
  void wait_closed() {
    util::MutexLock lock(mutex_);
    while (!closed_) closed_cv_.wait(lock);
  }

 private:
  // An accepted stream as its connection thread uses it.  word_ packs the
  // bytes handed to write() so far (shifted left by one) with a loan bit,
  // set by an acceptor that skipped its spawn counting on this connection
  // ending.  Only the thread changes the count, and every write adds to
  // it, so an acceptor's compare-exchange fails if the thread wrote since
  // the acceptor looked.
  class ServedStream final : public ByteStream {
   public:
    ServedStream(ConnectionThreads& owner, std::unique_ptr<ByteStream> inner)
        : owner_(owner), inner_(std::move(inner)) {}

    std::size_t read(char* out, std::size_t max) override {
      return inner_->read(out, max);
    }
    void write(const char* data, std::size_t size) override {
      const std::uint64_t written = (word_.load() >> 1) + size;
      if (word_.exchange(written << 1) & kLoan) owner_.replace_acceptor();
      inner_->write(data, size);
    }
    void shutdown_read() override { inner_->shutdown_read(); }
    // The connection's end: its thread counts as idle from here, on its way
    // back to accept().  Leaving serving_ before the descriptor closes means
    // an acceptor never asks finished() of one that is being closed, or
    // already reused by a new connection.
    void close() override {
      if (ended_.exchange(true)) return;
      {
        util::MutexLock lock(owner_.mutex_);
        std::erase(owner_.serving_, this);
        ++owner_.idle_;
      }
      inner_->close();
    }
    void set_read_timeout_ms(double ms) override {
      inner_->set_read_timeout_ms(ms);
    }

    // Whether the connection is ending; when it is, takes the loan.  Runs
    // under mutex_, while the stream is in serving_ (see close()).
    bool rely_on_ending() {
      std::uint64_t word = word_.load();
      return inner_->finished(word >> 1) &&
             word_.compare_exchange_strong(word, word | kLoan);
    }

   private:
    static constexpr std::uint64_t kLoan = 1;

    ConnectionThreads& owner_;
    std::unique_ptr<ByteStream> inner_;
    std::atomic<std::uint64_t> word_{0};
    std::atomic<bool> ended_{false};
  };

  // The new thread counts as idle from here: it goes straight to accept().
  void spawn_locked() JPS_REQUIRES(mutex_) {
    threads_.emplace_back([this] { run(); });
    ++idle_;
  }

  // Starts a thread unless one is idle or the listener closed.  Returns
  // the error to log (after unlocking: mutex_ stays a leaf), or "".
  std::string spawn_if_none_idle_locked() JPS_REQUIRES(mutex_) {
    if (idle_ > 0 || closed_) return {};
    try {
      spawn_locked();
    } catch (const std::system_error& e) {
      return e.what();
    }
    return {};
  }

  // Serve this socket anyway; until a thread is back in accept(), new
  // clients wait in the kernel's listen backlog.
  static void log_spawn_error(const std::string& error) {
    if (error.empty()) return;
    util::log_line(util::LogLevel::kWarn,
                   "serve: cannot start a connection thread",
                   {{"error", error}});
  }

  // A thread that an acceptor counted as ending is about to write a reply.
  void replace_acceptor() {
    std::string spawn_error;
    {
      util::MutexLock lock(mutex_);
      spawn_error = spawn_if_none_idle_locked();
    }
    log_spawn_error(spawn_error);
  }

  void run() {
    while (true) {
      std::unique_ptr<ByteStream> accepted = listener_.accept();
      std::unique_ptr<ServedStream> stream;
      std::string spawn_error;
      {
        util::MutexLock lock(mutex_);
        --idle_;
        if (!accepted) {
          closed_ = true;
          closed_cv_.notify_all();
          return;
        }
        stream = std::make_unique<ServedStream>(*this, std::move(accepted));
        if (idle_ == 0 && !any_served_ending_locked())
          spawn_error = spawn_if_none_idle_locked();
        serving_.push_back(stream.get());
      }
      log_spawn_error(spawn_error);
      // Ends by closing the stream, which counts this thread idle again.
      server_.handle_connection(*stream);
    }
  }

  // A few syscalls per served stream; asked only when no thread is idle.
  bool any_served_ending_locked() JPS_REQUIRES(mutex_) {
    return std::any_of(serving_.begin(), serving_.end(),
                       [](ServedStream* s) { return s->rely_on_ending(); });
  }

  Server& server_;
  Listener& listener_;
  util::Mutex mutex_{"serve.server.connection_threads"};
  util::CondVar closed_cv_;
  // Threads in (or on their way back to) accept().
  std::size_t idle_ JPS_GUARDED_BY(mutex_) = 0;
  // The streams being served, until they close.
  std::vector<ServedStream*> serving_ JPS_GUARDED_BY(mutex_);
  bool closed_ JPS_GUARDED_BY(mutex_) = false;
  std::vector<std::thread> threads_ JPS_GUARDED_BY(mutex_);
};

}  // namespace

double quantize_bandwidth(double bandwidth_mbps, double step_mbps) {
  const double buckets = std::round(bandwidth_mbps / step_mbps);
  return std::max(1.0, buckets) * step_mbps;
}

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      admission_(options_.tenant_rate_per_sec, options_.tenant_burst),
      cache_(std::max<std::size_t>(1, options_.cache_shards)) {
  options_.max_inflight = std::max<std::size_t>(1, options_.max_inflight);

  // The recorder is process-wide; the most recently constructed server's
  // options govern it (one server per process outside tests).
  obs::FlightRecorder& recorder = obs::FlightRecorder::global();
  recorder.set_enabled(options_.flight_recorder_enabled);
  if (options_.flight_recorder_capacity > 0)
    recorder.set_capacity(options_.flight_recorder_capacity);
  if (options_.flight_recorder_sample_every > 0)
    recorder.set_sample_every(options_.flight_recorder_sample_every);
}

Server::~Server() { stop(); }

Server::PlanOutcome Server::compute_plan(const core::PlanCacheKey& key) {
  // Runs on the leader's own thread, under its request's trace, no lock held.
  obs::Span compute_span("serve.plan_compute", "serve");
  compute_span.arg("model", key.model);

  if (options_.debug_plan_delay_ms > 0.0) {
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
        options_.debug_plan_delay_ms));
  }

  std::shared_ptr<const partition::CandidateLanes> lanes;
  {
    util::MutexLock lock(lanes_mutex_);
    auto it = lanes_.find(key.model);
    if (it != lanes_.end()) lanes = it->second;
  }
  if (!lanes) {
    // models::build throws std::invalid_argument for unknown names; the
    // caller maps that to NOT_FOUND.  Build outside the map lock (graph
    // construction is the expensive part); first insert wins harmlessly.
    obs::Span graph_span("serve.model_graph", "serve");
    auto built = std::make_shared<const partition::CandidateLanes>(
        partition::CandidateLanes::build(
            models::build(key.model), profile::LatencyModel(options_.device)));
    util::MutexLock lock(lanes_mutex_);
    lanes = lanes_.emplace(key.model, std::move(built)).first->second;
  }

  PlanOutcome outcome;
  outcome.bucket_mbps = key.bandwidth_mbps;
  bool built = false;
  {
    // A second look: another leader may have inserted this key since the
    // fast-path lookup missed.
    obs::Span cache_span("serve.cache_lookup", "serve");
    outcome.decision = cache_.plan(key, [&] {
      built = true;
      std::vector<double> f;
      std::vector<double> g;
      lanes->at(net::Channel(key.bandwidth_mbps), f, g);
      return core::decide_traced(key.strategy, key.n_jobs, f, g, key.model);
    });
    cache_span.arg("hit", built ? "0" : "1");
  }
  outcome.cache_hit = !built;
  if (built) plans_computed_.fetch_add(1, std::memory_order_relaxed);
  return outcome;
}

PlanReply Server::to_reply(const PlanOutcome& outcome, int n_jobs) const {
  PlanReply reply;
  reply.status = Status::kOk;
  reply.cache_hit = outcome.cache_hit;
  reply.bandwidth_bucket_mbps = outcome.bucket_mbps;
  reply.makespan_ms = outcome.decision->predicted_makespan;
  reply.mix = outcome.decision->mix(n_jobs);
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
  // Deadline check 2/2: the plan is ready (cached or just computed) but too
  // late.  A computed plan stays cached (the NEXT request gets it cheaply);
  // only this reply turns into kDeadlineExceeded.
  if (reply.status == Status::kOk && deadline_expired(request, arrival_ms)) {
    const bool was_coalesced = reply.coalesced;
    reply = deadline_reply(request, "before reply");
    reply.coalesced = was_coalesced;
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

  const double arrival_ms = steady_now_ms();
  obs::ScopedTimer timer(plan_ms);
  requests_.fetch_add(1, std::memory_order_relaxed);
  requests_total.add();

  // Covers validation, the admission deadline check and rate limiting;
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
  if (!core::servable(request.strategy))
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

  // Deadline check 1/2: a request that arrives already expired (or expired
  // in the accept queue) must not consume an admission token.
  if (deadline_expired(request, arrival_ms))
    return deadline_reply(request, "at admission");

  if (!admission_.admit(request.tenant, steady_now_ms())) {
    shed_rate_limited_.fetch_add(1, std::memory_order_relaxed);
    shed_rate.add();
    return error_reply(Status::kResourceExhausted,
                       "tenant '" + request.tenant + "' over rate limit");
  }

  // The one key of this request: the plan cache and the coalescing map both
  // use it.
  const core::PlanCacheKey key(request.model, options_.device.name, bucket,
                               request.strategy, request.n_jobs);

  admission_span.reset();

  // Fast path: a ready plan is answered here.  It takes no inflight slot;
  // only misses go on to coalescing and a Planner run.
  std::shared_ptr<const core::PlanDecision> cached;
  {
    obs::Span cache_span("serve.cache_lookup", "serve");
    cached = cache_.find_plan(key);
    cache_span.arg("hit", cached ? "1" : "0");
  }
  if (cached) {
    cache_hits_.fetch_add(1, std::memory_order_relaxed);
    cache_hits.add();
    return finish_reply(request, arrival_ms,
                        to_reply({std::move(cached), true, bucket},
                                 request.n_jobs));
  }

  std::promise<PlanOutcome> promise;  // fulfilled only by a leader
  std::shared_future<PlanOutcome> future;
  bool leader = false;
  {
    util::MutexLock lock(inflight_mutex_);
    auto it = inflight_.find(key);
    if (it != inflight_.end()) {
      future = it->second;
    } else {
      // Checked under inflight_mutex_: stop() waits for every leader
      // admitted here, and none is admitted once stopping_ is set.
      if (stopping_.load(std::memory_order_acquire))
        return error_reply(Status::kUnavailable, "server is draining");
      if (inflight_.size() >= options_.max_inflight) {
        shed_overload_.fetch_add(1, std::memory_order_relaxed);
        shed_overload.add();
        return error_reply(Status::kResourceExhausted,
                           "server overloaded (" +
                               std::to_string(inflight_.size()) +
                               " computations in flight)");
      }
      future = promise.get_future().share();
      inflight_.emplace(key, future);
      leader = true;
      inflight_gauge.set(static_cast<double>(inflight_.size()));
    }
  }

  if (leader) {
    // Plan right here, then fulfil every follower's future (with the plan
    // or the exception, so none is stranded) before giving up the slot.
    try {
      promise.set_value(compute_plan(key));
    } catch (...) {
      promise.set_exception(std::current_exception());
    }
    util::MutexLock lock(inflight_mutex_);
    inflight_.erase(key);
    inflight_gauge.set(static_cast<double>(inflight_.size()));
    if (inflight_.empty()) inflight_drained_.notify_all();
  } else {
    coalesce_hits_.fetch_add(1, std::memory_order_relaxed);
    coalesce_hits.add();
    obs::Span wait_span("serve.coalesce_wait", "serve");
    future.wait();
  }

  PlanReply reply;
  try {
    const PlanOutcome& outcome = future.get();
    reply = to_reply(outcome, request.n_jobs);
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
    // stop() sets stopping_ before it half-closes the registered streams
    // under this lock, so a stream registered after that sees it here.
    if (stopping_.load(std::memory_order_acquire)) stream.shutdown_read();
  }
  obs::Registry::global().set_thread_name("serve-conn-" +
                                          std::to_string(slot));
  // The stream is half-closed by now or by stop() later; every exit path
  // below must unregister the slot.

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

    std::string out;
    try {
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
          out = encode_plan_reply(reply);
          break;
        }
        case Op::kStats:
          decode_stats_request(*payload);  // validates the empty body
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
      // with an error instead of hanging up.  (A frame at another protocol
      // version lands here too: the error reply names the version spoken.)
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      protocol_errors.add();
      out = encode_plan_reply(error_reply(Status::kInvalidArgument, e.what()));
    } catch (const std::exception& e) {
      // Anything else is a server fault, not the peer's: answer INTERNAL and
      // keep both the connection and the daemon alive.
      out = encode_plan_reply(error_reply(Status::kInternal, e.what()));
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

void Server::serve(Listener& listener) {
  ConnectionThreads threads(*this, listener);
  threads.wait_closed();
  // Half-closes every connection, so each thread finishes its socket, finds
  // the listener closed in accept(), and exits to be joined by ~threads.
  stop();
}

void Server::stop() {
  // Refuse new work first (idempotent), then serialize the drain itself
  // under stop_mutex_, so every concurrent caller, not just the first, owns
  // the full postcondition when stop() returns (ServerStopRace test).
  stopping_.store(true, std::memory_order_release);
  util::MutexLock stop_lock(stop_mutex_);
  if (stop_complete_) return;
  {
    util::MutexLock lock(connections_mutex_);
    for (ByteStream* stream : connections_)
      if (stream != nullptr) stream->shutdown_read();
  }
  {
    // No leader is admitted any more, so the map only shrinks.
    util::MutexLock lock(inflight_mutex_);
    while (!inflight_.empty()) inflight_drained_.wait(lock);
  }
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
  s.stats_scrapes = stats_scrapes_.load(std::memory_order_relaxed);
  s.trace_dumps = trace_dumps_.load(std::memory_order_relaxed);
  return s;
}

std::size_t Server::inflight() const {
  util::MutexLock lock(inflight_mutex_);
  return inflight_.size();
}

}  // namespace jps::serve
