// jps_serve: the multi-tenant plan server daemon and its client commands.
//
//   jps_serve serve [--port N] [--max-inflight N] [--bucket-mbps X]
//                   [--tenant-rate X] [--tenant-burst X]
//                   [--metrics-out FILE] [--metrics-format openmetrics|json]
//       Run the daemon on 127.0.0.1:PORT (0 picks an ephemeral port, printed
//       on stdout).  Server::serve answers each connection on a reused
//       connection thread; the thread count follows the peak number of
//       concurrent clients, not the number of connections.  SIGINT/SIGTERM
//       drains: stop accepting, finish admitted work, join the connection
//       threads, write metrics, exit 0.
//
//   jps_serve plan --model M [--bandwidth X] [--strategy S] [--jobs N]
//                  [--tenant T] [--host H] [--port N]
//       Send one plan request and print the reply.
//
//   jps_serve ping [--host H] [--port N]
//       Liveness probe; exit 0 when the server answers.
//
//   jps_serve stats [--host H] [--port N] [--watch [--interval-ms X]]
//       Scrape the daemon's live metrics snapshot (protocol v3 STATS op) and
//       print it as JSON.  --watch re-scrapes until interrupted.
//
//   jps_serve trace [--host H] [--port N] [--max N] [--watch]
//                   [--chrome-out FILE]
//       Drain the daemon's flight recorder (protocol v3 TRACE_DUMP op) and
//       print the retained traces as JSON.  --chrome-out additionally
//       converts the drained spans to Chrome trace-event format.
//
//   jps_serve selfcheck [--clients N] [--requests N] [--chaos]
//       In-process end-to-end check (no sockets): start a server, drive it
//       with concurrent clients over pipe transports, verify every reply
//       against a direct Planner run.  CI's smoke test.  With --chaos the
//       same check runs under scripted transport faults (delays, 1-byte
//       reads, mid-frame disconnects, corrupted bytes) — every SUCCESSFUL
//       reply must still be bit-identical.
//
// Each command refuses any flag it does not read (exit 64), before the
// daemon binds its socket.
//
// Exit codes: 0 success, 1 runtime failure, 64 usage error.
#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "args.h"
#include "core/planner.h"
#include "fault/fault_spec.h"
#include "models/registry.h"
#include "net/channel.h"
#include "obs/flight_recorder.h"
#include "obs/metrics_export.h"
#include "obs/trace_writer.h"
#include "partition/profile_curve.h"
#include "profile/latency_model.h"
#include "serve/chaos.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/transport.h"
#include "util/json.h"
#include "util/mutex.h"
#include "util/strings.h"

namespace {

using namespace jps;

void usage() {
  std::cout <<
      "usage: jps_serve <command> [flags]\n"
      "\n"
      "commands:\n"
      "  serve       run the daemon on 127.0.0.1 (blocks until SIGINT/SIGTERM)\n"
      "  plan        request one plan from a running daemon\n"
      "  ping        probe a running daemon\n"
      "  stats       scrape a running daemon's metrics snapshot as JSON\n"
      "  trace       drain a running daemon's flight recorder as JSON\n"
      "  selfcheck   in-process server + concurrent clients, no sockets\n"
      "\n"
      "serve flags:\n"
      "  --port N              listen port (default 7421; 0 = ephemeral)\n"
      "  --max-inflight N      distinct computations in flight before\n"
      "                        shedding RESOURCE_EXHAUSTED (default 8)\n"
      "  --bucket-mbps X       bandwidth quantization step (default 0.25)\n"
      "  --tenant-rate X       per-tenant requests/sec (default 0 = unlimited)\n"
      "  --tenant-burst X      per-tenant burst allowance (default 16)\n"
      "  --cache-shards N      plan-cache lock stripes (default 8)\n"
      "  --no-breaker          disable the per-tenant circuit breaker\n"
      "  --breaker-window N    rolling outcomes per tenant (default 32)\n"
      "  --breaker-min-samples N   outcomes before judgement (default 8)\n"
      "  --breaker-ratio X     open at this failure ratio (default 0.5)\n"
      "  --breaker-cooldown-ms X   wait before the probe (default 1000)\n"
      "  --metrics-out FILE    write a metrics snapshot at shutdown\n"
      "  --metrics-format F    openmetrics (default) or json\n"
      "  --metrics-interval-ms X   also rewrite --metrics-out every X ms\n"
      "                        while running (atomic tmp+rename)\n"
      "  --no-flight-recorder  disable request-trace retention\n"
      "  --trace-capacity N    flight-recorder ring size (default 128)\n"
      "  --trace-sample-every N    keep 1-in-N unremarkable requests\n"
      "\n"
      "stats/trace flags:\n"
      "  --host H --port N     daemon address (default 127.0.0.1:7421)\n"
      "  --watch               keep scraping until interrupted\n"
      "  --interval-ms X       scrape period with --watch (default 1000)\n"
      "  --max N               traces per dump batch (trace only; 0 = server cap)\n"
      "  --chrome-out FILE     also render drained spans as Chrome trace JSON\n"
      "\n"
      "plan/ping flags:\n"
      "  --host H --port N     daemon address (default 127.0.0.1:7421)\n"
      "  --model M             zoo model name (plan only; required)\n"
      "  --bandwidth X         uplink estimate, Mbps (default 10)\n"
      "  --strategy S          lo|co|po|jps|jps*|jps+ (default jps)\n"
      "  --jobs N              job count (default 4)\n"
      "  --tenant T            tenant id for admission control (default \"\")\n"
      "  --deadline-ms X       server-side deadline budget (plan only)\n"
      "  --timeout-ms X        client read timeout (0 = block forever)\n"
      "  --retries N           extra attempts on retryable failures\n"
      "\n"
      "selfcheck flags (plus every serve flag but --port and --metrics-*):\n"
      "  --clients N --requests N   concurrency and per-client request count\n"
      "  --chaos                    inject scripted transport faults and\n"
      "                             verify bit-identity\n";
}

// The flags each command reads.  Anything else is a usage error.
using Flags = std::vector<std::string_view>;

Flags operator+(Flags a, const Flags& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

// Read by server_options().
const Flags kServerFlags = {
    "max-inflight", "bucket-mbps", "tenant-rate", "tenant-burst",
    "cache-shards", "no-breaker", "breaker-window", "breaker-min-samples",
    "breaker-ratio", "breaker-cooldown-ms", "no-flight-recorder",
    "trace-capacity", "trace-sample-every"};
// Read by connect_client().
const Flags kClientFlags = {"host", "port", "retries", "timeout-ms"};

core::Strategy parse_strategy(const std::string& name) {
  const std::string s = util::to_lower(name);
  if (s == "lo") return core::Strategy::kLocalOnly;
  if (s == "co") return core::Strategy::kCloudOnly;
  if (s == "po") return core::Strategy::kPartitionOnly;
  if (s == "jps") return core::Strategy::kJPS;
  if (s == "jps*" || s == "jps-tuned") return core::Strategy::kJPSTuned;
  if (s == "jps+" || s == "jps-hull") return core::Strategy::kJPSHull;
  throw tools::UsageError("unknown servable strategy '" + name + "'");
}

serve::ServerOptions server_options(const tools::Args& args) {
  serve::ServerOptions options;
  options.max_inflight =
      static_cast<std::size_t>(args.get_int("max-inflight", 8));
  options.bandwidth_bucket_mbps = args.get_double("bucket-mbps", 0.25);
  options.tenant_rate_per_sec = args.get_double("tenant-rate", 0.0);
  options.tenant_burst = args.get_double("tenant-burst", 16.0);
  options.cache_shards =
      static_cast<std::size_t>(args.get_int("cache-shards", 8));
  options.breaker_enabled = !args.has("no-breaker");
  options.breaker.window =
      static_cast<std::size_t>(args.get_int("breaker-window", 32));
  options.breaker.min_samples =
      static_cast<std::size_t>(args.get_int("breaker-min-samples", 8));
  options.breaker.failure_ratio = args.get_double("breaker-ratio", 0.5);
  options.breaker.cooldown_ms = args.get_double("breaker-cooldown-ms", 1000.0);
  options.flight_recorder_enabled = !args.has("no-flight-recorder");
  options.flight_recorder_capacity =
      static_cast<std::size_t>(args.get_int("trace-capacity", 0));
  options.flight_recorder_sample_every =
      static_cast<std::uint64_t>(args.get_int("trace-sample-every", 0));
  if (options.bandwidth_bucket_mbps <= 0.0)
    throw tools::UsageError("--bucket-mbps must be > 0");
  return options;
}

void print_reply(const serve::PlanReply& reply) {
  std::cout << "status: " << serve::status_name(reply.status) << "\n";
  if (!reply.message.empty()) std::cout << "message: " << reply.message << "\n";
  if (!reply.has_plan()) return;
  std::cout << "bandwidth_bucket_mbps: " << reply.bandwidth_bucket_mbps << "\n"
            << "makespan_ms: " << reply.makespan_ms << "\n"
            << "coalesced: " << (reply.coalesced ? "yes" : "no") << "\n"
            << "cache_hit: " << (reply.cache_hit ? "yes" : "no") << "\n"
            << "stale: " << (reply.stale ? "yes" : "no") << "\n"
            << "mix:";
  for (const serve::CutMix& m : reply.mix)
    std::cout << " cut" << m.cut << "x" << m.count;
  std::cout << "\n";
}

// The daemon's listener, reachable from the signal handler.  Closing the
// listener is async-signal-safe (shutdown(2)/close(2) only) and unblocks
// Server::serve, which then drains the server.
serve::SocketListener* g_listener = nullptr;

extern "C" void handle_shutdown_signal(int) {
  if (g_listener != nullptr) g_listener->close();
}

int cmd_serve(const tools::Args& args) {
  args.reject_unknown(kServerFlags + Flags{"port", "metrics-out",
                                           "metrics-format",
                                           "metrics-interval-ms"});
  serve::Server server(server_options(args));
  const int port = args.get_int("port", 7421);
  if (port < 0 || port > 65535) throw tools::UsageError("--port out of range");
  serve::SocketListener listener(static_cast<std::uint16_t>(port));
  g_listener = &listener;
  std::signal(SIGINT, handle_shutdown_signal);
  std::signal(SIGTERM, handle_shutdown_signal);

  std::cout << "jps_serve listening on 127.0.0.1:" << listener.port()
            << std::endl;

  // Periodic metrics writer.  Each write is atomic (tmp + rename), so a
  // scraper tailing the file never reads a torn snapshot.
  const double metrics_interval_ms = args.get_double("metrics-interval-ms", 0.0);
  const std::string metrics_path = args.get("metrics-out", "");
  const std::string metrics_format = args.get("metrics-format", "openmetrics");
  if (metrics_interval_ms > 0.0 && metrics_path.empty())
    throw tools::UsageError("--metrics-interval-ms requires --metrics-out");
  std::atomic<bool> metrics_stop{false};
  util::Mutex metrics_mutex("tool.metrics_timer");
  util::CondVar metrics_cv;
  std::thread metrics_thread;
  if (metrics_interval_ms > 0.0) {
    metrics_thread = std::thread([&] {
      const auto interval =
          std::chrono::duration<double, std::milli>(metrics_interval_ms);
      util::MutexLock lock(metrics_mutex);
      while (!metrics_stop.load(std::memory_order_acquire)) {
        const auto deadline = std::chrono::steady_clock::now() + interval;
        while (!metrics_stop.load(std::memory_order_acquire) &&
               metrics_cv.wait_until(lock, deadline) !=
                   std::cv_status::timeout) {
        }
        if (metrics_stop.load(std::memory_order_acquire)) break;
        lock.unlock();
        try {
          obs::write_metrics_file(metrics_path, metrics_format,
                                  obs::MetricsSnapshot::capture());
        } catch (const std::exception& e) {
          std::fprintf(stderr, "jps_serve: periodic metrics write failed: %s\n",
                       e.what());
        }
        lock.lock();
      }
    });
  }

  // Returns once a signal closed the listener and the server drained: live
  // connections half-closed, admitted work finished, connection threads
  // joined.
  server.serve(listener);

  metrics_stop.store(true, std::memory_order_release);
  {
    util::MutexLock lock(metrics_mutex);
  }
  metrics_cv.notify_all();
  if (metrics_thread.joinable()) metrics_thread.join();
  g_listener = nullptr;

  const serve::ServerStats stats = server.stats();
  std::cout << "drained: requests=" << stats.requests
            << " plans_computed=" << stats.plans_computed
            << " coalesce_hits=" << stats.coalesce_hits
            << " cache_hits=" << stats.cache_hits
            << " shed=" << stats.shed_total()
            << " protocol_errors=" << stats.protocol_errors
            << " deadline_exceeded=" << stats.deadline_exceeded
            << " stale_served=" << stats.stale_served
            << " breaker_opens=" << stats.breaker_opens << std::endl;

  if (args.has("metrics-out")) {
    obs::write_metrics_file(args.get("metrics-out", "metrics.txt"),
                            args.get("metrics-format", "openmetrics"),
                            obs::MetricsSnapshot::capture());
  }
  return 0;
}

serve::Client connect_client(const tools::Args& args) {
  const int port = args.get_int("port", 7421);
  if (port < 1 || port > 65535) throw tools::UsageError("--port out of range");
  const std::string host = args.get("host", "127.0.0.1");

  serve::ClientRetryOptions retry;
  retry.max_attempts = 1 + std::max(0, args.get_int("retries", 0));
  retry.read_timeout_ms = args.get_double("timeout-ms", 0.0);
  serve::StreamFactory factory;
  if (retry.max_attempts > 1) {
    factory = [host, port] {
      return serve::socket_connect(host, static_cast<std::uint16_t>(port));
    };
  }
  return serve::Client(
      serve::socket_connect(host, static_cast<std::uint16_t>(port)), retry,
      std::move(factory));
}

int cmd_plan(const tools::Args& args) {
  args.reject_unknown(kClientFlags + Flags{"model", "bandwidth", "strategy",
                                           "jobs", "tenant", "deadline-ms"});
  if (!args.has("model")) throw tools::UsageError("plan requires --model");
  serve::PlanRequest request;
  request.tenant = args.get("tenant", "");
  request.model = args.get("model", "");
  request.bandwidth_mbps = args.get_double("bandwidth", 10.0);
  request.strategy = parse_strategy(args.get("strategy", "jps"));
  request.n_jobs = args.get_int("jobs", 4);
  request.deadline_ms = args.get_double("deadline-ms", 0.0);
  serve::Client client = connect_client(args);
  const serve::PlanReply reply = client.plan(request);
  print_reply(reply);
  return reply.has_plan() ? 0 : 1;
}

int cmd_ping(const tools::Args& args) {
  args.reject_unknown(kClientFlags);
  serve::Client client = connect_client(args);
  if (client.ping()) {
    std::cout << "pong\n";
    return 0;
  }
  std::cout << "no reply\n";
  return 1;
}

int cmd_stats(const tools::Args& args) {
  args.reject_unknown(kClientFlags + Flags{"watch", "interval-ms"});
  const bool watch = args.has("watch");
  const double interval_ms = args.get_double("interval-ms", 1000.0);
  if (interval_ms <= 0.0) throw tools::UsageError("--interval-ms must be > 0");
  serve::Client client = connect_client(args);
  while (true) {
    const serve::StatsReply reply = client.scrape_stats();
    if (reply.status != serve::Status::kOk) {
      std::cerr << "jps_serve: stats scrape failed: "
                << serve::status_name(reply.status) << "\n";
      return 1;
    }
    std::cout << reply.json << std::endl;
    if (!watch) return 0;
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(interval_ms));
  }
}

// Convert drained flight-recorder traces to a Chrome trace-event file so a
// remote scrape renders in Perfetto without JPS_TRACE on the server.
void write_chrome_trace(
    const std::vector<obs::TraceRecord>& records,
    const std::map<std::uint64_t, std::string>& thread_names,
    const std::string& path) {
  obs::TraceWriter writer;
  writer.set_process_name(0, "jps_serve (flight recorder)");
  for (const auto& [index, name] : thread_names)
    writer.set_thread_name(0, index, name);
  std::vector<obs::SpanRecord> spans;
  for (const obs::TraceRecord& record : records)
    spans.insert(spans.end(), record.spans.begin(), record.spans.end());
  writer.add_spans(spans);
  writer.save(path);
  // stderr: stdout carries the machine-readable dump JSON.
  std::cerr << "chrome trace: " << path << " (" << spans.size() << " spans, "
            << records.size() << " traces)" << std::endl;
}

int cmd_trace(const tools::Args& args) {
  args.reject_unknown(kClientFlags +
                      Flags{"watch", "interval-ms", "max", "chrome-out"});
  const bool watch = args.has("watch");
  const double interval_ms = args.get_double("interval-ms", 1000.0);
  if (interval_ms <= 0.0) throw tools::UsageError("--interval-ms must be > 0");
  const auto max = static_cast<std::uint32_t>(args.get_int("max", 0));
  const std::string chrome_out = args.get("chrome-out", "");
  serve::Client client = connect_client(args);
  std::vector<obs::TraceRecord> all;
  std::map<std::uint64_t, std::string> thread_names;
  while (true) {
    // One dump request per batch; keep draining while the server reports a
    // backlog so a single `jps_serve trace` empties the recorder.
    serve::TraceDumpReply reply = client.trace_dump(max);
    while (true) {
      if (reply.status != serve::Status::kOk) {
        std::cerr << "jps_serve: trace dump failed: "
                  << serve::status_name(reply.status) << "\n";
        return 1;
      }
      std::cout << reply.json << std::endl;
      if (!chrome_out.empty()) {
        const util::Json parsed = util::Json::parse(reply.json);
        const std::vector<obs::TraceRecord> batch =
            obs::flight_records_from_json(parsed);
        all.insert(all.end(), batch.begin(), batch.end());
        for (auto& [index, name] : obs::flight_thread_names_from_json(parsed))
          thread_names[index] = std::move(name);
      }
      if (max != 0 || reply.remaining == 0) break;
      reply = client.trace_dump(max);
    }
    if (!watch) break;
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(interval_ms));
  }
  if (!chrome_out.empty()) write_chrome_trace(all, thread_names, chrome_out);
  return 0;
}

// One verifiable request: the expected makespan comes from a direct Planner
// run on an identically built curve — the bit-identity contract the server
// guarantees for every successful reply, chaos or not.
struct Case {
  serve::PlanRequest request;
  double expected_makespan = 0.0;
};

std::vector<Case> build_cases(const serve::ServerOptions& options,
                              const std::string& tenant) {
  const std::vector<std::string> model_pool = {"alexnet", "vgg16", "nin"};
  const std::vector<double> bandwidth_pool = {2.0, 10.1, 40.0};
  std::vector<Case> cases;
  const profile::LatencyModel mobile(options.device);
  for (std::size_t i = 0; i < model_pool.size(); ++i) {
    Case c;
    c.request.tenant = tenant;
    c.request.model = model_pool[i];
    c.request.bandwidth_mbps = bandwidth_pool[i];
    c.request.strategy = core::Strategy::kJPS;
    c.request.n_jobs = 6;
    const double bucket = serve::quantize_bandwidth(
        c.request.bandwidth_mbps, options.bandwidth_bucket_mbps);
    const dnn::Graph graph = models::build(c.request.model);
    const auto curve = partition::ProfileCurve::build(graph, mobile,
                                                      net::Channel(bucket));
    c.expected_makespan =
        core::Planner(curve).plan(c.request.strategy, c.request.n_jobs)
            .predicted_makespan;
    cases.push_back(std::move(c));
  }
  return cases;
}

bool verify_reply(const Case& expect, const serve::PlanReply& reply,
                  const char* where) {
  if (reply.has_plan() && reply.makespan_ms == expect.expected_makespan)
    return true;
  std::fprintf(stderr,
               "selfcheck[%s]: %s mismatch (status %s, got %.17g, "
               "want %.17g)\n",
               where, expect.request.model.c_str(),
               serve::status_name(reply.status), reply.makespan_ms,
               expect.expected_makespan);
  return false;
}

// Chaos group A: every client's transport suffers scripted delays and
// 1-byte reads/writes.  Nothing is lost, so EVERY reply must verify.
int chaos_delay_short(serve::Server& server, const std::vector<Case>& cases,
                      int clients, int requests) {
  const fault::FaultSpec spec = fault::FaultSpec::parse(
      "jps-faults v1\n"
      "net_delay 0 32 0.2\n"
      "net_short 16 256\n"
      "net_delay 400 432 0.2\n"
      "net_short 512 4096\n");

  std::atomic<int> failures{0};
  std::vector<std::thread> server_threads;
  std::vector<std::thread> client_threads;
  for (int c = 0; c < clients; ++c) {
    serve::StreamPair pair = serve::make_in_process_pair();
    server_threads.emplace_back(
        [&server, s = std::shared_ptr<serve::ByteStream>(
                      std::move(pair.first))] { server.handle_connection(*s); });
    client_threads.emplace_back(
        [&cases, &failures, &spec, requests, c,
         stream = std::shared_ptr<serve::ByteStream>(std::move(pair.second))] {
          try {
            serve::Client client(std::make_unique<serve::FaultyByteStream>(
                std::make_unique<serve::BorrowedStream>(stream), spec));
            for (int r = 0; r < requests; ++r) {
              const Case& expect =
                  cases[static_cast<std::size_t>(c + r) % cases.size()];
              if (!verify_reply(expect, client.plan(expect.request), "chaos-a"))
                failures.fetch_add(1);
            }
            client.close();
          } catch (const std::exception& e) {
            std::fprintf(stderr, "selfcheck[chaos-a]: client error: %s\n",
                         e.what());
            failures.fetch_add(1);
          }
        });
  }
  for (std::thread& t : client_threads) t.join();
  for (std::thread& t : server_threads) t.join();
  return failures.load();
}

// Chaos group B: the connection dies mid-frame at a scripted byte offset —
// once while SENDING a request (the server sees a truncated frame), once a
// whole frame later (the second request dies instead).  The client's
// retry-with-reconnect must land every request, bit-identically.
int chaos_drop_retry(serve::Server& server, const std::vector<Case>& cases) {
  int failures = 0;
  std::vector<std::thread> server_threads;

  for (const std::uint64_t drop_at : {std::uint64_t{6}, std::uint64_t{48}}) {
    const fault::FaultSpec spec = fault::FaultSpec::parse(
        "jps-faults v1\n"
        "net_drop " + std::to_string(drop_at) + " 1000000000\n");
    int connection = 0;
    auto factory = [&server, &server_threads, &spec,
                    &connection]() -> std::unique_ptr<serve::ByteStream> {
      serve::StreamPair pair = serve::make_in_process_pair();
      server_threads.emplace_back(
          [&server, s = std::shared_ptr<serve::ByteStream>(std::move(
                        pair.first))] { server.handle_connection(*s); });
      std::unique_ptr<serve::ByteStream> end = std::move(pair.second);
      // Only the FIRST connection is faulty; reconnects get clean pipes
      // (the scripted outage has "ended").
      if (connection++ == 0)
        end = std::make_unique<serve::FaultyByteStream>(std::move(end), spec);
      return end;
    };

    serve::ClientRetryOptions retry;
    retry.max_attempts = 4;
    retry.backoff.backoff_base_ms = 1.0;
    retry.backoff.backoff_max_ms = 4.0;
    try {
      serve::Client client(factory(), retry, factory);
      for (int r = 0; r < 2; ++r) {
        const Case& expect = cases[static_cast<std::size_t>(r) % cases.size()];
        if (!verify_reply(expect, client.plan(expect.request), "chaos-b"))
          ++failures;
      }
      if (client.stats().reconnects == 0) {
        std::fprintf(stderr,
                     "selfcheck[chaos-b]: drop at byte %llu never fired\n",
                     static_cast<unsigned long long>(drop_at));
        ++failures;
      }
      client.close();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "selfcheck[chaos-b]: client error: %s\n", e.what());
      ++failures;
    }
  }
  for (std::thread& t : server_threads) t.join();
  return failures;
}

// Chaos group C: the SERVER's first received frame has one payload byte
// corrupted (the magic, at read offset 4 — after the length prefix, so the
// frame boundary holds).  The server must answer INVALID_ARGUMENT and keep
// the connection; every later frame is clean and must verify.
int chaos_corrupt(serve::Server& server, const std::vector<Case>& cases) {
  const fault::FaultSpec spec = fault::FaultSpec::parse(
      "jps-faults v1\n"
      "net_corrupt 4 5 255\n");

  int failures = 0;
  serve::StreamPair pair = serve::make_in_process_pair();
  std::thread server_thread(
      [&server, &spec,
       s = std::shared_ptr<serve::ByteStream>(std::move(pair.first))] {
        serve::FaultyByteStream faulty(
            std::make_unique<serve::BorrowedStream>(s), spec);
        server.handle_connection(faulty);
      });
  try {
    serve::Client client(std::move(pair.second));
    const serve::PlanReply poisoned = client.plan(cases[0].request);
    if (poisoned.status != serve::Status::kInvalidArgument) {
      std::fprintf(stderr,
                   "selfcheck[chaos-c]: corrupted frame answered %s, want "
                   "INVALID_ARGUMENT\n",
                   serve::status_name(poisoned.status));
      ++failures;
    }
    for (const Case& expect : cases)
      if (!verify_reply(expect, client.plan(expect.request), "chaos-c"))
        ++failures;
    client.close();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "selfcheck[chaos-c]: client error: %s\n", e.what());
    ++failures;
  }
  server_thread.join();
  return failures;
}

// Live-introspection leg of selfcheck: against the already-loaded server,
// (1) two STATS scrapes bracketing a plan request must both parse and show
// monotonically increasing request counters, and (2) a TRACE_DUMP drain must
// yield structurally valid span trees whose root span accounts for >= 95% of
// each trace's measured wall time.
int selfcheck_introspect(serve::Server& server, const std::vector<Case>& cases) {
  int failures = 0;
  serve::StreamPair pair = serve::make_in_process_pair();
  std::thread server_thread(
      [&server, s = std::shared_ptr<serve::ByteStream>(std::move(pair.first))] {
        server.handle_connection(*s);
      });
  try {
    serve::Client client(std::move(pair.second));

    const auto counter_value = [](const util::Json& json, const char* name) {
      const util::Json* counters = json.get("counters");
      if (counters == nullptr) return 0.0;
      const util::Json* value = counters->get(name);
      return value == nullptr ? 0.0 : value->as_double();
    };

    const serve::StatsReply before = client.scrape_stats();
    const util::Json before_json = util::Json::parse(before.json);
    if (!client.plan(cases[0].request).has_plan()) {
      std::fprintf(stderr, "selfcheck[introspect]: plan between scrapes failed\n");
      ++failures;
    }
    const serve::StatsReply after = client.scrape_stats();
    const util::Json after_json = util::Json::parse(after.json);
    for (const char* name : {"serve.requests", "serve.stats_scrapes"}) {
      const double lo = counter_value(before_json, name);
      const double hi = counter_value(after_json, name);
      if (hi <= lo) {
        std::fprintf(stderr,
                     "selfcheck[introspect]: counter %s not monotonic "
                     "(%.0f -> %.0f)\n",
                     name, lo, hi);
        ++failures;
      }
    }

    std::size_t traces = 0;
    serve::TraceDumpReply dump = client.trace_dump();
    while (true) {
      const std::vector<obs::TraceRecord> batch =
          obs::flight_records_from_json(util::Json::parse(dump.json));
      for (const obs::TraceRecord& record : batch) {
        ++traces;
        const std::string verdict = obs::validate_trace(record);
        if (!verdict.empty()) {
          std::fprintf(stderr, "selfcheck[introspect]: invalid trace: %s\n",
                       verdict.c_str());
          ++failures;
          continue;
        }
        // The root "serve.request" span must decompose (cover) at least 95%
        // of the wall time finish() measured for the trace.  0.05 ms of
        // absolute slack absorbs the tracer's own fixed bookkeeping, which
        // would otherwise dominate sub-0.1 ms cache-hit traces.
        double root_dur = 0.0;
        for (const obs::SpanRecord& span : record.spans)
          if (span.parent_span_id == 0 || span.name == "serve.request")
            root_dur = std::max(root_dur, span.dur_ms);
        if (record.dur_ms > 0.0 && root_dur + 0.05 < 0.95 * record.dur_ms) {
          std::fprintf(stderr,
                       "selfcheck[introspect]: root span covers %.3f of "
                       "%.3f ms (< 95%%)\n",
                       root_dur, record.dur_ms);
          ++failures;
        }
      }
      if (dump.remaining == 0) break;
      dump = client.trace_dump();
    }
    if (traces == 0) {
      std::fprintf(stderr, "selfcheck[introspect]: flight recorder is empty\n");
      ++failures;
    }
    std::cout << "selfcheck[introspect]: traces=" << traces
              << " requests=" << counter_value(after_json, "serve.requests")
              << "\n";
    client.close();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "selfcheck[introspect]: %s\n", e.what());
    ++failures;
  }
  server_thread.join();
  return failures;
}

int cmd_selfcheck(const tools::Args& args) {
  args.reject_unknown(kServerFlags + Flags{"clients", "requests", "chaos"});
  const int clients = args.get_int("clients", 8);
  const int requests = args.get_int("requests", 16);
  if (clients < 1 || requests < 1)
    throw tools::UsageError("--clients and --requests must be >= 1");
  const bool chaos = args.has("chaos");

  serve::ServerOptions options = server_options(args);
  options.tenant_rate_per_sec = 0.0;  // selfcheck verifies replies, not sheds
  // Never shed in selfcheck: every reply must be verifiable.
  options.max_inflight = static_cast<std::size_t>(clients) + 8;
  // Retain every request's trace so the introspection leg has data.
  options.flight_recorder_sample_every = 1;
  serve::Server server(options);

  const std::vector<Case> cases = build_cases(options, "selfcheck");

  std::atomic<int> failures{0};
  std::vector<std::thread> server_threads;
  std::vector<std::thread> client_threads;
  for (int c = 0; c < clients; ++c) {
    serve::StreamPair pair = serve::make_in_process_pair();
    server_threads.emplace_back(
        [&server, s = std::shared_ptr<serve::ByteStream>(
                      std::move(pair.first))] { server.handle_connection(*s); });
    client_threads.emplace_back(
        [&cases, &failures, requests, c,
         stream = std::shared_ptr<serve::ByteStream>(std::move(pair.second))]() {
          try {
            serve::Client client(std::make_unique<serve::BorrowedStream>(stream));
            if (!client.ping()) throw std::runtime_error("ping failed");
            for (int r = 0; r < requests; ++r) {
              const Case& expect =
                  cases[static_cast<std::size_t>(c + r) % cases.size()];
              if (!verify_reply(expect, client.plan(expect.request), "base"))
                failures.fetch_add(1);
            }
            client.close();
          } catch (const std::exception& e) {
            std::fprintf(stderr, "selfcheck: client error: %s\n", e.what());
            failures.fetch_add(1);
          }
        });
  }
  for (std::thread& t : client_threads) t.join();
  for (std::thread& t : server_threads) t.join();

  failures.fetch_add(selfcheck_introspect(server, cases));

  if (chaos) {
    failures.fetch_add(chaos_delay_short(server, cases, clients, requests));
    failures.fetch_add(chaos_drop_retry(server, cases));
    failures.fetch_add(chaos_corrupt(server, cases));
    if (server.inflight() != 0) {
      std::fprintf(stderr, "selfcheck: %zu computations leaked in flight\n",
                   server.inflight());
      failures.fetch_add(1);
    }
  }
  server.stop();

  const serve::ServerStats stats = server.stats();
  std::cout << "selfcheck: clients=" << clients << " requests="
            << stats.requests << " plans_computed=" << stats.plans_computed
            << " coalesce_hits=" << stats.coalesce_hits
            << " cache_hits=" << stats.cache_hits
            << " protocol_errors=" << stats.protocol_errors
            << " chaos=" << (chaos ? "on" : "off")
            << " failures=" << failures.load() << std::endl;
  return failures.load() == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const jps::tools::Args args(argc, argv);
  const std::string command = args.command();
  try {
    if (command == "serve") return cmd_serve(args);
    if (command == "plan") return cmd_plan(args);
    if (command == "ping") return cmd_ping(args);
    if (command == "stats") return cmd_stats(args);
    if (command == "trace") return cmd_trace(args);
    if (command == "selfcheck") return cmd_selfcheck(args);
    if (!command.empty())
      std::cerr << "jps_serve: unknown command '" << command << "'\n\n";
    usage();
    return jps::tools::kExitUsage;
  } catch (const jps::tools::UsageError& e) {
    std::cerr << "jps_serve: " << e.what() << "\n\n";
    usage();
    return jps::tools::kExitUsage;
  } catch (const std::exception& e) {
    std::cerr << "jps_serve: " << e.what() << "\n";
    return 1;
  }
}
