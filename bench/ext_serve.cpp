// Extension bench: closed-loop throughput/latency of the plan server.
//
// N client threads drive one in-process serve::Server back to back (closed
// loop: each client's next request waits for its previous reply), cycling a
// small set of (model, bandwidth-bucket) keys so the serving fast paths —
// request coalescing and the sharded plan cache — carry the steady state,
// exactly as a fleet of devices sharing network conditions would.  A second
// phase replays the same load through serve::FaultyByteStream (scripted
// delays + 1-byte transfers) and reports GOODPUT under faults — successful,
// verified replies per second — the serving-side robustness figure.  Emits
// BENCH_ext_serve.json with requests/sec, goodput_under_faults_per_sec and
// the end-to-end latency distribution (p50/p95/p99); CI gates it with
// jps_bench_diff.
#include <atomic>
#include <chrono>
#include <iostream>
#include <memory>
#include <thread>
#include <vector>

#include "common.h"
#include "fault/fault_spec.h"
#include "obs/flight_recorder.h"
#include "reporter.h"
#include "serve/chaos.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/transport.h"
#include "util/json.h"
#include "util/table.h"

namespace {

using namespace jps;

// Scripted chaos for the goodput phase: a 1-byte-transfer window and a tiny
// delay window repeating every 8 KiB of each stream direction, so faults
// keep biting however long the run is.  Delays and short transfers lose no
// bytes — every reply must still verify, making goodput == throughput the
// pass condition and the slowdown the measured cost.
fault::FaultSpec chaos_spec() {
  fault::FaultSpec spec;
  for (int k = 0; k < 4096; ++k) {
    const double base = static_cast<double>(k) * 8192.0;
    spec.events.push_back(
        {fault::FaultKind::kNetShort, base, base + 256.0, 0.0});
    spec.events.push_back(
        {fault::FaultKind::kNetDelay, base + 4096.0, base + 4160.0, 0.02});
  }
  return spec;
}

}  // namespace

int main() {
  bench::print_banner("Extension: plan server throughput",
                      "Closed-loop clients against the in-process server: "
                      "coalescing + sharded cache on the hot path");

  const int kClients = bench::quick_scaled(8, 4);
  const int kRequests = bench::quick_scaled(400, 60);  // per client
  const int kWarmup = bench::quick_scaled(40, 10);

  bench::BenchReporter reporter("ext_serve");
  reporter.set_warmup(kWarmup);
  reporter.set_iterations(kRequests);
  reporter.note("clients", kClients);
  reporter.note("requests_per_client", kRequests);

  serve::ServerOptions options;
  options.max_inflight = static_cast<std::size_t>(kClients) + 4;
  serve::Server server(options);

  // The request mix: three models at two buckets each; every key repeats
  // across clients so the steady state is cache hits with occasional
  // coalesced bursts.
  std::vector<serve::PlanRequest> mix;
  for (const char* model : {"alexnet", "vgg16", "nin"}) {
    for (const double mbps : {4.0, 25.0}) {
      serve::PlanRequest request;
      request.tenant = "bench";
      request.model = model;
      request.bandwidth_mbps = mbps;
      request.strategy = core::Strategy::kJPS;
      request.n_jobs = 8;
      mix.push_back(request);
    }
  }
  reporter.note("distinct_keys", static_cast<int>(mix.size()));

  obs::Histogram& latency = reporter.metric("request_latency_ms");
  std::atomic<int> failures{0};

  // Mid-run introspection: a live STATS connection rides alongside the load,
  // proving scrapes never disrupt serving and counters only move forward.
  std::atomic<bool> scrape_stop{false};
  std::atomic<int> scrape_failures{0};
  std::atomic<int> scrapes{0};
  serve::StreamPair scrape_pair = serve::make_in_process_pair();
  std::thread scrape_server(
      [&server, s = std::shared_ptr<serve::ByteStream>(
                    std::move(scrape_pair.first))] {
        server.handle_connection(*s);
      });
  std::thread scraper(
      [&, end = std::shared_ptr<serve::ByteStream>(
              std::move(scrape_pair.second))] {
        try {
          serve::Client client(std::make_unique<serve::BorrowedStream>(end));
          double last_requests = -1.0;
          while (!scrape_stop.load(std::memory_order_acquire)) {
            const serve::StatsReply reply = client.scrape_stats();
            const util::Json json = util::Json::parse(reply.json);
            const util::Json* counters = json.get("counters");
            const util::Json* requests =
                counters == nullptr ? nullptr
                                    : counters->get("serve.requests");
            const double now = requests == nullptr ? 0.0
                                                   : requests->as_double();
            if (now < last_requests) scrape_failures.fetch_add(1);
            last_requests = now;
            scrapes.fetch_add(1);
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
          }
          client.close();
        } catch (const std::exception& e) {
          std::cerr << "ext_serve: stats scraper failed: " << e.what() << "\n";
          scrape_failures.fetch_add(1);
        }
      });

  std::vector<std::thread> server_threads;
  std::vector<std::thread> client_threads;
  const auto start = std::chrono::steady_clock::now();
  for (int c = 0; c < kClients; ++c) {
    serve::StreamPair pair = serve::make_in_process_pair();
    server_threads.emplace_back(
        [&server, s = std::shared_ptr<serve::ByteStream>(
                      std::move(pair.first))] { server.handle_connection(*s); });
    client_threads.emplace_back(
        [&, c, end = std::shared_ptr<serve::ByteStream>(
                   std::move(pair.second))]() {
          serve::Client client(std::make_unique<serve::BorrowedStream>(end));
          for (int r = 0; r < kWarmup + kRequests; ++r) {
            const serve::PlanRequest& request =
                mix[static_cast<std::size_t>(c + r) % mix.size()];
            const auto t0 = std::chrono::steady_clock::now();
            const serve::PlanReply reply = client.plan(request);
            const double ms =
                std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
            if (!reply.ok()) failures.fetch_add(1);
            if (r >= kWarmup) latency.record(ms);
          }
          client.close();
        });
  }
  for (std::thread& t : client_threads) t.join();
  for (std::thread& t : server_threads) t.join();
  scrape_stop.store(true, std::memory_order_release);
  scraper.join();
  scrape_server.join();
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  const double total_requests =
      static_cast<double>(kClients) * (kWarmup + kRequests);
  const double rps = total_requests / elapsed_s;
  reporter.record("requests_per_sec", rps);

  // ---- Phase 2: the same closed loop through chaos transports. ----
  const fault::FaultSpec chaos = chaos_spec();
  obs::Histogram& chaos_latency = reporter.metric("chaos_request_latency_ms");
  std::atomic<long> chaos_ok{0};
  std::atomic<int> chaos_failures{0};
  const int kChaosRequests = bench::quick_scaled(120, 30);  // per client

  std::vector<std::thread> chaos_server_threads;
  std::vector<std::thread> chaos_client_threads;
  const auto chaos_start = std::chrono::steady_clock::now();
  for (int c = 0; c < kClients; ++c) {
    serve::StreamPair pair = serve::make_in_process_pair();
    chaos_server_threads.emplace_back(
        [&server, s = std::shared_ptr<serve::ByteStream>(
                      std::move(pair.first))] { server.handle_connection(*s); });
    chaos_client_threads.emplace_back(
        [&, c, end = std::shared_ptr<serve::ByteStream>(
                   std::move(pair.second))]() {
          serve::Client client(std::make_unique<serve::FaultyByteStream>(
              std::make_unique<serve::BorrowedStream>(end), chaos));
          for (int r = 0; r < kChaosRequests; ++r) {
            const serve::PlanRequest& request =
                mix[static_cast<std::size_t>(c + r) % mix.size()];
            const auto t0 = std::chrono::steady_clock::now();
            const serve::PlanReply reply = client.plan(request);
            const double ms =
                std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
            chaos_latency.record(ms);
            if (reply.ok())
              chaos_ok.fetch_add(1);
            else
              chaos_failures.fetch_add(1);
          }
          client.close();
        });
  }
  for (std::thread& t : chaos_client_threads) t.join();
  for (std::thread& t : chaos_server_threads) t.join();
  const double chaos_elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    chaos_start)
          .count();
  server.stop();

  const double goodput = static_cast<double>(chaos_ok.load()) / chaos_elapsed_s;
  reporter.record("goodput_under_faults_per_sec", goodput);
  reporter.note("chaos_requests_per_client", kChaosRequests);
  reporter.note("chaos_failures", chaos_failures.load());

  const serve::ServerStats stats = server.stats();
  reporter.note("coalesce_hits", static_cast<int>(stats.coalesce_hits));
  reporter.note("cache_hits", static_cast<int>(stats.cache_hits));
  reporter.note("plans_computed", static_cast<int>(stats.plans_computed));
  const int traces_recorded =
      static_cast<int>(obs::FlightRecorder::global().size());
  reporter.note("stats_scrapes", scrapes.load());
  reporter.note("traces_recorded", traces_recorded);

  const obs::HistogramSnapshot snap = latency.snapshot();
  util::Table table({"metric", "value"});
  table.add_row({"clients", std::to_string(kClients)});
  table.add_row({"requests", std::to_string(static_cast<long>(total_requests))});
  table.add_row({"requests/sec", util::format_fixed(rps, 0)});
  table.add_row({"p50 (ms)", util::format_ms(snap.percentile(50))});
  table.add_row({"p95 (ms)", util::format_ms(snap.percentile(95))});
  table.add_row({"p99 (ms)", util::format_ms(snap.percentile(99))});
  table.add_row({"coalesce hits", std::to_string(stats.coalesce_hits)});
  table.add_row({"cache hits", std::to_string(stats.cache_hits)});
  table.add_row({"plans computed", std::to_string(stats.plans_computed)});
  table.add_row({"goodput under faults/sec", util::format_fixed(goodput, 0)});
  const obs::HistogramSnapshot chaos_snap = chaos_latency.snapshot();
  table.add_row({"chaos p95 (ms)", util::format_ms(chaos_snap.percentile(95))});
  std::cout << table;

  if (failures.load() != 0 || chaos_failures.load() != 0) {
    std::cerr << "ext_serve: " << failures.load() << " failed replies, "
              << chaos_failures.load() << " failed chaos replies\n";
    return 1;
  }
  if (scrape_failures.load() != 0 || scrapes.load() == 0 ||
      traces_recorded == 0) {
    std::cerr << "ext_serve: introspection gate failed (scrapes="
              << scrapes.load() << " scrape_failures="
              << scrape_failures.load() << " traces=" << traces_recorded
              << ")\n";
    return 1;
  }
  return 0;
}
