// Live introspection (protocol v3 STATS / TRACE_DUMP) against a real
// server: JSON validity, span-tree structure, client-side trace
// propagation, version gating at the connection loop, and a concurrent
// scrape-under-load stress (the TSan job runs this file).
#include <gtest/gtest.h>

#include <atomic>
#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/trace_context.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/transport.h"
#include "util/json.h"

namespace jps::serve {
namespace {

PlanRequest request_for(const std::string& model, double mbps) {
  PlanRequest request;
  request.tenant = "introspect";
  request.model = model;
  request.bandwidth_mbps = mbps;
  request.strategy = core::Strategy::kJPS;
  request.n_jobs = 4;
  return request;
}

ServerOptions traced_options() {
  ServerOptions options;
  options.flight_recorder_sample_every = 1;  // retain every request
  return options;
}

// One in-process connection: the server handles `pair.first` on its own
// thread; the caller talks through `pair.second`.
struct Connection {
  explicit Connection(Server& server) {
    StreamPair pair = make_in_process_pair();
    thread = std::thread(
        [&server, s = std::shared_ptr<ByteStream>(std::move(pair.first))] {
          server.handle_connection(*s);
        });
    end = std::move(pair.second);
  }
  ~Connection() { thread.join(); }
  std::unique_ptr<ByteStream> end;
  std::thread thread;
};

class IntrospectTest : public ::testing::Test {
 protected:
  void SetUp() override { obs::FlightRecorder::global().reset(); }
  void TearDown() override { obs::FlightRecorder::global().reset(); }
};

TEST_F(IntrospectTest, StatsOpReturnsLiveCountersAsJson) {
  Server server(traced_options());
  Connection conn(server);
  Client client(std::move(conn.end));

  ASSERT_TRUE(client.plan(request_for("alexnet", 8.0)).has_plan());
  const StatsReply reply = client.scrape_stats();
  EXPECT_EQ(reply.status, Status::kOk);

  const util::Json json = util::Json::parse(reply.json);
  const util::Json* counters = json.get("counters");
  ASSERT_NE(counters, nullptr);
  const util::Json* requests = counters->get("serve.requests");
  ASSERT_NE(requests, nullptr);
  EXPECT_GE(requests->as_double(), 1.0);
  EXPECT_NE(json.get("histograms"), nullptr);
  EXPECT_NE(json.get("exemplars"), nullptr);

  client.close();
  server.stop();
  EXPECT_EQ(server.stats().stats_scrapes, 1u);
}

TEST_F(IntrospectTest, TraceDumpYieldsValidSpanTrees) {
  Server server(traced_options());
  Connection conn(server);
  Client client(std::move(conn.end));

  for (int i = 0; i < 3; ++i)
    ASSERT_TRUE(client.plan(request_for("alexnet", 8.0)).has_plan());

  const TraceDumpReply reply = client.trace_dump();
  EXPECT_EQ(reply.status, Status::kOk);
  const std::vector<obs::TraceRecord> records =
      obs::flight_records_from_json(util::Json::parse(reply.json));
  ASSERT_EQ(records.size(), 3u);

  bool saw_compute = false;
  for (const obs::TraceRecord& record : records) {
    EXPECT_EQ(obs::validate_trace(record), "");
    EXPECT_EQ(record.status, "OK");
    EXPECT_FALSE(record.error);
    bool saw_root = false;
    for (const obs::SpanRecord& span : record.spans) {
      if (span.name == "serve.request") saw_root = true;
      if (span.name == "serve.plan_compute") saw_compute = true;
    }
    EXPECT_TRUE(saw_root);
  }
  // At least the first (cache-miss) request planned, on its connection
  // thread.
  EXPECT_TRUE(saw_compute);

  // The recorder was drained: a second dump is empty.
  const TraceDumpReply again = client.trace_dump();
  EXPECT_EQ(again.remaining, 0u);
  EXPECT_TRUE(
      obs::flight_records_from_json(util::Json::parse(again.json)).empty());

  client.close();
  server.stop();
  EXPECT_EQ(server.stats().trace_dumps, 2u);
}

TEST_F(IntrospectTest, ClientPropagatesTheCallersTraceContext) {
  Server server(traced_options());
  Connection conn(server);
  Client client(std::move(conn.end));

  const obs::TraceContext caller = obs::TraceContext::start();
  {
    obs::TraceScope scope(caller);
    ASSERT_TRUE(client.plan(request_for("nin", 4.0)).has_plan());
  }

  const std::vector<obs::TraceRecord> records =
      obs::flight_records_from_json(
          util::Json::parse(client.trace_dump().json));
  ASSERT_EQ(records.size(), 1u);
  // The server-side trace adopted the caller's trace id, and its root span
  // parents onto the caller's span — one causal tree across the wire.
  EXPECT_EQ(records[0].trace_hi, caller.trace_hi);
  EXPECT_EQ(records[0].trace_lo, caller.trace_lo);
  bool root_links_to_caller = false;
  for (const obs::SpanRecord& span : records[0].spans)
    if (span.name == "serve.request" &&
        span.parent_span_id == caller.span_id)
      root_links_to_caller = true;
  EXPECT_TRUE(root_links_to_caller);

  client.close();
  server.stop();
}

TEST_F(IntrospectTest, PreV3IntrospectionFramesGetErrorRepliesNotHangups) {
  Server server(traced_options());
  Connection conn(server);
  std::unique_ptr<ByteStream> stream = std::move(conn.end);

  // Hand-build a kStats frame claiming version 2: the connection must stay
  // up and answer INVALID_ARGUMENT (as a plan reply, the error vocabulary
  // every client understands).
  std::string stats = encode_stats_request();
  stats[1] = 2;
  write_frame(*stream, stats);
  const auto error = read_frame(*stream);
  ASSERT_TRUE(error.has_value());
  const PlanReply reply = decode_plan_reply(*error);
  EXPECT_EQ(reply.status, Status::kInvalidArgument);
  EXPECT_NE(reply.message.find("version 3"), std::string::npos);

  // The same connection still serves plan frames afterwards.
  write_frame(*stream, encode_plan_request(request_for("alexnet", 8.0)));
  const auto ok = read_frame(*stream);
  ASSERT_TRUE(ok.has_value());
  EXPECT_TRUE(decode_plan_reply(*ok).has_plan());

  stream->close();
  server.stop();
  EXPECT_EQ(server.stats().protocol_errors, 1u);
}

// 16 loaded clients with two introspection scrapers riding alongside:
// counters must be monotonic across scrapes, and every dumped trace must
// parse and validate while the server is under concurrent load.  Each
// scraper finishes one round before the clients start, and the dump scraper
// drains once more after they finish, so every assertion holds however the
// threads are scheduled.
TEST_F(IntrospectTest, ScrapesStayConsistentUnderConcurrentLoad) {
  constexpr int kClients = 16;
  constexpr int kRequests = 20;

  Server server(traced_options());
  std::atomic<int> failures{0};
  std::atomic<int> plans_done{0};
  std::atomic<bool> stop_scrapers{false};
  std::atomic<int> scrapes{0};
  std::atomic<int> traces_seen{0};
  std::latch scrapers_ready(2);

  std::thread stats_scraper([&] {
    Connection conn(server);
    Client client(std::move(conn.end));
    double last = -1.0;
    do {
      const util::Json json = util::Json::parse(client.scrape_stats().json);
      const util::Json* counters = json.get("counters");
      const util::Json* requests =
          counters == nullptr ? nullptr : counters->get("serve.requests");
      const double now = requests == nullptr ? 0.0 : requests->as_double();
      if (now < last) failures.fetch_add(1);
      last = now;
      if (scrapes.fetch_add(1) == 0) scrapers_ready.count_down();
    } while (!stop_scrapers.load(std::memory_order_acquire));
    client.close();
  });

  std::thread dump_scraper([&] {
    Connection conn(server);
    Client client(std::move(conn.end));
    const auto drain = [&] {
      const std::vector<obs::TraceRecord> records =
          obs::flight_records_from_json(
              util::Json::parse(client.trace_dump().json));
      for (const obs::TraceRecord& record : records) {
        if (!obs::validate_trace(record).empty()) failures.fetch_add(1);
        traces_seen.fetch_add(1);
      }
    };
    drain();
    scrapers_ready.count_down();
    while (!stop_scrapers.load(std::memory_order_acquire)) drain();
    drain();  // after the clients: their traces are in the recorder
    client.close();
  });

  scrapers_ready.wait();
  std::vector<std::unique_ptr<Connection>> connections;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    connections.push_back(std::make_unique<Connection>(server));
    clients.emplace_back(
        [&, c, end = std::move(connections.back()->end)]() mutable {
          Client client(std::move(end));
          const char* models[] = {"alexnet", "vgg16", "nin"};
          for (int r = 0; r < kRequests; ++r) {
            const PlanRequest request =
                request_for(models[(c + r) % 3], 4.0 + (c + r) % 3);
            if (!client.plan(request).has_plan()) failures.fetch_add(1);
            plans_done.fetch_add(1);
          }
          client.close();
        });
  }

  for (std::thread& t : clients) t.join();
  stop_scrapers.store(true, std::memory_order_release);
  stats_scraper.join();
  dump_scraper.join();
  connections.clear();  // joins the server-side threads
  server.stop();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(scrapes.load(), 0);
  EXPECT_GT(traces_seen.load(), 0);
  EXPECT_EQ(plans_done.load(), kClients * kRequests);
  EXPECT_GE(server.stats().stats_scrapes, 1u);
  EXPECT_GE(server.stats().trace_dumps, 1u);
}

}  // namespace
}  // namespace jps::serve
