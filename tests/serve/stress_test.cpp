// The acceptance stress: 16 concurrent clients, mixed tenants, repeated
// (model, bandwidth-bucket) pairs, full wire protocol over in-process
// streams served by Server::serve.  Demonstrates (under TSan in CI):
//   * coalescing engages (coalesce-hit counter > 0) and the cache answers
//     repeats (cache-hit counter > 0),
//   * every OK reply is bit-identical to a direct Planner::plan run,
//   * overload sheds RESOURCE_EXHAUSTED instead of deadlocking,
//   * the server drains cleanly afterwards.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "direct_reply.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/transport.h"

namespace jps::serve {
namespace {

constexpr int kClients = 16;
constexpr int kRequestsPerClient = 24;

TEST(ServeStress, SixteenConcurrentClientsMixedTenants) {
  ServerOptions options;
  options.max_inflight = 6;  // small enough that bursts shed
  options.bandwidth_bucket_mbps = 0.25;
  // Cache hits answer inline, so only a key's first-miss window can
  // coalesce; holding each leader open 2 ms keeps that window wide enough
  // for concurrent duplicates to join it on every run.
  options.debug_plan_delay_ms = 2.0;
  Server server(options);

  // Request mix: 2 models x 2 bandwidth buckets x 2 job counts = 8 distinct
  // keys shared by 16 clients, so identical requests collide constantly.
  std::vector<PlanRequest> mix;
  for (const char* model : {"alexnet", "nin"}) {
    for (const double mbps : {3.1, 24.9}) {
      for (const int jobs : {4, 9}) {
        PlanRequest request;
        request.model = model;
        request.bandwidth_mbps = mbps;
        request.strategy = core::Strategy::kJPS;
        request.n_jobs = jobs;
        mix.push_back(request);
      }
    }
  }

  // Ground truth, computed directly before any serving starts.
  std::vector<PlanReply> expected;
  for (const PlanRequest& request : mix)
    expected.push_back(direct_reply(options, request));

  std::atomic<int> ok_replies{0};
  std::atomic<int> shed_replies{0};
  std::atomic<int> mismatches{0};
  std::atomic<int> client_errors{0};

  InProcessListener listener;
  std::thread serving([&] { server.serve(listener); });
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      try {
        Client client(listener.connect());
        for (int r = 0; r < kRequestsPerClient; ++r) {
          const std::size_t k = static_cast<std::size_t>(c + r) % mix.size();
          PlanRequest request = mix[k];
          request.tenant = "tenant-" + std::to_string(c % 4);  // mixed tenants
          const PlanReply reply = client.plan(request);
          if (reply.status == Status::kResourceExhausted) {
            shed_replies.fetch_add(1);
            continue;  // shed is an acceptable answer under load
          }
          if (reply.ok()) ok_replies.fetch_add(1);
          // Bit-identity: makespan, bucket AND mix must equal the direct run.
          if (!same_plan(reply, expected[k])) mismatches.fetch_add(1);
        }
        client.close();
      } catch (const std::exception&) {
        client_errors.fetch_add(1);
      }
    });
  }

  for (std::thread& t : clients) t.join();
  listener.close();  // serve() drains and joins its connection threads
  serving.join();

  const ServerStats stats = server.stats();
  EXPECT_EQ(client_errors.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(ok_replies.load(), 0);
  EXPECT_EQ(ok_replies.load() + shed_replies.load(),
            kClients * kRequestsPerClient);
  EXPECT_EQ(stats.requests,
            static_cast<std::uint64_t>(kClients * kRequestsPerClient));
  // 16 clients hammering 8 keys: coalescing must have engaged, and repeats
  // after the first computation must have been answered from the cache.
  EXPECT_GT(stats.coalesce_hits, 0u);
  EXPECT_GT(stats.cache_hits, 0u);
  // Shedding is load-dependent (may be 0 on a fast machine) but must be
  // consistent with what clients saw.
  EXPECT_EQ(stats.shed_overload,
            static_cast<std::uint64_t>(shed_replies.load()));
  // Nothing leaked: all computations finished, the map is empty.
  EXPECT_EQ(server.inflight(), 0u);
}

TEST(ServeStress, DrainUnderLoadNeverDeadlocks) {
  ServerOptions options;
  options.debug_plan_delay_ms = 5.0;
  Server server(options);

  InProcessListener listener;
  std::thread serving([&] { server.serve(listener); });
  std::vector<std::thread> clients;
  std::atomic<int> replies{0};
  for (int c = 0; c < 8; ++c) {
    clients.emplace_back([&, c, end = listener.connect()] {
      try {
        for (int r = 0; r < 50; ++r) {
          PlanRequest request;
          request.tenant = "t";
          request.model = "alexnet";
          request.bandwidth_mbps = 1.0 + c;
          request.n_jobs = 2;
          write_frame(*end, encode_plan_request(request));
          const auto payload = read_frame(*end);
          if (!payload) return;  // server drained us mid-run: fine
          replies.fetch_add(1);
        }
      } catch (const std::exception&) {
        // Writes may fail once the server half-closes: also fine.
      }
    });
  }

  // Let some traffic flow, then drain while clients are still sending.
  while (replies.load() < 20) std::this_thread::yield();
  server.stop();  // must not deadlock while serve() runs its connections

  for (std::thread& t : clients) t.join();
  listener.close();
  serving.join();
  EXPECT_TRUE(server.stopped());
  EXPECT_EQ(server.inflight(), 0u);
}

}  // namespace
}  // namespace jps::serve
