// The acceptance stress: 16 concurrent clients, mixed tenants, repeated
// (model, bandwidth-bucket) pairs, full wire protocol over in-process
// streams.  Demonstrates (under TSan in CI):
//   * coalescing engages (coalesce-hit counter > 0) and the cache answers
//     repeats (cache-hit counter > 0),
//   * every OK reply is bit-identical to a direct Planner::plan run,
//   * overload sheds RESOURCE_EXHAUSTED instead of deadlocking,
//   * the server drains cleanly afterwards.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/planner.h"
#include "models/registry.h"
#include "net/channel.h"
#include "partition/profile_curve.h"
#include "profile/latency_model.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/transport.h"

namespace jps::serve {
namespace {

constexpr int kClients = 16;
constexpr int kRequestsPerClient = 24;

struct Expected {
  double makespan = 0.0;
  std::map<std::uint32_t, std::uint32_t> mix;
};

TEST(ServeStress, SixteenConcurrentClientsMixedTenants) {
  ServerOptions options;
  options.workers = 4;
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
  const profile::LatencyModel mobile(options.device);
  std::vector<Expected> expected;
  for (const PlanRequest& request : mix) {
    const double bucket = quantize_bandwidth(request.bandwidth_mbps,
                                             options.bandwidth_bucket_mbps);
    const dnn::Graph graph = models::build(request.model);
    const auto curve =
        partition::ProfileCurve::build(graph, mobile, net::Channel(bucket));
    const core::ExecutionPlan plan =
        core::Planner(curve).plan(request.strategy, request.n_jobs);
    Expected e;
    e.makespan = plan.predicted_makespan;
    for (const core::JobAssignment& job : plan.jobs)
      ++e.mix[static_cast<std::uint32_t>(job.cut_index)];
    expected.push_back(std::move(e));
  }

  std::atomic<int> ok_replies{0};
  std::atomic<int> shed_replies{0};
  std::atomic<int> mismatches{0};
  std::atomic<int> client_errors{0};

  std::vector<std::thread> server_threads;
  std::vector<std::thread> client_threads;
  for (int c = 0; c < kClients; ++c) {
    StreamPair pair = make_in_process_pair();
    server_threads.emplace_back(
        [&server, s = std::shared_ptr<ByteStream>(std::move(pair.first))] {
          server.handle_connection(*s);
        });
    client_threads.emplace_back([&, c,
                                 end = std::shared_ptr<ByteStream>(
                                     std::move(pair.second))]() mutable {
      try {
        Client client(std::make_unique<BorrowedStream>(end));
        for (int r = 0; r < kRequestsPerClient; ++r) {
          const std::size_t k = static_cast<std::size_t>(c + r) % mix.size();
          PlanRequest request = mix[k];
          request.tenant = "tenant-" + std::to_string(c % 4);  // mixed tenants
          const PlanReply reply = client.plan(request);
          if (reply.status == Status::kResourceExhausted) {
            shed_replies.fetch_add(1);
            continue;  // shed is an acceptable answer under load
          }
          if (!reply.ok()) {
            mismatches.fetch_add(1);
            continue;
          }
          ok_replies.fetch_add(1);
          // Bit-identity: makespan AND mix must equal the direct run.
          const Expected& want = expected[k];
          bool same = reply.makespan_ms == want.makespan &&
                      reply.mix.size() == want.mix.size();
          if (same) {
            for (const CutMix& m : reply.mix)
              same = same && want.mix.count(m.cut) != 0 &&
                     want.mix.at(m.cut) == m.count;
          }
          if (!same) mismatches.fetch_add(1);
        }
        client.close();
      } catch (const std::exception&) {
        client_errors.fetch_add(1);
      }
    });
  }

  for (std::thread& t : client_threads) t.join();
  for (std::thread& t : server_threads) t.join();
  server.stop();

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
  options.workers = 2;
  options.debug_plan_delay_ms = 5.0;
  Server server(options);

  std::vector<std::thread> server_threads;
  std::vector<std::thread> client_threads;
  std::atomic<int> replies{0};
  for (int c = 0; c < 8; ++c) {
    StreamPair pair = make_in_process_pair();
    server_threads.emplace_back(
        [&server, s = std::shared_ptr<ByteStream>(std::move(pair.first))] {
          server.handle_connection(*s);
        });
    client_threads.emplace_back([&, c,
                                 end = std::shared_ptr<ByteStream>(
                                     std::move(pair.second))]() {
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
  server.stop();  // must not deadlock (ThreadPool shutdown contract)

  for (std::thread& t : client_threads) t.join();
  for (std::thread& t : server_threads) t.join();
  EXPECT_TRUE(server.stopped());
  EXPECT_EQ(server.inflight(), 0u);
}

}  // namespace
}  // namespace jps::serve
