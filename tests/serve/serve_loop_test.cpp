// Server::serve over a real SocketListener: connection threads are reused
// (sequential churn creates no thread per connection), closing the listener
// mid-load drains every admitted request exactly once, and closing an idle
// listener returns promptly with every connection thread joined.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <future>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/planner.h"
#include "models/registry.h"
#include "net/channel.h"
#include "obs/obs.h"
#include "partition/profile_curve.h"
#include "profile/latency_model.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/transport.h"

namespace jps::serve {
namespace {

// Live threads of this process, from /proc/self/status.
int live_threads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return -1;
}

std::size_t named_threads() {
  return obs::Registry::global().thread_names().size();
}

PlanRequest request_for(const std::string& model, double mbps, int jobs) {
  PlanRequest request;
  request.tenant = "serve-loop";
  request.model = model;
  request.bandwidth_mbps = mbps;
  request.strategy = core::Strategy::kJPS;
  request.n_jobs = jobs;
  return request;
}

// The reply a direct Planner run gives for `request`.
PlanReply direct_reply(const ServerOptions& options,
                       const PlanRequest& request) {
  const double bucket = quantize_bandwidth(request.bandwidth_mbps,
                                           options.bandwidth_bucket_mbps);
  const profile::LatencyModel mobile(options.device);
  const auto curve = partition::ProfileCurve::build(
      models::build(request.model), mobile, net::Channel(bucket));
  const core::ExecutionPlan plan =
      core::Planner(curve).plan(request.strategy, request.n_jobs);
  PlanReply reply;
  reply.bandwidth_bucket_mbps = bucket;
  reply.makespan_ms = plan.predicted_makespan;
  std::map<std::uint32_t, std::uint32_t> mix;
  for (const core::JobAssignment& job : plan.jobs)
    ++mix[static_cast<std::uint32_t>(job.cut_index)];
  for (const auto& [cut, count] : mix) reply.mix.push_back({cut, count});
  return reply;
}

bool same_plan(const PlanReply& got, const PlanReply& want) {
  if (!got.ok() || got.makespan_ms != want.makespan_ms ||
      got.bandwidth_bucket_mbps != want.bandwidth_bucket_mbps ||
      got.mix.size() != want.mix.size())
    return false;
  for (std::size_t i = 0; i < got.mix.size(); ++i) {
    if (got.mix[i].cut != want.mix[i].cut ||
        got.mix[i].count != want.mix[i].count)
      return false;
  }
  return true;
}

TEST(ServeLoop, SequentialChurnReusesConnectionThreads) {
  constexpr int kConnections = 2000;
  const ServerOptions options;
  const std::vector<PlanRequest> keys = {
      request_for("alexnet", 4.0, 8), request_for("alexnet", 25.0, 8),
      request_for("nin", 10.0, 8), request_for("nin", 50.0, 3)};
  std::vector<PlanReply> expected;
  for (const PlanRequest& key : keys)
    expected.push_back(direct_reply(options, key));

  Server server(options);
  SocketListener listener(0);
  std::thread serving([&] { server.serve(listener); });
  const auto plan_once = [&](const PlanRequest& request) {
    Client client(socket_connect("127.0.0.1", listener.port()));
    const PlanReply reply = client.plan(request);
    client.close();
    return reply;
  };

  // Warm-up: the first connection starts the second connection thread.
  ASSERT_TRUE(same_plan(plan_once(keys[0]), expected[0]));
  const int threads_before = live_threads();
  const std::size_t names_before = named_threads();

  int mismatches = 0;
  for (int i = 0; i < kConnections; ++i) {
    const std::size_t k = static_cast<std::size_t>(i) % keys.size();
    if (!same_plan(plan_once(keys[k]), expected[k])) ++mismatches;
  }
  const int threads_after = live_threads();
  const std::size_t names_after = named_threads();

  listener.close();
  serving.join();
  EXPECT_EQ(mismatches, 0);
  EXPECT_LE(threads_after, threads_before + 3);
  // A thread per connection would add one registry name per connection.
  EXPECT_LE(names_after, names_before + 3);
  EXPECT_EQ(server.stats().requests,
            static_cast<std::uint64_t>(kConnections + 1));
  EXPECT_TRUE(server.stopped());
}

TEST(ServeLoop, ClosingTheListenerMidLoadAnswersEveryAdmittedRequestOnce) {
  constexpr int kClients = 16;
  constexpr int kMaxRequestsPerClient = 100000;
  ServerOptions options;
  options.debug_plan_delay_ms = 1.0;  // keeps misses in flight to coalesce
  options.max_inflight = 4;           // and bursts of them to shed
  Server server(options);
  SocketListener listener(0);
  std::promise<void> served;
  std::thread serving([&] {
    server.serve(listener);
    served.set_value();
  });

  std::atomic<int> replies{0};
  std::atomic<int> ok{0};
  std::atomic<int> shed{0};
  std::atomic<int> unavailable{0};
  std::atomic<int> other{0};
  std::atomic<int> unfinished{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      try {
        Client client(socket_connect("127.0.0.1", listener.port()));
        for (int r = 0; r < kMaxRequestsPerClient; ++r) {
          // Every 4th request is a fresh key (a miss); the rest repeat.
          const double mbps = r % 4 == 0 ? 1.0 + 0.25 * (c * 1000 + r)
                                         : 1.0 + 0.25 * (r % 8);
          const PlanReply reply =
              client.plan(request_for(c % 2 == 0 ? "alexnet" : "nin", mbps, 4));
          replies.fetch_add(1);
          if (reply.ok()) {
            ok.fetch_add(1);
          } else if (reply.status == Status::kResourceExhausted) {
            shed.fetch_add(1);
          } else if (reply.status == Status::kUnavailable) {
            unavailable.fetch_add(1);
          } else {
            other.fetch_add(1);
          }
        }
        unfinished.fetch_add(1);  // the drain never closed this connection
      } catch (const std::exception&) {
        // The drain closed the connection (or refused it): expected.
      }
    });
  }

  while (replies.load() < kClients * 20)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  listener.close();
  const bool returned = served.get_future().wait_for(std::chrono::seconds(
                            30)) == std::future_status::ready;
  for (std::thread& t : clients) t.join();
  serving.join();

  ASSERT_TRUE(returned) << "serve() did not return after the listener closed";
  const ServerStats stats = server.stats();
  EXPECT_EQ(unfinished.load(), 0);
  EXPECT_EQ(other.load(), 0);
  EXPECT_GT(ok.load(), 0);
  // Exactly one reply per request the server admitted.
  EXPECT_EQ(stats.requests, static_cast<std::uint64_t>(replies.load()));
  EXPECT_EQ(static_cast<std::uint64_t>(ok.load()),
            stats.cache_hits + stats.plans_computed + stats.coalesce_hits);
  EXPECT_EQ(static_cast<std::uint64_t>(shed.load()), stats.shed_total());
  // Drain refusals are the one outcome the server does not count itself.
  EXPECT_EQ(stats.requests, stats.cache_hits + stats.plans_computed +
                                stats.coalesce_hits + stats.shed_total() +
                                stats.deadline_exceeded + stats.stale_served +
                                static_cast<std::uint64_t>(unavailable.load()));
  EXPECT_EQ(stats.deadline_exceeded, 0u);
  EXPECT_EQ(stats.stale_served, 0u);
  EXPECT_EQ(server.inflight(), 0u);
  EXPECT_TRUE(server.stopped());
}

TEST(ServeLoop, ClosingAnIdleListenerReturnsPromptlyWithThreadsJoined) {
  const int threads_before = live_threads();
  Server server{ServerOptions{}};
  SocketListener listener(0);
  std::promise<void> served;
  std::thread serving([&] {
    server.serve(listener);
    served.set_value();
  });
  {
    // One ping leaves two connection threads blocked in accept().
    Client client(socket_connect("127.0.0.1", listener.port()));
    ASSERT_TRUE(client.ping());
  }

  const auto closed_at = std::chrono::steady_clock::now();
  listener.close();
  const bool returned = served.get_future().wait_for(std::chrono::seconds(
                            1)) == std::future_status::ready;
  const double elapsed_s = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - closed_at)
                               .count();
  serving.join();
  EXPECT_TRUE(returned) << "serve() took " << elapsed_s << " s to return";
  // serve() joined its connection threads and the caller has been joined.
  EXPECT_EQ(live_threads(), threads_before);
  EXPECT_TRUE(server.stopped());
}

}  // namespace
}  // namespace jps::serve
