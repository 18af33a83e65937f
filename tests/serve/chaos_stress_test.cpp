// Chaos + concurrency acceptance (runs under TSan in CI): 16 mixed-tenant
// clients push the full wire protocol through FaultyByteStream decorators
// while Server::serve handles them on its connection threads, then a second
// scenario drains the server mid-fault by closing its listener.  The chaos here is LOSSLESS (delay + short
// windows only — no drops, no corruption), so the PR's serve invariant must
// hold exactly: every admitted request gets exactly one reply, and the
// server's accounting balances against what the clients observed.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "fault/fault_spec.h"
#include "serve/chaos.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/transport.h"

namespace jps::serve {
namespace {

/// Lossless chaos: 1-byte transfers for the first 512 bytes of every 4 KiB
/// of each direction, plus tiny per-op delays sprinkled throughout.  The
/// windows repeat far past what one client sends, so every request crosses
/// at least one of them.
fault::FaultSpec lossless_chaos() {
  fault::FaultSpec spec;
  for (int k = 0; k < 4096; ++k) {
    const double base = k * 4096.0;
    spec.events.push_back(
        {fault::FaultKind::kNetShort, base, base + 512.0, 0.0});
    spec.events.push_back(
        {fault::FaultKind::kNetDelay, base + 512.0, base + 640.0, 0.01});
  }
  return spec;
}

TEST(ChaosStress, SixteenClientsThroughLosslessChaos) {
  ServerOptions options;
  options.max_inflight = 6;
  Server server(options);

  constexpr int kClients = 16;
  constexpr int kRequestsPerClient = 12;
  const fault::FaultSpec spec = lossless_chaos();

  std::atomic<int> ok_replies{0};
  std::atomic<int> shed_replies{0};
  std::atomic<int> bad_replies{0};
  std::atomic<int> client_errors{0};

  InProcessListener listener;
  std::thread serving([&] { server.serve(listener); });
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      try {
        Client client(
            std::make_unique<FaultyByteStream>(listener.connect(), spec));
        for (int r = 0; r < kRequestsPerClient; ++r) {
          PlanRequest request;
          request.tenant = "tenant-" + std::to_string(c % 4);
          request.model = (c + r) % 2 == 0 ? "alexnet" : "nin";
          request.bandwidth_mbps = 2.0 + (c + r) % 3;
          request.n_jobs = 4;
          const PlanReply reply = client.plan(request);
          if (reply.ok()) {
            ok_replies.fetch_add(1);
          } else if (reply.status == Status::kResourceExhausted) {
            shed_replies.fetch_add(1);
          } else {
            bad_replies.fetch_add(1);
          }
        }
        client.close();
      } catch (const std::exception&) {
        client_errors.fetch_add(1);
      }
    });
  }

  for (std::thread& t : clients) t.join();
  listener.close();
  serving.join();

  const ServerStats stats = server.stats();
  EXPECT_EQ(client_errors.load(), 0);
  EXPECT_EQ(bad_replies.load(), 0);
  EXPECT_GT(ok_replies.load(), 0);
  // Exactly one reply per request, nothing lost in the chaos windows.
  EXPECT_EQ(ok_replies.load() + shed_replies.load(),
            kClients * kRequestsPerClient);
  EXPECT_EQ(stats.requests,
            static_cast<std::uint64_t>(kClients * kRequestsPerClient));
  EXPECT_EQ(stats.shed_overload + stats.shed_rate_limited,
            static_cast<std::uint64_t>(shed_replies.load()));
  EXPECT_EQ(stats.protocol_errors, 0u);  // lossless chaos: no broken frames
  EXPECT_EQ(server.inflight(), 0u);
}

TEST(ChaosStress, DrainMidFaultBalancesTheBooks) {
  ServerOptions options;
  options.debug_plan_delay_ms = 2.0;
  Server server(options);

  constexpr int kClients = 8;
  const fault::FaultSpec spec = lossless_chaos();

  std::atomic<int> replies_received{0};

  InProcessListener listener;
  std::thread serving([&] { server.serve(listener); });
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c, end = listener.connect()]() mutable {
      FaultyByteStream chaotic(std::move(end), spec);
      try {
        for (int r = 0; r < 60; ++r) {
          PlanRequest request;
          request.tenant = "t" + std::to_string(c % 3);
          request.model = "alexnet";
          request.bandwidth_mbps = 1.0 + c;
          request.n_jobs = 2;
          write_frame(chaotic, encode_plan_request(request));
          const auto payload = read_frame(chaotic);
          if (!payload) return;  // half-closed during drain: fine
          replies_received.fetch_add(1);
        }
      } catch (const std::exception&) {
        // Writes can fail once the server half-closes mid-drain: fine.
      }
    });
  }

  // Drain while faults are live and clients are mid-conversation: closing
  // the listener makes serve() run stop() and join its threads.
  while (replies_received.load() < 25) std::this_thread::yield();
  listener.close();
  serving.join();
  for (std::thread& t : clients) t.join();

  const ServerStats stats = server.stats();
  EXPECT_TRUE(server.stopped());
  EXPECT_EQ(server.inflight(), 0u);
  // Every reply a client saw corresponds to an admitted request; the server
  // may have admitted a few more whose replies were cut off by the drain,
  // but it can never have answered MORE than it admitted.
  EXPECT_GE(stats.requests,
            static_cast<std::uint64_t>(replies_received.load()));
}

}  // namespace
}  // namespace jps::serve
