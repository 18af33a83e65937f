// Lock-order checker false-positive gate: the full 16-client serve stress
// runs through Server::serve's connection threads with the checker in its
// strictest mode (kAbort, hook-captured) and must produce ZERO diagnostics
// — the server's real acquisition orders (stop -> connections/inflight,
// connections -> pipe, plan-cache -> obs registry)
// are all consistent, and the checker must agree under genuine
// concurrency, not just in the synthetic ABBA test.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "serve/client.h"
#include "serve/server.h"
#include "serve/transport.h"
#include "util/mutex.h"

namespace jps::serve {
namespace {

constexpr int kClients = 16;
constexpr int kRequestsPerClient = 12;

TEST(LockOrderStress, SixteenClientServeStressHasZeroFalsePositives) {
  util::lockorder::reset();
  std::atomic<int> diagnostics{0};
  std::string first_report;
  util::Mutex report_mutex("test.lock_order_stress.report");
  util::lockorder::set_report_hook([&](const std::string& message) {
    diagnostics.fetch_add(1);
    util::MutexLock lock(report_mutex);
    if (first_report.empty()) first_report = message;
  });
  util::lockorder::set_mode(util::lockorder::Mode::kAbort);

  {
    ServerOptions options;
    options.max_inflight = 6;
    Server server(options);

    InProcessListener listener;
    std::thread serving([&] { server.serve(listener); });
    std::vector<std::thread> clients;
    std::atomic<int> replies{0};
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        try {
          Client client(listener.connect());
          for (int r = 0; r < kRequestsPerClient; ++r) {
            PlanRequest request;
            request.tenant = "tenant-" + std::to_string(c % 4);
            request.model = (c + r) % 2 == 0 ? "alexnet" : "nin";
            request.bandwidth_mbps = 2.0 + (c + r) % 3;
            request.n_jobs = 2 + r % 3;
            (void)client.plan(request);
            replies.fetch_add(1);
          }
          client.close();
        } catch (const std::exception&) {
          // Transport errors are not what this test gates on.
        }
      });
    }
    for (std::thread& t : clients) t.join();
    listener.close();  // drain path: serve -> stop -> connections -> pipe
    serving.join();
    EXPECT_GT(replies.load(), 0);
  }

  util::lockorder::set_mode(util::lockorder::Mode::kOff);
  util::lockorder::set_report_hook(nullptr);
  util::lockorder::reset();

  EXPECT_EQ(diagnostics.load(), 0) << "unexpected diagnostic: " << first_report;
}

}  // namespace
}  // namespace jps::serve
