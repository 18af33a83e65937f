// Lock-order checker false-positive gate: the full 16-client serve stress
// runs with the checker in its strictest mode (kAbort, hook-captured) and
// must produce ZERO diagnostics — the server's real acquisition orders
// (stop -> snapshot/connections/inflight, connections -> pipe,
// inflight -> breaker, plan-cache -> obs registry) are all consistent, and
// the checker must agree under genuine concurrency, not just in the
// synthetic ABBA test.
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
    options.snapshot_path =
        ::testing::TempDir() + "/jps_lock_order_stress_snapshot.bin";
    options.snapshot_interval_ms = 5.0;  // exercise the timer thread's locks
    Server server(options);

    std::vector<std::thread> server_threads;
    std::vector<std::thread> client_threads;
    std::atomic<int> replies{0};
    for (int c = 0; c < kClients; ++c) {
      StreamPair pair = make_in_process_pair();
      server_threads.emplace_back(
          [&server, s = std::shared_ptr<ByteStream>(std::move(pair.first))] {
            server.handle_connection(*s);
          });
      client_threads.emplace_back([&, c,
                                   end = std::shared_ptr<ByteStream>(
                                       std::move(pair.second))]() {
        try {
          Client client(std::make_unique<BorrowedStream>(end));
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
    for (std::thread& t : client_threads) t.join();
    for (std::thread& t : server_threads) t.join();
    server.stop();  // drain path: stop -> snapshot/connections -> pipe
    EXPECT_GT(replies.load(), 0);
  }

  util::lockorder::set_mode(util::lockorder::Mode::kOff);
  util::lockorder::set_report_hook(nullptr);
  util::lockorder::reset();

  EXPECT_EQ(diagnostics.load(), 0) << "unexpected diagnostic: " << first_report;
}

}  // namespace
}  // namespace jps::serve
