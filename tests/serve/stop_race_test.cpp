// Regression: concurrent Server::stop() callers must each get the FULL
// drain postcondition.  Before the fix, stop() was gated on a bare
// stopping_.exchange — the losing caller returned after only
// pool_.shutdown(), while the winner was still half-closing connections,
// joining the snapshot thread, and writing the final snapshot.  A caller
// acting on stop()'s contract (e.g. destroying the Server, or reading the
// snapshot file) then raced the winner's remaining drain work.  This test
// failed (snapshot_saves == 0 observed after stop() returned) on the
// pre-fix code within a few iterations; with the stop_mutex_-serialized
// drain it must never fail.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <string>
#include <thread>

#include "serve/server.h"
#include "serve/transport.h"

namespace jps::serve {
namespace {

TEST(ServerStopRace, EveryStopperSeesTheFullDrainPostcondition) {
  const std::string path =
      ::testing::TempDir() + "/jps_stop_race_snapshot.bin";

  for (int iteration = 0; iteration < 20; ++iteration) {
    std::remove(path.c_str());

    ServerOptions options;
    options.snapshot_path = path;
    // Holds the leader's computation open so stop() has real draining to
    // do — the window the losing stopper used to escape through.
    options.debug_plan_delay_ms = 10.0;
    Server server(options);

    std::thread requester([&server] {
      PlanRequest request;
      request.model = "alexnet";
      request.bandwidth_mbps = 4.0;
      request.n_jobs = 2;
      (void)server.handle_plan(request);  // kOk or kUnavailable: both fine
    });
    // Let the leader reach the pool before the drain starts.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));

    std::atomic<int> violations{0};
    const auto stop_and_check = [&] {
      server.stop();
      // stop()'s contract: by the time ANY caller returns, the final
      // snapshot has been saved and is on disk.
      if (server.stats().snapshot_saves < 1) violations.fetch_add(1);
      std::ifstream in(path, std::ios::binary);
      if (!in.good()) violations.fetch_add(1);
    };
    std::thread stopper_a(stop_and_check);
    std::thread stopper_b(stop_and_check);
    stopper_a.join();
    stopper_b.join();
    requester.join();

    EXPECT_EQ(violations.load(), 0) << "iteration " << iteration;
    EXPECT_TRUE(server.stopped());
    server.stop();  // still idempotent after the race
  }
  std::remove(path.c_str());
}

// Regression: a connection that registers after stop() has half-closed the
// registered ones must be half-closed at registration.  Before the fix its
// loop blocked in read_frame until the peer hung up, so Server::serve could
// never join its thread.  The wait is bounded, so the old code fails here
// instead of hanging.
TEST(ServerStopRace, ConnectionRegisteredAfterStopIsHalfClosed) {
  Server server{ServerOptions{}};
  server.stop();
  StreamPair pair = make_in_process_pair();
  std::promise<void> finished;
  std::thread connection([&] {
    server.handle_connection(*pair.second);
    finished.set_value();
  });
  const bool returned = finished.get_future().wait_for(
                            std::chrono::seconds(2)) == std::future_status::ready;
  pair.first->close();  // the client hangs up: frees a loop that did not exit
  connection.join();
  EXPECT_TRUE(returned)
      << "handle_connection kept reading after the drain had begun";
}

}  // namespace
}  // namespace jps::serve
