// Regression: concurrent Server::stop() callers must each get the FULL
// drain postcondition.  Before the fix, stop() was gated on a bare
// stopping_.exchange — the losing caller returned at once, while the
// winner was still half-closing connections and waiting for the pending
// leader.  A caller acting on stop()'s contract (e.g. destroying the
// Server, or reading the cache) then raced the winner's remaining drain
// work.  With the stop_mutex_-serialized drain this test must never fail;
// with the bare exchange back, the losing stopper sees the leader still in
// flight and its decision not yet cached.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <string>
#include <thread>

#include "serve/server.h"
#include "serve/transport.h"

namespace jps::serve {
namespace {

TEST(ServerStopRace, EveryStopperSeesTheFullDrainPostcondition) {
  for (int iteration = 0; iteration < 20; ++iteration) {
    ServerOptions options;
    // Holds the leader's computation open so stop() has real draining to
    // do — the window the losing stopper used to escape through.
    options.debug_plan_delay_ms = 10.0;
    Server server(options);

    PlanRequest request;
    request.model = "alexnet";
    request.bandwidth_mbps = 4.0;
    request.n_jobs = 2;
    const core::PlanCacheKey key(
        request.model, options.device.name,
        quantize_bandwidth(request.bandwidth_mbps,
                           options.bandwidth_bucket_mbps),
        request.strategy, request.n_jobs);
    PlanReply reply;
    std::thread requester([&] { reply = server.handle_plan(request); });
    // The drain starts only once the leader is admitted, so stop() must
    // wait for its decision.
    while (server.inflight() == 0) std::this_thread::yield();

    std::atomic<int> violations{0};
    const auto stop_and_check = [&] {
      server.stop();
      // stop()'s contract: by the time ANY caller returns, no leader is
      // pending and the leader's decision is cached under its exact key.
      if (server.inflight() != 0) violations.fetch_add(1);
      if (server.cache().find_plan(key) == nullptr) violations.fetch_add(1);
    };
    std::thread stopper_a(stop_and_check);
    std::thread stopper_b(stop_and_check);
    stopper_a.join();
    stopper_b.join();
    requester.join();

    // The cached decision is the one the leader replied with.
    const auto cached = server.cache().find_plan(key);
    ASSERT_NE(cached, nullptr) << "iteration " << iteration;
    ASSERT_TRUE(reply.ok()) << reply.message;
    EXPECT_EQ(cached->predicted_makespan, reply.makespan_ms);
    EXPECT_EQ(cached->mix(request.n_jobs), reply.mix);

    EXPECT_EQ(violations.load(), 0) << "iteration " << iteration;
    EXPECT_TRUE(server.stopped());
    server.stop();  // still idempotent after the race
  }
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
