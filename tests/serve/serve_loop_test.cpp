// Server::serve over a real SocketListener: connection threads are reused
// (sequential churn creates no thread per connection, and a connection
// whose peer has closed counts as ending before its thread runs, but not
// while its thread still writes a reply), closing
// the listener mid-load drains every admitted request exactly once, and
// closing an idle listener returns promptly with every connection thread
// joined.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <fstream>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "direct_reply.h"
#include "obs/obs.h"
#include "serve/client.h"
#include "serve/protocol.h"
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

// The server end of an in-process connection, standing in for a socket
// whose thread the kernel has not run since its peer closed: finished()
// already says so, but read() holds the EOF until `release` is ready.
class HeldEofStream final : public ByteStream {
 public:
  HeldEofStream(std::unique_ptr<ByteStream> inner,
                std::shared_future<void> release, std::promise<void>& eof)
      : inner_(std::move(inner)), release_(std::move(release)), eof_(eof) {}

  std::size_t read(char* out, std::size_t max) override {
    const std::size_t n = inner_->read(out, max);
    if (n == 0 && !peer_closed_.exchange(true)) {
      eof_.set_value();
      release_.wait();
    }
    return n;
  }
  void write(const char* data, std::size_t size) override {
    inner_->write(data, size);
  }
  void shutdown_read() override { inner_->shutdown_read(); }
  void close() override { inner_->close(); }
  void set_read_timeout_ms(double ms) override {
    inner_->set_read_timeout_ms(ms);
  }
  [[nodiscard]] bool finished(std::uint64_t) const override {
    return peer_closed_.load();
  }

 private:
  std::unique_ptr<ByteStream> inner_;
  std::shared_future<void> release_;
  std::promise<void>& eof_;
  std::atomic<bool> peer_closed_{false};
};

// Serves a first connection, closes its peer (or keeps it open), then
// serves a second one while the first connection's thread is still held
// before its EOF.  Returns the threads the second connection started.
int threads_started_by_second_connection(bool first_peer_closed) {
  Server server{ServerOptions{}};
  InProcessListener listener;
  std::thread serving([&] { server.serve(listener); });
  std::promise<void> release;
  std::promise<void> first_eof;
  StreamPair first = make_in_process_pair();
  listener.push(std::make_unique<HeldEofStream>(
      std::move(first.second), release.get_future().share(), first_eof));
  Client first_client(std::move(first.first));
  EXPECT_TRUE(first_client.ping());  // served: one thread now waits in accept
  if (first_peer_closed) {
    first_client.close();
    first_eof.get_future().wait();
  }

  const int threads_before = live_threads();
  Client second_client(listener.connect());
  EXPECT_TRUE(second_client.ping());  // any spawn happened before the reply
  const int started = live_threads() - threads_before;

  release.set_value();
  first_client.close();
  second_client.close();
  listener.close();
  serving.join();
  return started;
}

TEST(ServeLoop, APeerThatClosedBeforeItsThreadRanCausesNoSpawn) {
  // The acceptor of the second connection finds no idle thread either way;
  // only an open first connection is a reason to start one more.
  EXPECT_EQ(threads_started_by_second_connection(/*first_peer_closed=*/true),
            0);
  EXPECT_EQ(threads_started_by_second_connection(/*first_peer_closed=*/false),
            1);
}

// The bytes write_frame puts on the wire for `payload`.
std::string frame_bytes(const std::string& payload) {
  StreamPair pair = make_in_process_pair();
  write_frame(*pair.first, payload);
  pair.first->close();
  std::string bytes;
  char chunk[256];
  while (const std::size_t n = pair.second->read(chunk, sizeof(chunk)))
    bytes.append(chunk, n);
  return bytes;
}

// The server end of a connection whose peer sent one request, closed its
// side and never reads.  finished() holds until a reply byte is written:
// the request already sits in the stream's own buffer (as when one recv
// brought it in with an earlier frame), and the peer acknowledges nothing
// (its window is full).  The first read() waits for `hold`; write()
// blocks, as on such a socket, until close().
class StalledPeerStream final : public ByteStream {
 public:
  StalledPeerStream(std::string request, std::shared_future<void> hold)
      : request_(std::move(request)), hold_(std::move(hold)) {}

  std::promise<void> reading;  // the first read() began
  std::promise<void> drained;  // every request byte was read
  std::promise<void> writing;  // write() began

  std::size_t read(char* out, std::size_t max) override {
    if (consumed_ == 0) {
      reading.set_value();
      hold_.wait();
    }
    const std::size_t n = std::min(max, request_.size() - consumed_);
    std::copy_n(request_.data() + consumed_, n, out);
    consumed_ += n;
    if (n > 0 && consumed_ == request_.size()) drained.set_value();
    return n;
  }
  void write(const char*, std::size_t) override {
    std::unique_lock lock(mutex_);
    if (!writing_started_) {
      writing_started_ = true;
      writing.set_value();
    }
    closed_cv_.wait(lock, [&] { return closed_; });
    throw std::runtime_error("peer gone");
  }
  void shutdown_read() override {}
  void close() override {
    {
      std::lock_guard lock(mutex_);
      closed_ = true;
    }
    closed_cv_.notify_all();
  }
  void set_read_timeout_ms(double) override {}
  [[nodiscard]] bool finished(std::uint64_t written) const override {
    return written == 0;
  }

 private:
  const std::string request_;
  std::shared_future<void> hold_;
  std::size_t consumed_ = 0;  // the reading thread's
  std::mutex mutex_;
  std::condition_variable closed_cv_;
  bool writing_started_ = false;
  bool closed_ = false;
};

// Forwards to an in-process stream and reports its first read().
class ReadSignalStream final : public ByteStream {
 public:
  ReadSignalStream(std::unique_ptr<ByteStream> inner,
                   std::promise<void>& reading)
      : inner_(std::move(inner)), reading_(reading) {}

  std::size_t read(char* out, std::size_t max) override {
    if (!signalled_.exchange(true)) reading_.set_value();
    return inner_->read(out, max);
  }
  void write(const char* data, std::size_t size) override {
    inner_->write(data, size);
  }
  void shutdown_read() override { inner_->shutdown_read(); }
  void close() override { inner_->close(); }
  void set_read_timeout_ms(double ms) override {
    inner_->set_read_timeout_ms(ms);
  }

 private:
  std::unique_ptr<ByteStream> inner_;
  std::promise<void>& reading_;
  std::atomic<bool> signalled_{false};
};

// Where the first connection's thread is when the second one is accepted.
enum class FirstThread { kComputing, kWriting, kReading };

// Whether a ping on a third connection is answered, i.e. a thread is left
// in accept(), while the first connection's thread blocks writing a reply
// its peer never reads and the second connection's thread waits for a
// request.  The second connection is accepted while the first thread is
// `at`; in kReading it waits in read() for a request that arrives only
// after that.
bool third_served_beside_a_blocked_writer(FirstThread at) {
  ServerOptions options;
  options.debug_plan_delay_ms = 200.0;  // keeps kComputing's thread there
  Server server(options);
  InProcessListener listener;
  std::thread serving([&] { server.serve(listener); });
  const std::string request =
      at == FirstThread::kComputing
          ? encode_plan_request(request_for("alexnet", 4.0, 8))
      : at == FirstThread::kWriting ? encode_trace_dump_request()
                                    : encode_ping();
  std::promise<void> hold;
  if (at != FirstThread::kReading) hold.set_value();
  auto stalled = std::make_unique<StalledPeerStream>(
      frame_bytes(request), hold.get_future().share());
  // Its thread blocks in write() until the close() below, so the stream
  // outlives every use of `first`.
  StalledPeerStream* const first = stalled.get();
  std::future<void> reading = first->reading.get_future();
  std::future<void> drained = first->drained.get_future();
  std::future<void> writing = first->writing.get_future();
  listener.push(std::move(stalled));
  switch (at) {
    case FirstThread::kComputing: drained.wait(); break;
    case FirstThread::kWriting: writing.wait(); break;
    case FirstThread::kReading: reading.wait(); break;
  }

  std::promise<void> second_reading;
  StreamPair second = make_in_process_pair();  // a peer that sends nothing
  listener.push(std::make_unique<ReadSignalStream>(std::move(second.second),
                                                   second_reading));
  second_reading.get_future().wait();  // its acceptor has decided
  if (at == FirstThread::kReading) hold.set_value();
  writing.wait();

  ClientRetryOptions client_options;
  client_options.read_timeout_ms = 5000.0;
  Client client(listener.connect(), client_options);
  const bool served = client.ping();

  first->close();
  second.first->close();
  client.close();
  listener.close();
  serving.join();
  return served;
}

TEST(ServeLoop, APeerThatStopsReadingItsReplyStillLeavesAnAcceptor) {
  // The first peer sent a request, closed and never reads.  The second
  // acceptor may count on a thread that computes the reply (nothing is
  // written yet), but that thread's write then starts the missing acceptor;
  // a thread that writes what the peer never acknowledges is not ending.
  EXPECT_TRUE(third_served_beside_a_blocked_writer(FirstThread::kComputing));
  EXPECT_TRUE(third_served_beside_a_blocked_writer(FirstThread::kWriting));
}

TEST(ServeLoop, AThreadCountedAsEndingThatGetsARequestStartsAnAcceptor) {
  // The second acceptor skipped its spawn counting on the first thread's
  // EOF; that thread read a request instead and blocks writing its reply,
  // so it must have started the missing acceptor itself.
  EXPECT_TRUE(third_served_beside_a_blocked_writer(FirstThread::kReading));
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
                                stats.deadline_exceeded +
                                static_cast<std::uint64_t>(unavailable.load()));
  EXPECT_EQ(stats.deadline_exceeded, 0u);
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
