// Byte transports: in-process pipe semantics (backpressure, half-close,
// EOF), the in-process listener (FIFO accept, close), and the loopback
// socket listener and stream (read buffer, deadline, finished()).
#include "serve/transport.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace jps::serve {
namespace {

std::string read_all(ByteStream& stream) {
  std::string out;
  char buf[256];
  while (const std::size_t n = stream.read(buf, sizeof(buf)))
    out.append(buf, n);
  return out;
}

TEST(InProcessPair, BytesFlowBothWays) {
  StreamPair pair = make_in_process_pair();
  pair.first->write("ping", 4);
  char buf[8];
  ASSERT_EQ(pair.second->read(buf, sizeof(buf)), 4u);
  EXPECT_EQ(std::string(buf, 4), "ping");
  pair.second->write("pong!", 5);
  ASSERT_EQ(pair.first->read(buf, sizeof(buf)), 5u);
  EXPECT_EQ(std::string(buf, 5), "pong!");
}

TEST(InProcessPair, CloseGivesReaderEofAfterDrainingBuffer) {
  StreamPair pair = make_in_process_pair();
  pair.first->write("tail", 4);
  pair.first->close();
  EXPECT_EQ(read_all(*pair.second), "tail");  // buffered bytes then EOF
  char b;
  EXPECT_EQ(pair.second->read(&b, 1), 0u);  // EOF is sticky
}

TEST(InProcessPair, BoundedBufferBackpressuresWriter) {
  StreamPair pair = make_in_process_pair(/*capacity=*/16);
  std::atomic<bool> writer_done{false};
  const std::string big(1024, 'x');
  std::thread writer([&] {
    pair.first->write(big.data(), big.size());
    writer_done.store(true);
  });
  // The writer cannot finish until the reader drains: 1024 bytes through a
  // 16-byte window.
  std::string got;
  char buf[64];
  while (got.size() < big.size()) {
    const std::size_t n = pair.second->read(buf, sizeof(buf));
    ASSERT_GT(n, 0u);
    got.append(buf, n);
  }
  writer.join();
  EXPECT_TRUE(writer_done.load());
  EXPECT_EQ(got, big);
}

TEST(InProcessPair, ShutdownReadUnblocksReaderButKeepsWrites) {
  StreamPair pair = make_in_process_pair();
  std::thread unblocker([&] { pair.second->shutdown_read(); });
  char b;
  EXPECT_EQ(pair.second->read(&b, 1), 0u);  // woken with EOF
  unblocker.join();
  // The opposite direction still works: half-close, not close.
  pair.second->write("reply", 5);
  char buf[8];
  EXPECT_EQ(pair.first->read(buf, sizeof(buf)), 5u);
}

TEST(InProcessPair, WriteToClosedPeerThrows) {
  StreamPair pair = make_in_process_pair(/*capacity=*/4);
  pair.second->close();
  EXPECT_THROW(pair.first->write("0123456789", 10), std::runtime_error);
}

TEST(InProcessListener, AcceptsConnectionsInFifoOrder) {
  InProcessListener listener;
  std::vector<std::unique_ptr<ByteStream>> clients;
  for (const char tag : {'a', 'b', 'c'}) {
    clients.push_back(listener.connect());
    clients.back()->write(&tag, 1);
  }
  for (const char tag : {'a', 'b', 'c'}) {
    const std::unique_ptr<ByteStream> server = listener.accept();
    ASSERT_NE(server, nullptr);
    char got = 0;
    ASSERT_EQ(server->read(&got, 1), 1u);  // the peer of connect()'s end
    EXPECT_EQ(got, tag);
  }
}

TEST(InProcessListener, CloseUnblocksABlockedAcceptWithNullptr) {
  InProcessListener listener;
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    listener.close();
  });
  EXPECT_EQ(listener.accept(), nullptr);
  closer.join();
}

TEST(InProcessListener, AConnectionQueuedAtCloseReadsEof) {
  InProcessListener listener;
  const std::unique_ptr<ByteStream> client = listener.connect();
  client->set_read_timeout_ms(1000.0);  // a hang fails as TransportTimeout
  listener.close();
  char b;
  EXPECT_EQ(client->read(&b, 1), 0u);
  EXPECT_EQ(listener.accept(), nullptr);
}

TEST(InProcessListener, ConnectAndPushAfterCloseThrow) {
  InProcessListener listener;
  listener.close();
  EXPECT_THROW((void)listener.connect(), std::runtime_error);
  EXPECT_THROW(listener.push(make_in_process_pair().first),
               std::runtime_error);
}

TEST(SocketTransport, EphemeralPortEchoAndShutdown) {
  SocketListener listener(0);
  ASSERT_GT(listener.port(), 0);

  std::thread server([&] {
    const std::unique_ptr<ByteStream> conn = listener.accept();
    ASSERT_NE(conn, nullptr);
    char buf[16];
    const std::size_t n = conn->read(buf, sizeof(buf));
    conn->write(buf, n);  // echo
  });

  const std::unique_ptr<ByteStream> client =
      socket_connect("127.0.0.1", listener.port());
  client->write("hello", 5);
  char buf[16];
  ASSERT_EQ(client->read(buf, sizeof(buf)), 5u);
  EXPECT_EQ(std::string(buf, 5), "hello");
  server.join();

  // close() unblocks a pending accept with nullptr.
  std::thread closer([&] { listener.close(); });
  EXPECT_EQ(listener.accept(), nullptr);
  closer.join();
}

// A connected (client, server-side) socket pair on an ephemeral port.
struct SocketPair {
  SocketListener listener{0};
  std::unique_ptr<ByteStream> client =
      socket_connect("127.0.0.1", listener.port());
  std::unique_ptr<ByteStream> server = listener.accept();
};

void read_exactly(ByteStream& stream, char* out, std::size_t size) {
  std::size_t got = 0;
  while (got < size) {
    const std::size_t n = stream.read(out + got, size - got);
    ASSERT_GT(n, 0u) << "EOF after " << got << " of " << size << " bytes";
    got += n;
  }
}

TEST(SocketTransport, MixedReadSizesSeeEveryByteInOrder) {
  SocketPair pair;
  std::string sent;
  for (int i = 0; i < 5000; ++i)
    sent.push_back(static_cast<char>('a' + i % 26));
  pair.client->write(sent.data(), sent.size());
  pair.client->close();
  std::string got;
  // Short reads come from the stream's buffer, long ones bypass it.
  for (const std::size_t size : {4u, 1u, 600u, 3u, 2000u, 17u}) {
    std::string chunk(size, '\0');
    read_exactly(*pair.server, chunk.data(), size);
    got += chunk;
  }
  got += read_all(*pair.server);
  EXPECT_EQ(got, sent);
}

TEST(SocketTransport, ShutdownReadStillReturnsBufferedBytesBeforeEof) {
  SocketPair pair;
  pair.client->write("0123456789", 10);
  char head[4];
  read_exactly(*pair.server, head, sizeof(head));
  EXPECT_EQ(std::string(head, 4), "0123");
  pair.server->shutdown_read();
  EXPECT_EQ(read_all(*pair.server), "456789");
  // The outgoing direction still works.
  pair.server->write("ok", 2);
  char reply[2];
  read_exactly(*pair.client, reply, sizeof(reply));
  EXPECT_EQ(std::string(reply, 2), "ok");
}

TEST(SocketTransport, ReadDeadlineHoldsAcrossRepeatedAndChangedSettings) {
  SocketPair pair;
  char byte;
  pair.client->set_read_timeout_ms(20.0);
  EXPECT_THROW((void)pair.client->read(&byte, 1), TransportTimeout);
  pair.client->set_read_timeout_ms(20.0);  // unchanged: still armed
  EXPECT_THROW((void)pair.client->read(&byte, 1), TransportTimeout);
  pair.client->set_read_timeout_ms(0.0);
  pair.client->set_read_timeout_ms(30.0);  // re-armed after a change
  EXPECT_THROW((void)pair.client->read(&byte, 1), TransportTimeout);
  pair.client->set_read_timeout_ms(0.0);
  pair.server->write("x", 1);
  ASSERT_EQ(pair.client->read(&byte, 1), 1u);
  EXPECT_EQ(byte, 'x');
}

TEST(SocketTransport, FinishedOnceThePeerClosedReadAllAndAckedAll) {
  SocketPair pair;
  EXPECT_FALSE(pair.server->finished(0));  // open, nothing sent
  pair.client->write("abc", 3);
  pair.server->write("xy", 2);
  char got[3];
  read_exactly(*pair.client, got, 2);
  pair.client->close();
  // The peer's FIN is queued behind three unread bytes.
  EXPECT_FALSE(pair.server->finished(2));
  read_exactly(*pair.server, got, sizeof(got));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!pair.server->finished(2) &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_TRUE(pair.server->finished(2));
  // A byte the peer never acknowledged: a write of it may still wait.
  EXPECT_FALSE(pair.server->finished(3));
  char byte;
  EXPECT_EQ(pair.server->read(&byte, 1), 0u);

  SocketPair open;
  open.client->write("abc", 3);
  read_exactly(*open.server, got, sizeof(got));
  EXPECT_FALSE(open.server->finished(0));  // read everything, peer open
  open.server->close();
  EXPECT_TRUE(open.server->finished(0));
}

TEST(SocketTransport, ConnectToClosedPortThrows) {
  // Bind-then-close to obtain a port that is (almost surely) not listening.
  std::uint16_t dead_port;
  {
    SocketListener listener(0);
    dead_port = listener.port();
  }
  EXPECT_THROW((void)socket_connect("127.0.0.1", dead_port),
               std::runtime_error);
  EXPECT_THROW((void)socket_connect("not-an-ip", 1), std::runtime_error);
}

}  // namespace
}  // namespace jps::serve
