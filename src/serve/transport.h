// Byte transports for the plan server: an in-process pipe pair and its
// listener (tests and selfcheck — no real network, no ports, deterministic
// teardown) and blocking loopback/TCP sockets (the jps_serve daemon).
//
// The server and client only ever see the ByteStream interface, so every
// protocol and concurrency test runs against the exact code path the
// socket daemon uses — the transports differ only below read()/write().
//
// Shutdown vocabulary (CycloneDDS-style half-close):
//   * close()          — tear down both directions; a blocked reader wakes
//                        with EOF, a blocked writer fails.
//   * shutdown_read()  — stop only the incoming direction.  This is the
//                        server's drain primitive: the connection loop sees
//                        EOF at the next frame boundary while replies for
//                        requests already admitted still flow out.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <stdexcept>
#include <string>

#include "util/mutex.h"

namespace jps::serve {

/// A read() exceeded the stream's configured read timeout.  Distinct from
/// EOF (the peer may still be alive, just slow) and from ProtocolError (the
/// bytes that did arrive were fine) — serve::Client treats it as retryable.
class TransportTimeout : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A blocking, connected, bidirectional byte stream.
class ByteStream {
 public:
  virtual ~ByteStream() = default;

  /// Read up to `max` bytes into `out`; blocks until at least one byte is
  /// available.  Returns the number of bytes read, or 0 on EOF (peer closed
  /// or shutdown_read()).  Throws TransportTimeout when a read deadline is
  /// set (set_read_timeout_ms) and no byte arrives in time.
  [[nodiscard]] virtual std::size_t read(char* out, std::size_t max) = 0;

  /// Write all `size` bytes.  Throws std::runtime_error when the peer is
  /// gone or the stream is closed.
  virtual void write(const char* data, std::size_t size) = 0;

  /// Stop the incoming direction only: a blocked read() (and every later
  /// one) returns 0 once buffered bytes are drained; write() keeps working.
  virtual void shutdown_read() = 0;

  /// Tear down both directions.  Idempotent.
  virtual void close() = 0;

  /// Per-read() deadline: a read that sees no byte for `ms` milliseconds
  /// throws TransportTimeout instead of blocking forever (a peer that
  /// accepts then stalls must not hang the caller).  <= 0 restores
  /// block-forever.  Sockets implement this with SO_RCVTIMEO; pipes with a
  /// timed condition wait.
  virtual void set_read_timeout_ms(double ms) = 0;

  /// Whether this stream no longer waits on its peer: the incoming
  /// direction has ended (the peer closed, or shutdown_read() or close()
  /// ran), every byte the transport still holds is already in this
  /// stream's own read buffer, and the peer has acknowledged the first
  /// `written` bytes written to this stream (the caller's count of bytes
  /// handed to write(), a write in progress included).  The serve loop
  /// uses it to tell a connection that is ending from one that is busy.
  /// Callable from any thread while another reads or writes, but not while
  /// close() runs; it must neither block nor lock.  Streams that cannot
  /// tell answer false.
  [[nodiscard]] virtual bool finished(std::uint64_t /*written*/) const {
    return false;
  }
};

/// Two connected in-process endpoints: bytes written to one are read from
/// the other, through bounded buffers (`capacity` bytes per direction, so a
/// stalled reader backpressures the writer just like a TCP window).
struct StreamPair {
  std::unique_ptr<ByteStream> first;
  std::unique_ptr<ByteStream> second;
};
[[nodiscard]] StreamPair make_in_process_pair(std::size_t capacity = 64 * 1024);

/// Accepts connections for Server::serve.
class Listener {
 public:
  virtual ~Listener() = default;

  /// Block until a connection arrives; nullptr once close() was called.
  [[nodiscard]] virtual std::unique_ptr<ByteStream> accept() = 0;

  /// Unblock accept() permanently.  Idempotent, callable from any thread
  /// (including a signal-triggered shutdown path).
  virtual void close() = 0;
};

/// A Listener over in-process connections, so Server::serve runs many
/// clients with no sockets: each connect() (or push()) is one accept().
class InProcessListener final : public Listener {
 public:
  /// Queue `stream` as the server end of a connection; accept() returns
  /// queued streams in FIFO order.  Throws std::runtime_error once close()
  /// has run.
  void push(std::unique_ptr<ByteStream> stream);

  /// A new make_in_process_pair() connection: queues one end for accept()
  /// and returns the other, the client's.  Throws std::runtime_error once
  /// close() has run.
  [[nodiscard]] std::unique_ptr<ByteStream> connect();

  [[nodiscard]] std::unique_ptr<ByteStream> accept() override;

  /// Streams still queued are closed, so their clients read EOF.  Takes a
  /// lock, so unlike SocketListener::close it is not for signal handlers.
  void close() override;

 private:
  util::Mutex mutex_{"serve.in_process_listener"};
  util::CondVar ready_;
  std::deque<std::unique_ptr<ByteStream>> queue_ JPS_GUARDED_BY(mutex_);
  bool closed_ JPS_GUARDED_BY(mutex_) = false;
};

/// Blocking TCP listener bound to 127.0.0.1:`port` (0 picks an ephemeral
/// port; see port()).  Throws std::runtime_error when the socket cannot be
/// bound.
class SocketListener final : public Listener {
 public:
  explicit SocketListener(std::uint16_t port);
  ~SocketListener() override;

  [[nodiscard]] std::unique_ptr<ByteStream> accept() override;
  void close() override;

  /// The bound port (the chosen one when constructed with 0).
  [[nodiscard]] std::uint16_t port() const { return port_; }

 private:
  // Atomic: close() races a blocked accept() by design (drain path, signal
  // handler), and a lock-free exchange keeps it async-signal-safe.
  std::atomic<int> fd_{-1};
  std::uint16_t port_ = 0;
};

/// Connect to a jps_serve daemon.  Throws std::runtime_error on failure.
[[nodiscard]] std::unique_ptr<ByteStream> socket_connect(
    const std::string& host, std::uint16_t port);

}  // namespace jps::serve
