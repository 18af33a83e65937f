#include "serve/transport.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <deque>
#include <stdexcept>
#include <utility>

#include "util/mutex.h"

#include <arpa/inet.h>
// Not <netinet/tcp.h>: only the kernel's header has tcpi_bytes_acked.
#include <linux/tcp.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

namespace jps::serve {

namespace {

// One direction of an in-process connection: a bounded byte ring with
// close semantics.  Writers block when the buffer is full (backpressure),
// readers block when it is empty; closing either end wakes both sides.
class Pipe {
 public:
  explicit Pipe(std::size_t capacity) : capacity_(std::max<std::size_t>(1, capacity)) {}

  std::size_t read(char* out, std::size_t max, double timeout_ms) {
    util::MutexLock lock(mutex_);
    // Explicit wait loops (not predicate lambdas) keep the guarded reads
    // visible to -Wthread-safety.
    if (timeout_ms > 0.0) {
      const auto deadline =
          std::chrono::steady_clock::now() +
          std::chrono::duration<double, std::milli>(timeout_ms);
      while (buffer_.empty() && !closed_) {
        if (readable_.wait_until(lock, deadline) == std::cv_status::timeout &&
            buffer_.empty() && !closed_)
          throw TransportTimeout("serve: read timed out after " +
                                 std::to_string(timeout_ms) + " ms");
      }
    } else {
      while (buffer_.empty() && !closed_) readable_.wait(lock);
    }
    if (buffer_.empty()) return 0;  // closed and drained => EOF
    const std::size_t n = std::min(max, buffer_.size());
    std::copy_n(buffer_.begin(), n, out);
    buffer_.erase(buffer_.begin(), buffer_.begin() + static_cast<long>(n));
    lock.unlock();
    writable_.notify_all();
    return n;
  }

  void write(const char* data, std::size_t size) {
    std::size_t written = 0;
    while (written < size) {
      util::MutexLock lock(mutex_);
      while (buffer_.size() >= capacity_ && !closed_) writable_.wait(lock);
      if (closed_) throw std::runtime_error("serve: connection closed by peer");
      const std::size_t n =
          std::min(size - written, capacity_ - buffer_.size());
      buffer_.insert(buffer_.end(), data + written, data + written + n);
      written += n;
      lock.unlock();
      readable_.notify_all();
    }
  }

  void close() {
    {
      util::MutexLock lock(mutex_);
      closed_ = true;
    }
    readable_.notify_all();
    writable_.notify_all();
  }

 private:
  const std::size_t capacity_;
  util::Mutex mutex_{"serve.pipe"};
  util::CondVar readable_;
  util::CondVar writable_;
  std::deque<char> buffer_ JPS_GUARDED_BY(mutex_);
  bool closed_ JPS_GUARDED_BY(mutex_) = false;
};

class InProcessStream final : public ByteStream {
 public:
  InProcessStream(std::shared_ptr<Pipe> in, std::shared_ptr<Pipe> out)
      : in_(std::move(in)), out_(std::move(out)) {}
  ~InProcessStream() override { close(); }

  std::size_t read(char* out, std::size_t max) override {
    return in_->read(out, max, read_timeout_ms_);
  }
  void write(const char* data, std::size_t size) override {
    out_->write(data, size);
  }
  void shutdown_read() override { in_->close(); }
  void close() override {
    in_->close();
    out_->close();
  }
  void set_read_timeout_ms(double ms) override { read_timeout_ms_ = ms; }

 private:
  std::shared_ptr<Pipe> in_;
  std::shared_ptr<Pipe> out_;
  double read_timeout_ms_ = 0.0;  // reads and timeout-sets share one thread
};

void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

class SocketStream final : public ByteStream {
 public:
  explicit SocketStream(int fd) : fd_(fd) {}
  ~SocketStream() override { close(); }

  // A frame's length prefix and a small payload arrive in one recv: short
  // reads are served from buffer_, reads of at least its size bypass it.
  std::size_t read(char* out, std::size_t max) override {
    if (begin_ == end_) {
      if (max >= sizeof(buffer_)) return recv_some(out, max);
      end_ = recv_some(buffer_, sizeof(buffer_));
      begin_ = 0;
    }
    const std::size_t n = std::min(max, end_ - begin_);
    std::memcpy(out, buffer_ + begin_, n);
    begin_ += n;
    return n;
  }

  void write(const char* data, std::size_t size) override {
    std::size_t written = 0;
    while (written < size) {
      const int fd = fd_.load(std::memory_order_acquire);
      if (fd < 0) throw_errno("serve: send on closed stream");
      const ssize_t n =
          ::send(fd, data + written, size - written, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        throw_errno("serve: send");
      }
      written += static_cast<std::size_t>(n);
    }
  }

  void shutdown_read() override {
    // Races a blocked read() by design (the server's drain path); fd_ is
    // atomic so the handoff is clean under TSan too.
    const int fd = fd_.load(std::memory_order_acquire);
    if (fd >= 0) ::shutdown(fd, SHUT_RD);
  }

  void close() override {
    const int fd = fd_.exchange(-1, std::memory_order_acq_rel);
    if (fd >= 0) {
      ::shutdown(fd, SHUT_RDWR);
      ::close(fd);
    }
  }

  // Clients re-arm their deadline before every request; an unchanged one
  // costs no syscall.
  void set_read_timeout_ms(double ms) override {
    const int fd = fd_.load(std::memory_order_acquire);
    if (fd < 0) return;
    if (ms <= 0.0) ms = 0.0;
    if (ms == timeout_ms_) return;
    timeval tv{};
    if (ms > 0.0) {
      // Round up so a sub-microsecond request still arms the timer (a zero
      // timeval means "block forever" to SO_RCVTIMEO).
      const double usec_total = std::ceil(ms * 1000.0);
      tv.tv_sec = static_cast<time_t>(usec_total / 1e6);
      tv.tv_usec = static_cast<suseconds_t>(
          usec_total - static_cast<double>(tv.tv_sec) * 1e6);
      if (tv.tv_sec == 0 && tv.tv_usec == 0) tv.tv_usec = 1;
    }
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    timeout_ms_ = ms;
    timed_ = ms > 0.0;
  }

  [[nodiscard]] bool finished(std::uint64_t written) const override {
    const int fd = fd_.load(std::memory_order_acquire);
    if (fd < 0) return true;
    // recv reports 0 only at EOF with no byte left unread.
    char byte;
    if (::recv(fd, &byte, 1, MSG_PEEK | MSG_DONTWAIT) != 0) return false;
    tcp_info info{};
    socklen_t size = sizeof(info);
    return ::getsockopt(fd, IPPROTO_TCP, TCP_INFO, &info, &size) == 0 &&
           size >= offsetof(tcp_info, tcpi_bytes_acked) +
                       sizeof(info.tcpi_bytes_acked) &&
           info.tcpi_bytes_acked >= written;
  }

 private:
  std::size_t recv_some(char* out, std::size_t max) {
    while (true) {
      const int fd = fd_.load(std::memory_order_acquire);
      if (fd < 0) return 0;  // closed locally: EOF
      const ssize_t n = ::recv(fd, out, max, 0);
      if (n >= 0) return static_cast<std::size_t>(n);
      if (errno == EINTR) continue;
      if ((errno == EAGAIN || errno == EWOULDBLOCK) && timed_) {
        // SO_RCVTIMEO expired: the peer is stalled, not gone.
        throw TransportTimeout("serve: socket read timed out");
      }
      return 0;  // reset/closed peer reads as EOF at the frame layer
    }
  }

  std::atomic<int> fd_;
  // Whether a deadline is armed; EAGAIN on an un-timed blocking socket (not
  // expected, but possible with exotic socket options) keeps mapping to EOF.
  std::atomic<bool> timed_{false};
  // The armed SO_RCVTIMEO in ms, 0 for none (a new socket's default).
  // Reads, timeout-sets and buffer_ belong to one reading thread.
  double timeout_ms_ = 0.0;
  char buffer_[512];
  std::size_t begin_ = 0;
  std::size_t end_ = 0;
};

}  // namespace

StreamPair make_in_process_pair(std::size_t capacity) {
  auto a_to_b = std::make_shared<Pipe>(capacity);
  auto b_to_a = std::make_shared<Pipe>(capacity);
  StreamPair pair;
  pair.first = std::make_unique<InProcessStream>(b_to_a, a_to_b);
  pair.second = std::make_unique<InProcessStream>(a_to_b, b_to_a);
  return pair;
}

void InProcessListener::push(std::unique_ptr<ByteStream> stream) {
  {
    util::MutexLock lock(mutex_);
    if (closed_) throw std::runtime_error("serve: listener is closed");
    queue_.push_back(std::move(stream));
  }
  ready_.notify_one();
}

std::unique_ptr<ByteStream> InProcessListener::connect() {
  StreamPair pair = make_in_process_pair();
  push(std::move(pair.first));
  return std::move(pair.second);
}

std::unique_ptr<ByteStream> InProcessListener::accept() {
  util::MutexLock lock(mutex_);
  while (queue_.empty() && !closed_) ready_.wait(lock);
  if (closed_) return nullptr;
  std::unique_ptr<ByteStream> stream = std::move(queue_.front());
  queue_.pop_front();
  return stream;
}

void InProcessListener::close() {
  std::deque<std::unique_ptr<ByteStream>> unaccepted;
  {
    util::MutexLock lock(mutex_);
    closed_ = true;
    unaccepted.swap(queue_);
  }
  ready_.notify_all();
  for (const std::unique_ptr<ByteStream>& stream : unaccepted) stream->close();
}

SocketListener::SocketListener(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("serve: socket");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw_errno("serve: bind 127.0.0.1:" + std::to_string(port));
  }
  if (::listen(fd, 64) != 0) {
    ::close(fd);
    throw_errno("serve: listen");
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0)
    port_ = ntohs(addr.sin_port);
  fd_.store(fd, std::memory_order_release);
}

SocketListener::~SocketListener() { close(); }

std::unique_ptr<ByteStream> SocketListener::accept() {
  while (true) {
    const int fd = fd_.load(std::memory_order_acquire);
    if (fd < 0) return nullptr;  // close() already ran
    const int client = ::accept(fd, nullptr, nullptr);
    if (client >= 0) {
      const int one = 1;
      ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return std::make_unique<SocketStream>(client);
    }
    if (errno == EINTR) continue;
    return nullptr;  // listener closed (or unrecoverable): stop accepting
  }
}

void SocketListener::close() {
  // shutdown() wakes a blocked accept(); the lock-free exchange plus both
  // syscalls are async-signal-safe, so the daemon's SIGINT handler may
  // call this while connection threads are blocked in accept().
  const int fd = fd_.exchange(-1, std::memory_order_acq_rel);
  if (fd >= 0) {
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
}

std::unique_ptr<ByteStream> socket_connect(const std::string& host,
                                           std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("serve: socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw std::runtime_error("serve: bad IPv4 address '" + host + "'");
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw_errno("serve: connect " + host + ":" + std::to_string(port));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return std::make_unique<SocketStream>(fd);
}

}  // namespace jps::serve
