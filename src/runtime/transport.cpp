#include "runtime/transport.hpp"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "common/error.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/trace.hpp"

namespace pico::runtime {

namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw TransportError(std::string(what) + ": " + std::strerror(errno));
}

void atomic_add_seconds(std::atomic<double>& target, double delta) {
  double current = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(current, current + delta,
                                       std::memory_order_relaxed)) {
  }
}

// ---------------------------------------------------------------------------
// In-process transport
// ---------------------------------------------------------------------------

class InProcConnection : public Connection {
 public:
  InProcConnection(std::shared_ptr<BoundedQueue<Message>> tx,
                   std::shared_ptr<BoundedQueue<Message>> rx)
      : tx_(std::move(tx)), rx_(std::move(rx)) {}

  ~InProcConnection() override { close(); }

  void send(const Message& message) override {
    frames_sent_.fetch_add(1, std::memory_order_relaxed);
    // Moved by value, counted as the frame TCP would carry.
    bytes_sent_.fetch_add(frame_bytes(message), std::memory_order_relaxed);
    tx_->push(message);
  }

  Message recv() override {
    const std::int64_t timeout_ms =
        timeout_ms_.load(std::memory_order_relaxed);
    bool timed_out = false;
    std::optional<Message> message =
        rx_->pop_for(timeout_ms * 1'000'000, &timed_out);
    if (!message) {
      // In-process frames arrive whole, so a timeout is never mid-frame.
      if (timed_out) {
        obs::record_event(obs::EventCode::TransportTimeout, 0);
        throw TimeoutError("in-process recv timed out");
      }
      throw TransportError("in-process peer closed");
    }
    frames_received_.fetch_add(1, std::memory_order_relaxed);
    bytes_received_.fetch_add(frame_bytes(*message),
                              std::memory_order_relaxed);
    return std::move(*message);
  }

  void close() override {
    tx_->close();
    rx_->close();
  }

  void set_timeout_ms(std::int64_t timeout_ms) override {
    timeout_ms_.store(timeout_ms, std::memory_order_relaxed);
  }

  bool closed() const override { return tx_->closed(); }

  ConnectionStats stats() const override {
    ConnectionStats out;
    out.frames_sent = frames_sent_.load(std::memory_order_relaxed);
    out.frames_received = frames_received_.load(std::memory_order_relaxed);
    out.bytes_sent = bytes_sent_.load(std::memory_order_relaxed);
    out.bytes_received = bytes_received_.load(std::memory_order_relaxed);
    return out;
  }

 private:
  std::shared_ptr<BoundedQueue<Message>> tx_;
  std::shared_ptr<BoundedQueue<Message>> rx_;
  std::atomic<std::int64_t> timeout_ms_{0};
  std::atomic<std::int64_t> frames_sent_{0};
  std::atomic<std::int64_t> frames_received_{0};
  std::atomic<std::int64_t> bytes_sent_{0};
  std::atomic<std::int64_t> bytes_received_{0};
};

// ---------------------------------------------------------------------------
// TCP transport
// ---------------------------------------------------------------------------

using SteadyClock = std::chrono::steady_clock;

/// Milliseconds left until `deadline`, clamped to [0, INT_MAX] for poll().
int remaining_ms(SteadyClock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                        deadline - SteadyClock::now())
                        .count();
  if (left <= 0) return 0;
  if (left > 2'000'000'000) return 2'000'000'000;
  return static_cast<int>(left);
}

/// Blocks until `fd` is ready for `events` (POLLIN/POLLOUT) or the deadline
/// passes.  Returns false on deadline.  EINTR retries with the remaining
/// budget.  POLLERR/POLLHUP count as ready — the following send/recv
/// surfaces the actual socket error or EOF.
bool wait_ready(int fd, short events, SteadyClock::time_point deadline) {
  for (;;) {
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = events;
    const int budget = remaining_ms(deadline);
    const int rc = ::poll(&pfd, 1, budget);
    if (rc > 0) return true;
    if (rc == 0) {
      if (budget == 0 && SteadyClock::now() < deadline) continue;
      return false;
    }
    if (errno == EINTR) continue;
    throw_errno("poll");
  }
}

/// Writes exactly `size` bytes.  With timeout_ms > 0, each stalled write
/// waits at most until the per-operation deadline and then throws
/// TimeoutError; `frame_started` marks whether earlier bytes of the same
/// frame already went out (a mid-frame timeout leaves the stream
/// unframeable).
void write_all(int fd, const void* data, std::size_t size,
               std::int64_t timeout_ms = 0, bool frame_started = false) {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  const auto deadline =
      SteadyClock::now() + std::chrono::milliseconds(timeout_ms);
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd, bytes + sent, size - sent,
                             MSG_NOSIGNAL | (timeout_ms > 0 ? MSG_DONTWAIT : 0));
    if (n < 0) {
      if (errno == EINTR) continue;
      if (timeout_ms > 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        if (!wait_ready(fd, POLLOUT, deadline)) {
          const bool mid_frame = frame_started || sent > 0;
          obs::record_event(obs::EventCode::TransportTimeout,
                            mid_frame ? 1 : 0);
          throw TimeoutError("send timed out", mid_frame);
        }
        continue;
      }
      throw_errno("send");
    }
    sent += static_cast<std::size_t>(n);
  }
}

/// Reads exactly `size` bytes.  Returns false on clean EOF before the first
/// byte.  With timeout_ms > 0, throws TimeoutError once the per-operation
/// deadline passes; `frame_started` marks whether earlier bytes of the same
/// frame were already consumed (mid-frame timeouts are unrecoverable — the
/// length-prefixed stream cannot re-synchronize).
bool read_all(int fd, void* data, std::size_t size, std::int64_t timeout_ms = 0,
              bool frame_started = false) {
  auto* bytes = static_cast<std::uint8_t*>(data);
  const auto deadline =
      SteadyClock::now() + std::chrono::milliseconds(timeout_ms);
  std::size_t received = 0;
  while (received < size) {
    if (timeout_ms > 0 && !wait_ready(fd, POLLIN, deadline)) {
      const bool mid_frame = frame_started || received > 0;
      obs::record_event(obs::EventCode::TransportTimeout, mid_frame ? 1 : 0);
      throw TimeoutError("recv timed out", mid_frame);
    }
    const ssize_t n = ::recv(fd, bytes + received, size - received, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("recv");
    }
    if (n == 0) {
      if (received == 0) return false;
      throw TransportError("peer closed mid-frame");
    }
    received += static_cast<std::size_t>(n);
  }
  return true;
}

class TcpConnection : public Connection {
 public:
  explicit TcpConnection(int fd) : fd_(fd) {
    const int one = 1;
    // pico-lint: allow(unchecked-status): TCP_NODELAY is a latency hint;
    // the connection is fully functional without it
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }

  ~TcpConnection() override {
    close();
    // By destruction time every thread using this connection has been
    // joined, so releasing the descriptor cannot race with a blocked recv.
    // pico-lint: allow(unchecked-status): destructors cannot surface errors
    ::close(fd_);
  }

  void send(const Message& message) override {
    // A connection closed mid-shutdown is a transport condition (the normal
    // stop() / Shutdown-message race), not a programming error.
    if (closed_.load(std::memory_order_acquire)) {
      throw TransportError("send on closed connection");
    }
    obs::Span span("send", "net", obs::net_track(), message.task_id);
    const std::int64_t start_ns = obs::Tracer::now_ns();
    const std::int64_t timeout_ms =
        timeout_ms_.load(std::memory_order_relaxed);
    const std::vector<std::uint8_t> payload = serialize(message);
    const std::uint64_t length = payload.size();
    write_all(fd_, &length, sizeof(length), timeout_ms, false);
    write_all(fd_, payload.data(), payload.size(), timeout_ms, true);
    const std::int64_t bytes = frame_bytes(message);
    frames_sent_.fetch_add(1, std::memory_order_relaxed);
    bytes_sent_.fetch_add(bytes, std::memory_order_relaxed);
    atomic_add_seconds(
        send_seconds_,
        static_cast<double>(obs::Tracer::now_ns() - start_ns) / 1e9);
    span.arg("bytes", std::to_string(bytes));
  }

  Message recv() override {
    if (closed_.load(std::memory_order_acquire)) {
      throw TransportError("recv on closed connection");
    }
    const std::int64_t start_ns = obs::Tracer::now_ns();
    const std::int64_t timeout_ms =
        timeout_ms_.load(std::memory_order_relaxed);
    std::uint64_t length = 0;
    if (!read_all(fd_, &length, sizeof(length), timeout_ms, false)) {
      throw TransportError("tcp peer closed");
    }
    PICO_CHECK_MSG(length <= (1ull << 32), "oversized frame");
    std::vector<std::uint8_t> payload(static_cast<std::size_t>(length));
    if (!read_all(fd_, payload.data(), payload.size(), timeout_ms, true)) {
      throw TransportError("tcp peer closed mid-frame");
    }
    frames_received_.fetch_add(1, std::memory_order_relaxed);
    bytes_received_.fetch_add(
        static_cast<std::int64_t>(sizeof(length) + payload.size()),
        std::memory_order_relaxed);
    atomic_add_seconds(
        recv_seconds_,
        static_cast<double>(obs::Tracer::now_ns() - start_ns) / 1e9);
    return deserialize(payload.data(), payload.size());
  }

  // close() races with a recv() blocked on the socket in another thread by
  // design (Worker::stop unblocks the worker this way), so it must not
  // release the descriptor: a concurrent ::close() both races on the fd and
  // could hand a recycled descriptor to the blocked reader.  shutdown() only
  // wakes the peer (recv returns 0 -> clean-EOF TransportError); the fd is
  // released in the destructor, after joins.  exchange() makes repeated
  // close() calls harmless.
  void close() override {
    if (!closed_.exchange(true, std::memory_order_acq_rel)) {
      obs::record_event(obs::EventCode::TransportClose, fd_);
      // pico-lint: allow(unchecked-status): best-effort peer wakeup; failure
      // means the socket is already disconnected, which is the goal state
      ::shutdown(fd_, SHUT_RDWR);
    }
  }

  ConnectionStats stats() const override {
    ConnectionStats out;
    out.frames_sent = frames_sent_.load(std::memory_order_relaxed);
    out.frames_received = frames_received_.load(std::memory_order_relaxed);
    out.bytes_sent = bytes_sent_.load(std::memory_order_relaxed);
    out.bytes_received = bytes_received_.load(std::memory_order_relaxed);
    out.send_seconds = send_seconds_.load(std::memory_order_relaxed);
    out.recv_seconds = recv_seconds_.load(std::memory_order_relaxed);
    return out;
  }

  void set_timeout_ms(std::int64_t timeout_ms) override {
    timeout_ms_.store(timeout_ms, std::memory_order_relaxed);
  }

  bool closed() const override {
    return closed_.load(std::memory_order_acquire);
  }

 private:
  const int fd_;
  std::atomic<bool> closed_{false};
  std::atomic<std::int64_t> timeout_ms_{0};
  std::atomic<std::int64_t> frames_sent_{0};
  std::atomic<std::int64_t> frames_received_{0};
  std::atomic<std::int64_t> bytes_sent_{0};
  std::atomic<std::int64_t> bytes_received_{0};
  std::atomic<double> send_seconds_{0.0};
  std::atomic<double> recv_seconds_{0.0};
};

}  // namespace

std::pair<std::unique_ptr<Connection>, std::unique_ptr<Connection>>
make_inproc_pair() {
  auto a_to_b = std::make_shared<BoundedQueue<Message>>();
  auto b_to_a = std::make_shared<BoundedQueue<Message>>();
  return {std::make_unique<InProcConnection>(a_to_b, b_to_a),
          std::make_unique<InProcConnection>(b_to_a, a_to_b)};
}

TcpListener::TcpListener(std::uint16_t port, const std::string& bind_host) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw_errno("socket");
  const int one = 1;
  // pico-lint: allow(unchecked-status): REUSEADDR is an optimization for
  // fast listener restart; bind() reports the failure that matters
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  if (::inet_pton(AF_INET, bind_host.c_str(), &addr.sin_addr) != 1) {
    // pico-lint: allow(unchecked-status): cleanup on the constructor error
    // path; the bad-address failure is what gets reported
    ::close(fd_);
    fd_ = -1;
    throw TransportError("bind host is not a valid IPv4 address: " +
                         bind_host);
  }
  addr.sin_port = htons(port);
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    throw_errno("bind");
  }
  if (::listen(fd_, 64) < 0) throw_errno("listen");
  socklen_t len = sizeof(addr);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    throw_errno("getsockname");
  }
  port_ = ntohs(addr.sin_port);
}

TcpListener::~TcpListener() {
  if (fd_ >= 0) ::close(fd_);
}

std::unique_ptr<Connection> TcpListener::accept() {
  for (;;) {
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd >= 0) return std::make_unique<TcpConnection>(fd);
    // accept() is the one blocking call a signal lands on most often
    // (profilers, timers, forked children exiting) — retry like
    // write_all/read_all do instead of tearing the listener down.
    if (errno == EINTR) continue;
    throw_errno("accept");
  }
}

namespace {

/// connect() interrupted by a signal keeps connecting in the background
/// (POSIX leaves the socket in progress) — finish the handshake with
/// poll(POLLOUT) and read the final status from SO_ERROR.
void finish_interrupted_connect(int fd) {
  for (;;) {
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLOUT;
    const int rc = ::poll(&pfd, 1, -1);
    if (rc > 0) break;
    if (rc < 0 && errno == EINTR) continue;
    throw_errno("poll(connect)");
  }
  int status = 0;
  socklen_t len = sizeof(status);
  if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &status, &len) < 0) {
    throw_errno("getsockopt(SO_ERROR)");
  }
  if (status != 0) {
    errno = status;
    throw_errno("connect");
  }
}

}  // namespace

std::unique_ptr<Connection> tcp_connect(std::uint16_t port) {
  return tcp_connect("127.0.0.1", port);
}

std::unique_ptr<Connection> tcp_connect(const std::string& host,
                                        std::uint16_t port) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* resolved = nullptr;
  const int gai = ::getaddrinfo(host.c_str(), nullptr, &hints, &resolved);
  if (gai != 0) {
    throw TransportError("getaddrinfo(" + host +
                         "): " + ::gai_strerror(gai));
  }
  sockaddr_in addr{};
  std::memcpy(&addr, resolved->ai_addr, sizeof(addr));
  ::freeaddrinfo(resolved);
  addr.sin_port = htons(port);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  try {
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
      if (errno == EINTR) {
        finish_interrupted_connect(fd);
      } else {
        throw_errno("connect");
      }
    }
  } catch (...) {
    // pico-lint: allow(unchecked-status): cleanup on the connect error path;
    // the connect failure is what gets reported
    ::close(fd);
    throw;
  }
  obs::record_event(obs::EventCode::TransportConnect, port);
  return std::make_unique<TcpConnection>(fd);
}

}  // namespace pico::runtime
