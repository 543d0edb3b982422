#include "runtime/transport.hpp"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstring>
#include <vector>

#include "common/error.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/trace.hpp"
#include "tensor/slice.hpp"

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

/// The destination a ResultSlot names must lie inside its map.
void check_slot(const ResultSlot& slot) {
  PICO_CHECK_MSG(slot.map != nullptr, "result slot has no destination map");
  check_piece(slot.map->shape(), slot.channel_offset, slot.channels,
              slot.out_region);
}

/// Whether a received frame (header + tensor shape) is the result `slot`
/// awaits: false for a stale task; throws for any other message type and
/// for an awaited result whose region or shape disagrees with the slot.
bool fills_slot(const Message& header, const Shape& shape,
                const ResultSlot& slot) {
  PICO_CHECK_MSG(header.type == MessageType::WorkResult,
                 "expected a WorkResult, got message type "
                     << static_cast<std::uint32_t>(header.type));
  if (header.task_id != slot.task_id) return false;
  PICO_CHECK_MSG(header.out_region == slot.out_region,
                 "WorkResult for task " << header.task_id << " names region "
                                        << header.out_region << ", expected "
                                        << slot.out_region);
  PICO_CHECK_MSG(shape == slot.shape(),
                 "WorkResult for task " << header.task_id << " carries shape "
                                        << shape << ", expected "
                                        << slot.shape());
  return true;
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

  void send(const Message& message) override { push(message); }

  void send_piece(const Message& header, const Tensor& source,
                  const Region& region) override {
    Message message = header;
    message.tensor = extract(source, region);
    push(std::move(message));
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

  Message recv_result(const ResultSlot& slot) override {
    check_slot(slot);
    Message message = recv();
    if (fills_slot(message, message.tensor.shape(), slot)) {
      const float* from = message.tensor.data().data();
      float* to = slot.map->data().data();
      for_each_run(slot.map->shape(), slot.channel_offset,
                   slot.channels, slot.out_region,
                   [&](std::size_t offset, std::size_t floats) {
                     std::memcpy(to + offset, from, floats * sizeof(float));
                     from += floats;
                   });
    }
    message.tensor = Tensor();
    return message;
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
  void push(Message message) {
    frames_sent_.fetch_add(1, std::memory_order_relaxed);
    // Moved by value, counted as the frame TCP would carry.
    bytes_sent_.fetch_add(frame_bytes(message), std::memory_order_relaxed);
    tx_->push(std::move(message));
  }

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

/// Drops `n` transferred bytes off the front of iov[first..count), advancing
/// `first` past every entry they complete.
void advance(iovec* iov, std::size_t count, std::size_t& first,
             std::size_t n) {
  while (first < count && n >= iov[first].iov_len) {
    n -= iov[first].iov_len;
    ++first;
  }
  if (n > 0) {
    iov[first].iov_base = static_cast<std::uint8_t*>(iov[first].iov_base) + n;
    iov[first].iov_len -= n;
  }
}

/// Writes every byte `iov` names (and consumes `iov`), at most IOV_MAX
/// entries per sendmsg.  With timeout_ms > 0, each stalled write waits at
/// most until the per-operation deadline and then throws TimeoutError,
/// marked mid-frame once any byte went out (the stream is then unframeable).
void write_iov(int fd, iovec* iov, std::size_t count,
               std::int64_t timeout_ms) {
  const auto deadline =
      SteadyClock::now() + std::chrono::milliseconds(timeout_ms);
  std::size_t first = 0;
  bool started = false;
  advance(iov, count, first, 0);
  while (first < count) {
    msghdr msg{};
    msg.msg_iov = iov + first;
    msg.msg_iovlen = std::min<std::size_t>(count - first, IOV_MAX);
    const ssize_t n = ::sendmsg(
        fd, &msg, MSG_NOSIGNAL | (timeout_ms > 0 ? MSG_DONTWAIT : 0));
    if (n < 0) {
      if (errno == EINTR) continue;
      if (timeout_ms > 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        if (!wait_ready(fd, POLLOUT, deadline)) {
          obs::record_event(obs::EventCode::TransportTimeout, started ? 1 : 0);
          throw TimeoutError("send timed out", started);
        }
        continue;
      }
      throw_errno("send");
    }
    started = true;
    advance(iov, count, first, static_cast<std::size_t>(n));
  }
}

/// Fills every byte `iov` names (and consumes `iov`), at most IOV_MAX
/// entries per recvmsg.  Returns false on clean EOF before the first byte.
/// With timeout_ms > 0, throws TimeoutError once the per-operation deadline
/// passes; `frame_started` marks whether earlier bytes of the same frame
/// were already consumed (mid-frame timeouts are unrecoverable — the
/// length-prefixed stream cannot re-synchronize).
bool read_iov(int fd, iovec* iov, std::size_t count, std::int64_t timeout_ms,
              bool frame_started) {
  const auto deadline =
      SteadyClock::now() + std::chrono::milliseconds(timeout_ms);
  std::size_t first = 0;
  bool started = false;
  advance(iov, count, first, 0);
  while (first < count) {
    if (timeout_ms > 0 && !wait_ready(fd, POLLIN, deadline)) {
      const bool mid_frame = frame_started || started;
      obs::record_event(obs::EventCode::TransportTimeout, mid_frame ? 1 : 0);
      throw TimeoutError("recv timed out", mid_frame);
    }
    msghdr msg{};
    msg.msg_iov = iov + first;
    msg.msg_iovlen = std::min<std::size_t>(count - first, IOV_MAX);
    const ssize_t n = ::recvmsg(fd, &msg, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("recv");
    }
    if (n == 0) {
      if (!started) return false;
      throw TransportError("peer closed mid-frame");
    }
    started = true;
    advance(iov, count, first, static_cast<std::size_t>(n));
  }
  return true;
}

/// read_iov into one buffer.
bool read_all(int fd, void* data, std::size_t size, std::int64_t timeout_ms,
              bool frame_started) {
  iovec iov{data, size};
  return read_iov(fd, &iov, 1, timeout_ms, frame_started);
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
    const Shape& shape = message.tensor.shape();
    send_frame(message, message.tensor,
               Region::full(shape.height, shape.width));
  }

  void send_piece(const Message& header, const Tensor& source,
                  const Region& region) override {
    send_frame(header, source, region);
  }

  Message recv() override {
    const std::int64_t start_ns = obs::Tracer::now_ns();
    Inbound frame = decode_head();
    // decode_head proved the payload holds exactly elements() × 4 bytes of
    // a frame at most 4 GiB long; restated as the bound on this allocation.
    PICO_CHECK(static_cast<std::uint64_t>(frame.shape.elements()) * 4 ==
               frame.left);
    Message message = std::move(frame.header);
    message.tensor = Tensor::uninitialized(frame.shape);
    read_payload(frame, message.tensor, 0,
                 Region::full(frame.shape.height, frame.shape.width));
    account(frame, start_ns);
    return message;
  }

  Message recv_result(const ResultSlot& slot) override {
    check_slot(slot);
    const std::int64_t start_ns = obs::Tracer::now_ns();
    Inbound frame = decode_head();
    bool fills = false;
    try {
      fills = fills_slot(frame.header, frame.shape, slot);
    } catch (...) {
      skip(frame);
      throw;
    }
    if (fills) {
      read_payload(frame, *slot.map, slot.channel_offset, slot.out_region);
    } else {
      skip(frame);
    }
    account(frame, start_ns);
    return std::move(frame.header);
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
  /// One inbound frame, read front to back.
  struct Inbound {
    Message header;  ///< decoded header and blob; tensor empty
    Shape shape;     ///< the payload's tensor shape
    std::uint64_t length = 0;  ///< frame bytes after the length prefix
    std::uint64_t left = 0;    ///< frame bytes not yet read
    std::int64_t timeout_ms = 0;
  };

  /// Sends `header` with channels × `region` of `source` as its tensor: the
  /// encoded header, then the region's rows straight from `source`, in one
  /// gathered write.
  void send_frame(const Message& header, const Tensor& source,
                  const Region& region) {
    // A connection closed mid-shutdown is a transport condition (the normal
    // stop() / Shutdown-message race), not a programming error.
    if (closed_.load(std::memory_order_acquire)) {
      throw TransportError("send on closed connection");
    }
    obs::Span span("send", "net", obs::net_track(), header.task_id);
    const std::int64_t start_ns = obs::Tracer::now_ns();
    const Shape shape{source.shape().channels, region.height(),
                      region.width()};
    std::vector<std::uint8_t> head(kLengthPrefixBytes);
    head.reserve(kLengthPrefixBytes + kFixedHeaderBytes + header.blob.size() +
                 kShapeBytes);
    encode_header(header, shape, head);
    const std::int64_t bytes = frame_bytes(header, shape);
    const auto length = static_cast<std::uint64_t>(bytes) - kLengthPrefixBytes;
    std::memcpy(head.data(), &length, sizeof(length));
    std::vector<iovec> iov{{head.data(), head.size()}};
    // iovec names mutable memory, but sendmsg only reads it.
    float* data = const_cast<float*>(source.data().data());
    for_each_run(source.shape(), 0, shape.channels, region,
                 [&](std::size_t offset, std::size_t floats) {
                   iov.push_back({data + offset, floats * sizeof(float)});
                 });
    write_iov(fd_, iov.data(), iov.size(),
              timeout_ms_.load(std::memory_order_relaxed));
    frames_sent_.fetch_add(1, std::memory_order_relaxed);
    bytes_sent_.fetch_add(bytes, std::memory_order_relaxed);
    atomic_add_seconds(
        send_seconds_,
        static_cast<double>(obs::Tracer::now_ns() - start_ns) / 1e9);
    span.arg("bytes", std::to_string(bytes));
  }

  /// Reads one frame up to its payload: the length prefix, the fixed
  /// header, the blob and the shape.  Every decoded extent is checked
  /// against the frame's length before anything is allocated from it; a
  /// frame that fails a check is read to its end first, so the stream
  /// stays framed for the next one.
  Inbound decode_head() {
    if (closed_.load(std::memory_order_acquire)) {
      throw TransportError("recv on closed connection");
    }
    Inbound frame;
    frame.timeout_ms = timeout_ms_.load(std::memory_order_relaxed);
    std::uint64_t length = 0;
    if (!read_all(fd_, &length, sizeof(length), frame.timeout_ms, false)) {
      throw TransportError("tcp peer closed");
    }
    PICO_CHECK_MSG(length <= (1ull << 32), "oversized frame");
    frame.length = length;
    frame.left = length;
    std::uint8_t fixed[kFixedHeaderBytes];
    const auto fixed_bytes = static_cast<std::size_t>(
        std::min<std::uint64_t>(length, kFixedHeaderBytes));
    read_frame_bytes(frame, fixed, fixed_bytes);
    std::uint64_t blob_size = 0;
    try {
      blob_size = decode_header(fixed, fixed_bytes, frame.header);
      PICO_CHECK_MSG(frame.left >= kShapeBytes &&
                         blob_size <= frame.left - kShapeBytes,
                     "message blob truncated");
    } catch (...) {
      skip(frame);
      throw;
    }
    frame.header.blob.resize(static_cast<std::size_t>(blob_size));
    read_frame_bytes(frame, frame.header.blob.data(),
                     frame.header.blob.size());
    std::uint8_t shape[kShapeBytes];
    read_frame_bytes(frame, shape, kShapeBytes);
    try {
      frame.shape = decode_shape(shape, frame.left);
    } catch (...) {
      skip(frame);
      throw;
    }
    return frame;
  }

  /// Reads `size` more bytes of `frame` into `data`.
  void read_frame_bytes(Inbound& frame, void* data, std::size_t size) {
    PICO_CHECK(size <= frame.left);
    if (size == 0) return;
    if (!read_all(fd_, data, size, frame.timeout_ms, true)) {
      throw TransportError("tcp peer closed mid-frame");
    }
    frame.left -= size;
  }

  /// Reads the payload of `frame` straight into channels [channel_offset,
  /// + frame.shape.channels) × `region` of `map`, one scatter read.
  void read_payload(Inbound& frame, Tensor& map, int channel_offset,
                    const Region& region) {
    std::vector<iovec> iov;
    std::uint64_t bytes = 0;
    float* data = map.data().data();
    for_each_run(map.shape(), channel_offset, frame.shape.channels, region,
                 [&](std::size_t offset, std::size_t floats) {
                   iov.push_back({data + offset, floats * sizeof(float)});
                   bytes += floats * sizeof(float);
                 });
    PICO_CHECK_MSG(bytes == frame.left,
                   "payload destination holds " << bytes << " bytes, frame "
                                                << frame.left);
    if (!read_iov(fd_, iov.data(), iov.size(), frame.timeout_ms, true)) {
      throw TransportError("tcp peer closed mid-frame");
    }
    frame.left = 0;
  }

  /// Reads the rest of `frame` into a scratch buffer and drops it.
  void skip(Inbound& frame) {
    std::vector<std::uint8_t> discard(static_cast<std::size_t>(
        std::min<std::uint64_t>(frame.left, 64 * 1024)));
    while (frame.left > 0) {
      read_frame_bytes(frame, discard.data(),
                       static_cast<std::size_t>(std::min<std::uint64_t>(
                           frame.left, discard.size())));
    }
  }

  /// Counts one fully read frame.
  void account(const Inbound& frame, std::int64_t start_ns) {
    frames_received_.fetch_add(1, std::memory_order_relaxed);
    bytes_received_.fetch_add(
        static_cast<std::int64_t>(kLengthPrefixBytes + frame.length),
        std::memory_order_relaxed);
    atomic_add_seconds(
        recv_seconds_,
        static_cast<double>(obs::Tracer::now_ns() - start_ns) / 1e9);
  }

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
    // write_iov/read_iov do instead of tearing the listener down.
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
