// Transports: how coordinators talk to device workers.
//
//  - In-process: a pair of bounded queues moving Messages by value.  Fast,
//    used by default in tests and examples.
//  - TCP: real loopback sockets with length-prefixed frames — the same
//    distributed glue the paper's Raspberry-Pi framework uses (TCP/IP
//    sockets, §IV-D), so framing and partial reads/writes are genuinely
//    exercised.
//
// The data plane has two entry points besides send()/recv().  send_piece()
// ships a region of a map the caller keeps, and recv_result() lands a
// WorkResult's payload in place inside a map the caller owns.  Over TCP
// every tensor byte is then copied once per direction, by the kernel:
// send_piece gathers the header and the region's rows into one sendmsg, and
// recv_result and recv read the payload straight into tensor storage with
// readv-style scatter reads.  In process each is one row copy, as
// extract/stitch make.  Either way the bytes are those send() would carry
// for the same message (message.hpp's PIC4 codec).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "runtime/channel.hpp"
#include "runtime/message.hpp"
#include "tensor/region.hpp"
#include "tensor/tensor.hpp"

namespace pico::runtime {

/// Where recv_result() lands the payload of the WorkResult it awaits.
struct ResultSlot {
  /// Results for any other task are stale: read, dropped, and returned so
  /// the caller can log them.
  std::int64_t task_id = 0;
  /// The awaited result must name this region and carry shape(); its
  /// payload lands in channels [channel_offset, channel_offset + channels)
  /// × out_region of *map.
  Region out_region;
  int channels = 0;
  Tensor* map = nullptr;
  int channel_offset = 0;

  Shape shape() const {
    return {channels, out_region.height(), out_region.width()};
  }
};

/// Cumulative per-connection transfer accounting.  `*_seconds` is wall time
/// spent inside send()/recv() — for recv that includes time blocked waiting
/// for the peer, which on a coordinator endpoint is the gather wait and on a
/// worker endpoint is idle time.  In-process connections count frames and
/// (serialized-equivalent) bytes but do not time their queue operations.
struct ConnectionStats {
  std::int64_t frames_sent = 0;
  std::int64_t frames_received = 0;
  std::int64_t bytes_sent = 0;
  std::int64_t bytes_received = 0;
  double send_seconds = 0.0;
  double recv_seconds = 0.0;
};

/// Bidirectional, blocking, message-oriented connection endpoint.
/// recv() blocks until a message arrives; throws TransportError when the
/// peer closes.  Thread-compatible: at most one sender and one receiver
/// thread per endpoint.
class Connection {
 public:
  virtual ~Connection() = default;
  virtual void send(const Message& message) = 0;
  /// Sends `header` with `region` of `source` (every channel) as its tensor:
  /// the frame send() would carry for a copy of `header` holding
  /// extract(source, region).  header.tensor is not read.
  virtual void send_piece(const Message& header, const Tensor& source,
                          const Region& region) = 0;
  virtual Message recv() = 0;
  /// Receives one WorkResult frame and returns its header (tensor empty).
  /// A result for slot.task_id must name slot.out_region and carry
  /// slot.shape(); its payload lands in the slot's destination and nowhere
  /// else.  A result for another task is stale and its payload is dropped.
  /// Any other message type, or a mismatched region or shape, throws
  /// InvariantError with the frame consumed and the destination untouched.
  virtual Message recv_result(const ResultSlot& slot) = 0;
  virtual void close() = 0;
  /// Transfer totals so far; safe to call concurrently with send/recv.
  virtual ConnectionStats stats() const { return {}; }
  /// Per-operation deadline for send()/recv(); past it they throw
  /// TimeoutError instead of blocking.  0 (the default) blocks forever.
  /// Safe to call concurrently with send/recv; applies from the next
  /// operation on.
  virtual void set_timeout_ms(std::int64_t /*timeout_ms*/) {}
  /// True once close() has been called on this endpoint (or, for the
  /// in-process transport, on the peer).  Advisory: a racing recv() may
  /// still complete.
  virtual bool closed() const { return false; }
};

/// Two connected in-process endpoints.
std::pair<std::unique_ptr<Connection>, std::unique_ptr<Connection>>
make_inproc_pair();

/// Listening TCP socket (port 0 = ephemeral).  Binds 127.0.0.1 by default;
/// pass "0.0.0.0" (or a specific interface address) to accept connections
/// from other machines.
class TcpListener {
 public:
  explicit TcpListener(std::uint16_t port = 0,
                       const std::string& bind_host = "127.0.0.1");
  ~TcpListener();
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  std::uint16_t port() const { return port_; }
  /// Blocks for one inbound connection.
  std::unique_ptr<Connection> accept();

 private:
  // sched-exempt: set by the constructor, read by accept()/port(), closed
  // by the destructor — a listener is owned and driven by one thread.
  int fd_ = -1;
  // sched-exempt: immutable after construction.
  std::uint16_t port_ = 0;
};

/// Connect to a listener on 127.0.0.1 (loopback default for tests).
std::unique_ptr<Connection> tcp_connect(std::uint16_t port);

/// Connect to a listener on `host` (name or numeric address, resolved via
/// getaddrinfo) — how a worker on another machine joins the cluster.
std::unique_ptr<Connection> tcp_connect(const std::string& host,
                                        std::uint16_t port);

enum class TransportKind { InProcess, Tcp };

}  // namespace pico::runtime
