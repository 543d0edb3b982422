// Wire-protocol version gating and frame accounting.
//
// The decoder is version-gated on the leading magic: this build speaks
// exactly "PIC4".  Anything else — an older "PIC3"/"PIC2"/"PIC1" build or
// a foreign stream — must be rejected with a TransportError naming both the
// received and the supported versions.  TransportError is the serve loop's
// graceful-exit signal, so a version-skewed peer ends the session cleanly
// instead of the worker dying on a garbled frame mid-decode.  Truncation of
// an otherwise well-versioned frame stays an InvariantError (corruption,
// not skew).  frame_bytes() is the one size formula both transports count
// ConnectionStats with.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "models/zoo.hpp"
#include "runtime/message.hpp"
#include "runtime/transport.hpp"
#include "runtime/worker.hpp"

namespace pico {
namespace {

using runtime::Message;
using runtime::MessageType;

Message sample_request() {
  Message m;
  m.type = MessageType::WorkRequest;
  m.task_id = 7;
  m.stage_index = 1;
  m.first_node = 1;
  m.last_node = 2;
  m.in_region = {0, 4, 0, 8};
  m.out_region = {0, 4, 0, 8};
  m.trace_id = 0xabcdef0123456789ull;
  m.parent_span = 0x42ull;
  m.t_origin_ns = 111;
  m.t_recv_ns = 222;
  m.t_send_ns = 333;
  m.t_compute_start_ns = 444;
  m.t_compute_end_ns = 555;
  m.span_cursor = 96;
  m.span_cursor_base = 64;
  m.blob = {1, 2, 3, 250, 251, 252};
  m.tensor = Tensor({1, 4, 8});
  Rng rng(5);
  m.tensor.randomize(rng);
  return m;
}

/// Serialize, then overwrite the little-endian magic with another value.
std::vector<std::uint8_t> with_magic(const Message& message,
                                     std::uint32_t magic) {
  std::vector<std::uint8_t> bytes = runtime::serialize(message);
  EXPECT_GE(bytes.size(), 4u);
  std::memcpy(bytes.data(), &magic, sizeof(magic));
  return bytes;
}

/// Byte offset of the span-cursor pair in a serialized frame: the fixed
/// header before it is magic(4) + type(4) + task(8) + stage/first/last(12)
/// + compute(8) + trace ctx(16) + five timestamps(40).
constexpr std::size_t kCursorOffset = 92;

TEST(MessageVersion, RoundTripPreservesV2AndV3Fields) {
  const Message original = sample_request();
  const auto bytes = runtime::serialize(original);
  const Message decoded = runtime::deserialize(bytes.data(), bytes.size());
  EXPECT_EQ(decoded.trace_id, original.trace_id);
  EXPECT_EQ(decoded.parent_span, original.parent_span);
  EXPECT_EQ(decoded.t_origin_ns, original.t_origin_ns);
  EXPECT_EQ(decoded.t_recv_ns, original.t_recv_ns);
  EXPECT_EQ(decoded.t_send_ns, original.t_send_ns);
  EXPECT_EQ(decoded.t_compute_start_ns, original.t_compute_start_ns);
  EXPECT_EQ(decoded.t_compute_end_ns, original.t_compute_end_ns);
  EXPECT_EQ(decoded.span_cursor, original.span_cursor);
  EXPECT_EQ(decoded.span_cursor_base, original.span_cursor_base);
  EXPECT_EQ(decoded.blob, original.blob);
  EXPECT_FLOAT_EQ(Tensor::max_abs_diff(decoded.tensor, original.tensor),
                  0.0f);
}

TEST(MessageVersion, EmitsPic4Magic) {
  const auto bytes = runtime::serialize(sample_request());
  ASSERT_GE(bytes.size(), 4u);
  std::uint32_t magic = 0;
  std::memcpy(&magic, bytes.data(), sizeof(magic));
  EXPECT_EQ(magic, 0x50494334u);  // 'P','I','C','4' little-endian
}

TEST(MessageVersion, EventDumpCursorsRoundTrip) {
  // EventDump (new in v4) reuses the span-cursor fields as event-journal
  // cursors; the frame must survive the wire with type and cursors exact.
  Message request;
  request.type = MessageType::EventDump;
  request.span_cursor = 12345;       // event cursor: "give me seq > 12345"
  request.span_cursor_base = 777;    // base echoed by the worker
  request.blob = {9, 8, 7};          // encoded PEV1 chunk rides in the blob
  const auto bytes = runtime::serialize(request);
  const Message decoded = runtime::deserialize(bytes.data(), bytes.size());
  EXPECT_EQ(decoded.type, MessageType::EventDump);
  EXPECT_EQ(decoded.span_cursor, 12345u);
  EXPECT_EQ(decoded.span_cursor_base, 777u);
  EXPECT_EQ(decoded.blob, request.blob);
  // The cursor pair sits at the documented fixed offset (the skew matrix
  // below splices there, so the layout is load-bearing for the tests too).
  std::uint64_t at_offset = 0;
  std::memcpy(&at_offset, bytes.data() + kCursorOffset, sizeof(at_offset));
  EXPECT_EQ(at_offset, 12345u);
}

TEST(MessageVersion, Pic1RejectionNamesPic4Too) {
  const auto bytes = with_magic(sample_request(), 0x50494331u);
  try {
    runtime::deserialize(bytes.data(), bytes.size());
    FAIL() << "PIC1 frame was accepted";
  } catch (const TransportError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("PIC4"), std::string::npos) << what;
  }
}

TEST(MessageVersion, OlderVersionsRejectedAsVersionSkew) {
  // Older versions get the same graceful rejection as any other magic,
  // naming what was received and what this build speaks.
  for (const std::uint32_t magic : {0x50494332u, 0x50494333u}) {
    const auto bytes = with_magic(sample_request(), magic);
    try {
      runtime::deserialize(bytes.data(), bytes.size());
      FAIL() << "frame with magic " << std::hex << magic << " was accepted";
    } catch (const TransportError& error) {
      const std::string what = error.what();
      EXPECT_NE(what.find(magic == 0x50494332u ? "PIC2" : "PIC3"),
                std::string::npos)
          << what;
      EXPECT_NE(what.find("PIC4"), std::string::npos) << what;
    }
  }
}

TEST(MessageVersion, Pic1FrameRejectedNamingBothVersions) {
  // 'P','I','C','1' little-endian: the magic an old v1 build would send.
  const auto bytes = with_magic(sample_request(), 0x50494331u);
  try {
    runtime::deserialize(bytes.data(), bytes.size());
    FAIL() << "PIC1 frame was accepted";
  } catch (const TransportError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("PIC1"), std::string::npos) << what;
    EXPECT_NE(what.find("PIC4"), std::string::npos) << what;
  }
}

TEST(MessageVersion, ForeignMagicRejectedAsTransportError) {
  // Non-printable magic renders as hex, and is still a graceful
  // TransportError — never an invariant failure or a crash.
  const auto bytes = with_magic(sample_request(), 0xdeadbeefu);
  try {
    runtime::deserialize(bytes.data(), bytes.size());
    FAIL() << "foreign frame was accepted";
  } catch (const TransportError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("0x"), std::string::npos) << what;
    EXPECT_NE(what.find("PIC4"), std::string::npos) << what;
  }
}

TEST(MessageVersion, TruncationIsCorruptionNotVersionSkew) {
  const auto bytes = runtime::serialize(sample_request());
  EXPECT_THROW(runtime::deserialize(bytes.data(), bytes.size() - 1),
               InvariantError);
  // Shorter than the magic itself: cannot even version-check.
  EXPECT_THROW(runtime::deserialize(bytes.data(), 3), InvariantError);
}

TEST(MessageVersion, BlobLengthIsBoundsChecked) {
  // A frame whose blob length field points past the buffer must be caught
  // by the decoder, not read out of bounds.
  auto bytes = runtime::serialize(sample_request());
  // Chop the frame right after the fixed header; the encoded blob length
  // then exceeds the remaining bytes.
  bytes.resize(bytes.size() - 8);
  EXPECT_THROW(runtime::deserialize(bytes.data(), bytes.size()),
               InvariantError);
}

// The tensor shape is the last wire-controlled allocation driver in the
// frame: three int32 extents followed by elements()*4 payload bytes at the
// tail.  Both corruptions below must be rejected BEFORE Tensor() allocates
// — a negative extent is UB in Shape::elements(), and extreme extents
// (2^31-1 each) would demand a multi-exabyte allocation whose byte count
// also overflows 64-bit arithmetic if computed naively.
std::size_t shape_offset(const std::vector<std::uint8_t>& bytes) {
  const std::size_t payload =
      static_cast<std::size_t>(sample_request().tensor.shape().elements()) * 4;
  return bytes.size() - payload - 12;  // 3 × int32 extents before payload
}

void put_u32(std::vector<std::uint8_t>& bytes, std::size_t at,
             std::uint32_t value) {
  std::memcpy(bytes.data() + at, &value, sizeof(value));
}

TEST(MessageVersion, NegativeShapeExtentRejectedBeforeAllocation) {
  auto bytes = runtime::serialize(sample_request());
  put_u32(bytes, shape_offset(bytes), 0x80000001u);  // channels = INT_MIN+1
  EXPECT_THROW(runtime::deserialize(bytes.data(), bytes.size()),
               InvariantError);
}

TEST(MessageVersion, ExtremeShapeExtentsRejectedBeforeAllocation) {
  auto bytes = runtime::serialize(sample_request());
  const std::size_t at = shape_offset(bytes);
  put_u32(bytes, at, 0x7fffffffu);      // channels
  put_u32(bytes, at + 4, 0x7fffffffu);  // height
  put_u32(bytes, at + 8, 0x7fffffffu);  // width: elements() ≈ 2^93
  EXPECT_THROW(runtime::deserialize(bytes.data(), bytes.size()),
               InvariantError);
}

// End to end over a real socket: a "v1 peer" writes a PIC1 frame into a
// serving worker.  The worker's serve loop must exit cleanly (TransportError
// path), not crash or hang.
TEST(MessageVersion, ServeLoopEndsGracefullyOnVersionSkew) {
  nn::Graph graph = models::toy_mnist({.input_size = 16});
  Rng rng(3);
  graph.randomize_weights(rng);

  runtime::TcpListener listener;
  std::thread server([&] {
    auto connection = listener.accept();
    runtime::serve_blocking(graph, *connection, /*device=*/0);
  });

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(listener.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);

  // The transport frames messages as a host-endian u64 length + payload.
  const auto payload = with_magic(sample_request(), 0x50494331u);
  const std::uint64_t length = payload.size();
  ASSERT_EQ(::write(fd, &length, sizeof(length)),
            static_cast<ssize_t>(sizeof(length)));
  ASSERT_EQ(::write(fd, payload.data(), payload.size()),
            static_cast<ssize_t>(payload.size()));

  // A graceful serve-loop exit closes the connection; join proves no hang.
  server.join();
  ::close(fd);
}

// --- frame accounting --------------------------------------------------

TEST(FrameBytes, MatchesLengthPrefixPlusSerializedSize) {
  Message empty;
  empty.type = MessageType::Ping;
  for (const Message& message : {sample_request(), empty}) {
    EXPECT_EQ(runtime::frame_bytes(message),
              static_cast<std::int64_t>(sizeof(std::uint64_t) +
                                        runtime::serialize(message).size()));
  }
}

/// Send `message` one way over `sender` and receive it on `receiver`.
void send_one(runtime::Connection& sender, runtime::Connection& receiver,
              const Message& message) {
  std::thread reader([&receiver] { receiver.recv(); });
  sender.send(message);
  reader.join();
}

TEST(FrameBytes, InProcAndTcpConnectionStatsAgree) {
  // One WorkRequest (tensor + blob) and one control-plane reply (blob only)
  // each way: both transports must count the same bytes per frame.
  Message request = sample_request();
  Message reply;
  reply.type = MessageType::TraceDump;
  reply.blob = {1, 2, 3, 4, 5};

  auto [inproc_a, inproc_b] = runtime::make_inproc_pair();
  runtime::TcpListener listener;
  std::unique_ptr<runtime::Connection> tcp_b;
  std::thread acceptor([&] { tcp_b = listener.accept(); });
  std::unique_ptr<runtime::Connection> tcp_a =
      runtime::tcp_connect(listener.port());
  acceptor.join();

  for (auto [a, b] : {std::pair{inproc_a.get(), inproc_b.get()},
                      std::pair{tcp_a.get(), tcp_b.get()}}) {
    send_one(*a, *b, request);
    send_one(*b, *a, reply);
  }
  const std::int64_t expected =
      runtime::frame_bytes(request) + runtime::frame_bytes(reply);
  for (runtime::Connection* end : {inproc_a.get(), tcp_a.get()}) {
    const runtime::ConnectionStats stats = end->stats();
    EXPECT_EQ(stats.frames_sent, 1);
    EXPECT_EQ(stats.frames_received, 1);
    EXPECT_EQ(stats.bytes_sent + stats.bytes_received, expected);
  }
  EXPECT_EQ(inproc_a->stats().bytes_sent, tcp_a->stats().bytes_sent);
  EXPECT_EQ(inproc_a->stats().bytes_received, tcp_a->stats().bytes_received);
  EXPECT_EQ(inproc_b->stats().bytes_sent, tcp_b->stats().bytes_sent);
  EXPECT_EQ(inproc_b->stats().bytes_received, tcp_b->stats().bytes_received);
}

}  // namespace
}  // namespace pico
