// The zero-copy data plane: send_piece() ships a region of a map the
// caller keeps, recv() reads a payload straight into fresh tensor storage,
// and recv_result() lands a WorkResult in place in the stitched map.
//
// Three properties are pinned here.  The bytes on the wire are exactly
// the length prefix plus serialize() of the equivalent message, so the
// PIC4 format did not change.  Round trips are bit-exact for every piece
// geometry: grid (partial-width) pieces, channel offsets, and pieces with
// more runs than one sendmsg/recvmsg may carry (IOV_MAX).  And a frame
// that is stale, truncated or inconsistent never writes outside its
// destination region: the raw peer below forges such frames byte by byte.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <climits>
#include <cstdint>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "runtime/message.hpp"
#include "runtime/transport.hpp"
#include "tensor/slice.hpp"

namespace pico {
namespace {

using runtime::Connection;
using runtime::Message;
using runtime::MessageType;
using runtime::ResultSlot;
using Bytes = std::vector<std::uint8_t>;

/// Fill value of destination maps: anything still holding it afterwards was
/// never written.
constexpr float kSentinel = -7.25f;

Tensor random_tensor(Shape shape, std::uint64_t seed) {
  Tensor t(shape);
  Rng rng(seed);
  t.randomize(rng);
  return t;
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data().data(), b.data().data(),
                     static_cast<std::size_t>(a.size()) * sizeof(float)) == 0;
}

/// The length-prefixed frame a stream transport must carry for `message`.
Bytes framed(const Message& message) {
  const Bytes body = runtime::serialize(message);
  const std::uint64_t length = body.size();
  Bytes out(sizeof(length) + body.size());
  std::memcpy(out.data(), &length, sizeof(length));
  std::memcpy(out.data() + sizeof(length), body.data(), body.size());
  return out;
}

Message request_header(std::int64_t task, const Region& in_region) {
  Message m;
  m.type = MessageType::WorkRequest;
  m.task_id = task;
  m.stage_index = 2;
  m.first_node = 3;
  m.last_node = 5;
  m.in_region = in_region;
  m.out_region = in_region;
  m.trace_id = 0x1234567890abcdefull;
  m.parent_span = 99;
  m.t_origin_ns = 1001;
  return m;
}

Message result_message(std::int64_t task, const Region& out_region,
                       Tensor tensor) {
  Message m;
  m.type = MessageType::WorkResult;
  m.task_id = task;
  m.stage_index = 2;
  m.out_region = out_region;
  m.compute_seconds = 0.125;
  m.t_origin_ns = 1001;
  m.t_recv_ns = 2002;
  m.t_send_ns = 3003;
  m.t_compute_start_ns = 2100;
  m.t_compute_end_ns = 2900;
  m.tensor = std::move(tensor);
  return m;
}

ResultSlot slot_for(std::int64_t task, Tensor& map, int channel_offset,
                    int channels, const Region& region) {
  ResultSlot slot;
  slot.task_id = task;
  slot.out_region = region;
  slot.channels = channels;
  slot.map = &map;
  slot.channel_offset = channel_offset;
  return slot;
}

/// True iff channels [channel_offset, +piece channels) × `region` of `map`
/// hold `piece` bit for bit and every other element still holds kSentinel.
bool landed_exactly(const Tensor& map, int channel_offset,
                    const Region& region, const Tensor* piece) {
  for (int c = 0; c < map.shape().channels; ++c) {
    for (int y = 0; y < map.shape().height; ++y) {
      for (int x = 0; x < map.shape().width; ++x) {
        const bool inside = piece != nullptr && c >= channel_offset &&
                            c < channel_offset + piece->shape().channels &&
                            region.contains_point(y, x);
        const float want =
            inside ? piece->at(c - channel_offset, y - region.row_begin,
                               x - region.col_begin)
                   : kSentinel;
        const float got = map.at(c, y, x);
        if (std::memcmp(&want, &got, sizeof(float)) != 0) return false;
      }
    }
  }
  return true;
}

/// Every element outside channels [channel_offset, +channels) × `region`
/// still holds kSentinel.
bool untouched_outside(const Tensor& map, int channel_offset, int channels,
                       const Region& region) {
  for (int c = 0; c < map.shape().channels; ++c) {
    for (int y = 0; y < map.shape().height; ++y) {
      for (int x = 0; x < map.shape().width; ++x) {
        const bool inside = c >= channel_offset &&
                            c < channel_offset + channels &&
                            region.contains_point(y, x);
        if (!inside && map.at(c, y, x) != kSentinel) return false;
      }
    }
  }
  return true;
}

/// Two connected TcpConnections: `coordinator` and `worker` ends.
struct TcpPair {
  TcpPair() {
    std::thread connector(
        [this] { worker = runtime::tcp_connect(listener.port()); });
    coordinator = listener.accept();
    connector.join();
  }
  runtime::TcpListener listener;
  std::unique_ptr<Connection> coordinator;
  std::unique_ptr<Connection> worker;
};

/// A TcpConnection facing a raw socket, so a test can read the exact bytes
/// the connection writes, or forge the bytes it reads.
class RawPeer {
 public:
  explicit RawPeer(runtime::TcpListener& listener) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(listener.port());
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(0, ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                           sizeof(addr)));
    connection = listener.accept();
  }
  ~RawPeer() { close_raw(); }
  RawPeer(const RawPeer&) = delete;
  RawPeer& operator=(const RawPeer&) = delete;

  void write(const Bytes& bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                               MSG_NOSIGNAL);
      ASSERT_GT(n, 0);
      sent += static_cast<std::size_t>(n);
    }
  }

  Bytes read(std::size_t size) {
    Bytes out(size);
    std::size_t got = 0;
    while (got < size) {
      const ssize_t n = ::recv(fd_, out.data() + got, size - got, 0);
      EXPECT_GT(n, 0);
      if (n <= 0) break;
      got += static_cast<std::size_t>(n);
    }
    return out;
  }

  /// EOF on the connection's side after whatever was written.
  void close_raw() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  std::unique_ptr<Connection> connection;

 private:
  int fd_ = -1;
};

Bytes with_length(Bytes frame, std::uint64_t length) {
  std::memcpy(frame.data(), &length, sizeof(length));
  return frame;
}

// --- wire format ----------------------------------------------------------

TEST(FramePath, TcpFramesMatchSerializeByteForByte) {
  runtime::TcpListener listener;
  RawPeer peer(listener);
  const Tensor source = random_tensor({3, 9, 11}, 1);
  const Region grid{2, 7, 3, 10};

  // A WorkRequest sent as a piece of the stage input...
  const Message request = request_header(7, grid);
  peer.connection->send_piece(request, source, grid);
  Message whole = request;
  whole.tensor = extract(source, grid);
  const Bytes want_request = framed(whole);
  EXPECT_EQ(peer.read(want_request.size()), want_request);

  // ...a whole-map piece (one contiguous run)...
  const Region full = Region::full(9, 11);
  peer.connection->send_piece(request, source, full);
  whole.tensor = source;
  const Bytes want_full = framed(whole);
  EXPECT_EQ(peer.read(want_full.size()), want_full);

  // ...a WorkResult the way a worker sends it...
  const Message result =
      result_message(7, grid, random_tensor({4, 5, 7}, 2));
  peer.connection->send(result);
  const Bytes want_result = framed(result);
  EXPECT_EQ(peer.read(want_result.size()), want_result);

  // ...and a control-plane reply with a blob and no tensor.
  Message reply;
  reply.type = MessageType::TraceDump;
  reply.span_cursor = 12;
  reply.blob = {9, 8, 7, 6, 5};
  peer.connection->send(reply);
  const Bytes want_reply = framed(reply);
  EXPECT_EQ(peer.read(want_reply.size()), want_reply);

  const runtime::ConnectionStats stats = peer.connection->stats();
  EXPECT_EQ(stats.frames_sent, 4);
  EXPECT_EQ(stats.bytes_sent,
            static_cast<std::int64_t>(want_request.size() + want_full.size() +
                                      want_result.size() + want_reply.size()));
}

TEST(FramePath, TcpReceivesSerializedFramesUnchanged) {
  runtime::TcpListener listener;
  RawPeer peer(listener);
  Message result = result_message(3, {0, 2, 0, 5}, random_tensor({2, 2, 5}, 3));
  result.blob = {1, 2, 3};
  peer.write(framed(result));
  const Message got = peer.connection->recv();
  EXPECT_EQ(runtime::serialize(got), runtime::serialize(result));
  EXPECT_EQ(peer.connection->stats().bytes_received,
            runtime::frame_bytes(result));
}

// --- bit-exact round trips ------------------------------------------------

TEST(FramePath, GridSplitRoundTripIsBitExact) {
  TcpPair pair;
  const Tensor source = random_tensor({5, 12, 16}, 4);
  const Region grid{3, 9, 4, 13};  // partial width: one run per row

  pair.coordinator->send_piece(request_header(11, grid), source, grid);
  const Message request = pair.worker->recv();
  EXPECT_EQ(request.task_id, 11);
  EXPECT_EQ(request.in_region, grid);
  EXPECT_TRUE(same_bits(request.tensor, extract(source, grid)));

  const Tensor produced = random_tensor({6, 6, 9}, 5);
  pair.worker->send(result_message(11, grid, produced));
  Tensor map({6, 12, 16}, kSentinel);
  const Message header = pair.coordinator->recv_result(
      slot_for(11, map, 0, 6, grid));
  EXPECT_EQ(header.task_id, 11);
  EXPECT_EQ(header.compute_seconds, 0.125);
  EXPECT_TRUE(header.tensor.empty());
  EXPECT_TRUE(landed_exactly(map, 0, grid, &produced));
}

TEST(FramePath, ChannelOffsetLandsInPlace) {
  // A branch stage's result fills a channel range of the concatenated map.
  for (const bool tcp : {false, true}) {
    std::unique_ptr<Connection> coordinator;
    std::unique_ptr<Connection> worker;
    std::unique_ptr<TcpPair> pair;
    if (tcp) {
      pair = std::make_unique<TcpPair>();
    } else {
      auto [a, b] = runtime::make_inproc_pair();
      coordinator = std::move(a);
      worker = std::move(b);
    }
    Connection& coord = tcp ? *pair->coordinator : *coordinator;
    Connection& work = tcp ? *pair->worker : *worker;
    const Region full = Region::full(6, 9);
    const Tensor produced = random_tensor({3, 6, 9}, 6);
    work.send(result_message(2, full, produced));
    Tensor map({8, 6, 9}, kSentinel);
    coord.recv_result(slot_for(2, map, 4, 3, full));
    EXPECT_TRUE(landed_exactly(map, 4, full, &produced)) << "tcp=" << tcp;
  }
}

TEST(FramePath, OneRowPieceWiderThanIovMaxIsBitExact) {
  // One full-width row of each of IOV_MAX + 9 channels: no two runs are
  // adjacent, so each direction needs more iovecs than one call may carry.
  TcpPair pair;
  const int channels = IOV_MAX + 9;
  const Tensor source = random_tensor({channels, 4, 7}, 7);
  const Region row = Region::rows(2, 3, 7);

  std::thread sender([&] {
    pair.coordinator->send_piece(request_header(1, row), source, row);
  });
  const Message request = pair.worker->recv();
  sender.join();
  EXPECT_TRUE(same_bits(request.tensor, extract(source, row)));

  const Tensor produced = random_tensor({channels, 1, 7}, 8);
  std::thread replier(
      [&] { pair.worker->send(result_message(1, row, produced)); });
  Tensor map({channels, 4, 7}, kSentinel);
  pair.coordinator->recv_result(slot_for(1, map, 0, channels, row));
  replier.join();
  EXPECT_TRUE(landed_exactly(map, 0, row, &produced));
}

TEST(FramePath, InProcPiecesMatchTcpPieces) {
  auto [a, b] = runtime::make_inproc_pair();
  const Tensor source = random_tensor({2, 8, 8}, 9);
  const Region grid{1, 6, 2, 7};
  const Message header = request_header(4, grid);
  a->send_piece(header, source, grid);
  const Message got = b->recv();
  EXPECT_TRUE(same_bits(got.tensor, extract(source, grid)));
  Message whole = header;
  whole.tensor = extract(source, grid);
  EXPECT_EQ(a->stats().bytes_sent, runtime::frame_bytes(whole));
}

// --- the destination is written by its own result only ---------------------

TEST(FramePath, StaleResultNeverTouchesTheDestination) {
  for (const bool tcp : {false, true}) {
    std::unique_ptr<Connection> coordinator;
    std::unique_ptr<Connection> worker;
    std::unique_ptr<TcpPair> pair;
    if (tcp) {
      pair = std::make_unique<TcpPair>();
    } else {
      auto [a, b] = runtime::make_inproc_pair();
      coordinator = std::move(a);
      worker = std::move(b);
    }
    Connection& coord = tcp ? *pair->coordinator : *coordinator;
    Connection& work = tcp ? *pair->worker : *worker;
    const Region region{2, 5, 0, 6};
    // Queued ahead: a stale result of the same geometry and one of another
    // stage whose payload is larger than the whole destination map.
    work.send(result_message(4, region, Tensor({3, 3, 6}, 1.0f)));
    work.send(result_message(3, Region::full(9, 9), Tensor({5, 9, 9}, 2.0f)));
    const Tensor produced = random_tensor({3, 3, 6}, 10);
    work.send(result_message(5, region, produced));

    Tensor map({3, 6, 6}, kSentinel);
    const ResultSlot slot = slot_for(5, map, 0, 3, region);
    EXPECT_EQ(coord.recv_result(slot).task_id, 4);
    EXPECT_TRUE(landed_exactly(map, 0, region, nullptr)) << "tcp=" << tcp;
    EXPECT_EQ(coord.recv_result(slot).task_id, 3);
    EXPECT_TRUE(landed_exactly(map, 0, region, nullptr)) << "tcp=" << tcp;
    EXPECT_EQ(coord.recv_result(slot).task_id, 5);
    EXPECT_TRUE(landed_exactly(map, 0, region, &produced)) << "tcp=" << tcp;
  }
}

TEST(FramePath, TruncatedFrameThrowsAtEveryPrefixLength) {
  const Region region{1, 3, 2, 6};
  const Message result =
      result_message(8, region, random_tensor({2, 2, 4}, 11));
  const Bytes frame = framed(result);
  runtime::TcpListener listener;
  for (std::size_t cut = 0; cut < frame.size(); ++cut) {
    const Bytes prefix(frame.begin(),
                       frame.begin() + static_cast<std::ptrdiff_t>(cut));
    // The stream ends inside the frame...
    {
      RawPeer peer(listener);
      peer.write(prefix);
      peer.close_raw();
      Tensor map({2, 4, 8}, kSentinel);
      EXPECT_THROW(peer.connection->recv_result(slot_for(8, map, 0, 2, region)),
                   Error)
          << "cut at " << cut;
      EXPECT_TRUE(untouched_outside(map, 0, 2, region)) << "cut at " << cut;
    }
    {
      RawPeer peer(listener);
      peer.write(prefix);
      peer.close_raw();
      EXPECT_THROW(peer.connection->recv(), Error) << "cut at " << cut;
    }
    // ...or the length prefix itself announces the truncated frame.
    if (cut < runtime::kLengthPrefixBytes) continue;
    const Bytes short_frame =
        with_length(prefix, cut - runtime::kLengthPrefixBytes);
    {
      RawPeer peer(listener);
      peer.write(short_frame);
      Tensor map({2, 4, 8}, kSentinel);
      EXPECT_THROW(peer.connection->recv_result(slot_for(8, map, 0, 2, region)),
                   Error)
          << "length " << cut;
      EXPECT_TRUE(landed_exactly(map, 0, region, nullptr)) << "length " << cut;
    }
    {
      RawPeer peer(listener);
      peer.write(short_frame);
      EXPECT_THROW(peer.connection->recv(), Error) << "length " << cut;
    }
  }
}

TEST(FramePath, InconsistentFramesThrowWithoutWriting) {
  const Region region{0, 2, 0, 4};
  const Tensor produced = random_tensor({2, 2, 4}, 12);
  const Message good = result_message(6, region, produced);

  std::vector<std::pair<const char*, Bytes>> bad;
  // Shape disagrees with the slot (and is larger than the destination).
  bad.emplace_back("shape", framed(result_message(6, region,
                                                  Tensor({3, 2, 4}, 1.0f))));
  // Region disagrees with the slot.
  bad.emplace_back("region", framed(result_message(6, {1, 3, 0, 4},
                                                   Tensor({2, 2, 4}, 1.0f))));
  // Not a WorkResult.
  Message request = good;
  request.type = MessageType::WorkRequest;
  bad.emplace_back("type", framed(request));
  // Payload longer than elements × 4 (length and bytes agree).
  Bytes longer = framed(good);
  longer.insert(longer.end(), {1, 2, 3, 4});
  bad.emplace_back("long payload",
                   with_length(longer, longer.size() - sizeof(std::uint64_t)));
  // Shape width patched so elements × 4 no longer matches the payload.
  Bytes patched = framed(good);
  const std::int32_t width = 5;
  std::memcpy(patched.data() + runtime::kLengthPrefixBytes +
                  runtime::kFixedHeaderBytes + 8,
              &width, sizeof(width));
  bad.emplace_back("short payload", patched);

  runtime::TcpListener listener;
  for (const auto& [what, frame] : bad) {
    RawPeer peer(listener);
    peer.write(frame);
    peer.write(framed(good));
    Tensor map({2, 2, 8}, kSentinel);
    const ResultSlot slot = slot_for(6, map, 0, 2, region);
    EXPECT_THROW(peer.connection->recv_result(slot), InvariantError) << what;
    EXPECT_TRUE(landed_exactly(map, 0, region, nullptr)) << what;
    // The bad frame was read to its end: the stream is still framed.
    EXPECT_EQ(peer.connection->recv_result(slot).task_id, 6) << what;
    EXPECT_TRUE(landed_exactly(map, 0, region, &produced)) << what;
  }

  // The worker-side recv() rejects a length/shape disagreement too, and
  // stays framed.
  RawPeer peer(listener);
  peer.write(patched);
  peer.write(framed(good));
  EXPECT_THROW(peer.connection->recv(), InvariantError);
  EXPECT_TRUE(same_bits(peer.connection->recv().tensor, produced));

  // In process the same checks hold, before anything is copied.
  auto [a, b] = runtime::make_inproc_pair();
  b->send(result_message(6, region, Tensor({3, 2, 4}, 1.0f)));
  b->send(request);
  Tensor map({2, 2, 8}, kSentinel);
  EXPECT_THROW(a->recv_result(slot_for(6, map, 0, 2, region)), InvariantError);
  EXPECT_THROW(a->recv_result(slot_for(6, map, 0, 2, region)), InvariantError);
  EXPECT_TRUE(landed_exactly(map, 0, region, nullptr));
}

TEST(FramePath, SlotOutsideItsMapIsRejectedBeforeReading) {
  auto [a, b] = runtime::make_inproc_pair();
  Tensor map({2, 4, 4}, kSentinel);
  ResultSlot slot = slot_for(1, map, 0, 2, {2, 5, 0, 4});  // past the bottom
  EXPECT_THROW(a->recv_result(slot), InvariantError);
  slot = slot_for(1, map, 1, 2, {0, 2, 0, 4});  // channels past the end
  EXPECT_THROW(a->recv_result(slot), InvariantError);
  EXPECT_TRUE(landed_exactly(map, 0, {}, nullptr));
}

}  // namespace
}  // namespace pico
