#include "runtime/message.hpp"

#include <cctype>
#include <cstdio>
#include <cstring>
#include <string>

#include "common/error.hpp"

namespace pico::runtime {

namespace {

constexpr std::uint32_t kMagic = 0x50494334;  // "PIC4"

/// Render a magic word the way it appears as ASCII on the wire
/// (little-endian byte order), falling back to hex for unprintable bytes.
std::string magic_name(std::uint32_t magic) {
  // Most-significant byte first: 0x50494334 reads back as "PIC4".
  char chars[5] = {};
  for (int i = 0; i < 4; ++i) {
    chars[i] = static_cast<char>((magic >> (8 * (3 - i))) & 0xff);
  }
  bool printable = true;
  for (int i = 0; i < 4; ++i) {
    printable &= std::isprint(static_cast<unsigned char>(chars[i])) != 0;
  }
  if (printable) return std::string(chars, 4);
  char hex[16];
  std::snprintf(hex, sizeof(hex), "0x%08x", magic);
  return hex;
}

template <typename T>
void put(std::vector<std::uint8_t>& out, T value) {
  const auto offset = out.size();
  out.resize(offset + sizeof(T));
  std::memcpy(out.data() + offset, &value, sizeof(T));
}

template <typename T>
T get(const std::uint8_t*& cursor, const std::uint8_t* end) {
  PICO_CHECK_MSG(cursor + sizeof(T) <= end, "message truncated");
  T value;
  std::memcpy(&value, cursor, sizeof(T));
  cursor += sizeof(T);
  return value;
}

void put_region(std::vector<std::uint8_t>& out, const Region& r) {
  put<std::int32_t>(out, r.row_begin);
  put<std::int32_t>(out, r.row_end);
  put<std::int32_t>(out, r.col_begin);
  put<std::int32_t>(out, r.col_end);
}

Region get_region(const std::uint8_t*& cursor, const std::uint8_t* end) {
  Region r;
  r.row_begin = get<std::int32_t>(cursor, end);
  r.row_end = get<std::int32_t>(cursor, end);
  r.col_begin = get<std::int32_t>(cursor, end);
  r.col_end = get<std::int32_t>(cursor, end);
  return r;
}

}  // namespace

std::int64_t frame_bytes(const Message& header, const Shape& shape) {
  return static_cast<std::int64_t>(
      kLengthPrefixBytes + kFixedHeaderBytes + header.blob.size() +
      kShapeBytes + static_cast<std::size_t>(shape.elements()) * 4);
}

std::int64_t frame_bytes(const Message& message) {
  return frame_bytes(message, message.tensor.shape());
}

void encode_header(const Message& header, const Shape& shape,
                   std::vector<std::uint8_t>& out) {
  put<std::uint32_t>(out, kMagic);
  put<std::uint32_t>(out, static_cast<std::uint32_t>(header.type));
  put<std::int64_t>(out, header.task_id);
  put<std::int32_t>(out, header.stage_index);
  put<std::int32_t>(out, header.first_node);
  put<std::int32_t>(out, header.last_node);
  put<double>(out, header.compute_seconds);
  put<std::uint64_t>(out, header.trace_id);
  put<std::uint64_t>(out, header.parent_span);
  put<std::int64_t>(out, header.t_origin_ns);
  put<std::int64_t>(out, header.t_recv_ns);
  put<std::int64_t>(out, header.t_send_ns);
  put<std::int64_t>(out, header.t_compute_start_ns);
  put<std::int64_t>(out, header.t_compute_end_ns);
  put<std::uint64_t>(out, header.span_cursor);
  put<std::uint64_t>(out, header.span_cursor_base);
  put_region(out, header.in_region);
  put_region(out, header.out_region);
  put<std::uint64_t>(out, header.blob.size());
  out.insert(out.end(), header.blob.begin(), header.blob.end());
  put<std::int32_t>(out, shape.channels);
  put<std::int32_t>(out, shape.height);
  put<std::int32_t>(out, shape.width);
}

std::uint64_t decode_header(const std::uint8_t* data, std::size_t size,
                            Message& out) {
  const std::uint8_t* cursor = data;
  const std::uint8_t* end = data + size;
  const auto magic = get<std::uint32_t>(cursor, end);
  if (magic != kMagic) {
    // Version skew (a build speaking another version on the other end) is a
    // transport condition the serve loop handles gracefully, not a fatal
    // invariant.
    throw TransportError("unsupported message version \"" +
                         magic_name(magic) + "\"; this build speaks \"" +
                         magic_name(kMagic) + "\"");
  }
  out.type = static_cast<MessageType>(get<std::uint32_t>(cursor, end));
  out.task_id = get<std::int64_t>(cursor, end);
  out.stage_index = get<std::int32_t>(cursor, end);
  out.first_node = get<std::int32_t>(cursor, end);
  out.last_node = get<std::int32_t>(cursor, end);
  out.compute_seconds = get<double>(cursor, end);
  out.trace_id = get<std::uint64_t>(cursor, end);
  out.parent_span = get<std::uint64_t>(cursor, end);
  out.t_origin_ns = get<std::int64_t>(cursor, end);
  out.t_recv_ns = get<std::int64_t>(cursor, end);
  out.t_send_ns = get<std::int64_t>(cursor, end);
  out.t_compute_start_ns = get<std::int64_t>(cursor, end);
  out.t_compute_end_ns = get<std::int64_t>(cursor, end);
  // The cursors are wire-controlled but used only for comparison and
  // clamped pruning (SpanBuffer::ack bounds the erase by the buffer size),
  // never as an allocation size or subscript.
  out.span_cursor = get<std::uint64_t>(cursor, end);
  out.span_cursor_base = get<std::uint64_t>(cursor, end);
  out.in_region = get_region(cursor, end);
  out.out_region = get_region(cursor, end);
  return get<std::uint64_t>(cursor, end);
}

Shape decode_shape(const std::uint8_t* data, std::uint64_t payload_bytes) {
  const std::uint8_t* cursor = data;
  const std::uint8_t* end = data + kShapeBytes;
  Shape shape;
  shape.channels = get<std::int32_t>(cursor, end);
  shape.height = get<std::int32_t>(cursor, end);
  shape.width = get<std::int32_t>(cursor, end);
  // The shape is wire-controlled: reject negative extents and prove the
  // payload carries exactly elements()*4 bytes BEFORE anything is allocated
  // from it, so a corrupt or malicious frame cannot drive a bogus extent
  // into Tensor() (elements() itself can overflow 64 bits for adversarial
  // extents, so the size identity is checked with division, which cannot
  // wrap).
  PICO_CHECK_MSG(shape.channels >= 0 && shape.height >= 0 && shape.width >= 0,
                 "message tensor shape negative");
  const auto plane = static_cast<std::uint64_t>(shape.channels) *
                     static_cast<std::uint64_t>(shape.height);
  const auto width = static_cast<std::uint64_t>(shape.width);
  const bool size_ok =
      payload_bytes % 4 == 0 &&
      (width == 0 ? payload_bytes == 0
                  : plane == payload_bytes / 4 / width &&
                        (payload_bytes / 4) % width == 0);
  PICO_CHECK_MSG(size_ok, "message payload size mismatch");
  return shape;
}

std::vector<std::uint8_t> serialize(const Message& message) {
  std::vector<std::uint8_t> out;
  const Shape shape = message.tensor.shape();
  out.reserve(static_cast<std::size_t>(frame_bytes(message)) -
              kLengthPrefixBytes);
  encode_header(message, shape, out);
  const auto offset = out.size();
  const std::size_t bytes = static_cast<std::size_t>(shape.elements()) * 4;
  out.resize(offset + bytes);
  if (bytes > 0) {
    std::memcpy(out.data() + offset, message.tensor.data().data(), bytes);
  }
  return out;
}

Message deserialize(const std::uint8_t* data, std::size_t size) {
  Message message;
  const std::uint64_t blob_size = decode_header(data, size, message);
  const std::uint8_t* cursor = data + kFixedHeaderBytes;
  const std::uint8_t* end = data + size;
  PICO_CHECK_MSG(blob_size <= static_cast<std::uint64_t>(end - cursor),
                 "message blob truncated");
  message.blob.assign(cursor, cursor + blob_size);
  cursor += blob_size;
  PICO_CHECK_MSG(static_cast<std::size_t>(end - cursor) >= kShapeBytes,
                 "message truncated");
  const auto payload = static_cast<std::size_t>(end - cursor) - kShapeBytes;
  const Shape shape = decode_shape(cursor, payload);
  cursor += kShapeBytes;
  // decode_shape proved the identity; restated here as this function's own
  // bound on the allocation below.
  PICO_CHECK(static_cast<std::uint64_t>(shape.elements()) * 4 == payload);
  message.tensor = Tensor::uninitialized(shape);
  if (payload > 0) {
    std::memcpy(message.tensor.data().data(), cursor, payload);
  }
  return message;
}

}  // namespace pico::runtime
