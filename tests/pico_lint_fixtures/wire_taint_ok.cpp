// Fixture: compliant twin of wire_taint_bad.cpp — MUST stay quiet.
#include <cstdint>
#include <cstring>
#include <vector>

#define PICO_CHECK_MSG(cond, msg)

namespace fixture {

template <typename T>
T get(const std::uint8_t*& cursor, const std::uint8_t* end);
template <typename T>
T take(const std::uint8_t*& cursor, const std::uint8_t* end);

std::vector<float> decode_frame(const std::uint8_t* data, std::size_t size) {
  const std::uint8_t* cursor = data;
  const std::uint8_t* end = data + size;
  const auto count = take<std::uint32_t>(cursor, end);
  // Bounds check before the allocation: each value costs 4 bytes.
  PICO_CHECK_MSG(count <= (end - cursor) / 4, "frame count implausible");
  std::vector<float> values;
  values.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    values.push_back(get<float>(cursor, end));
  }
  return values;
}

void copy_payload(float* dst, const std::uint8_t*& cursor,
                  const std::uint8_t* end) {
  const auto bytes = get<std::uint64_t>(cursor, end);
  if (bytes > static_cast<std::uint64_t>(end - cursor)) {
    return;
  }
  std::memcpy(dst, cursor, bytes);
}

struct Shape {
  int channels;
  int height;
  int width;
};
struct Tensor {
  static Tensor uninitialized(Shape shape);
};
Shape decode_shape(const std::uint8_t* data);

Tensor receive_payload(const std::uint8_t* data, std::uint64_t payload) {
  const Shape shape = decode_shape(data);
  // The payload that follows must hold exactly the shape's elements.
  PICO_CHECK_MSG(static_cast<std::uint64_t>(shape.channels) * shape.height *
                         shape.width * 4 ==
                     payload,
                 "payload size mismatch");
  return Tensor::uninitialized(shape);
}

}  // namespace fixture
