// Fixture: wire-taint MUST fire.  Lint-only — never compiled.
#include <cstdint>
#include <cstring>
#include <vector>

namespace fixture {

template <typename T>
T get(const std::uint8_t*& cursor, const std::uint8_t* end);
template <typename T>
T take(const std::uint8_t*& cursor, const std::uint8_t* end);

std::vector<float> decode_frame(const std::uint8_t* data, std::size_t size) {
  const std::uint8_t* cursor = data;
  const std::uint8_t* end = data + size;
  const auto count = take<std::uint32_t>(cursor, end);
  std::vector<float> values;
  // VIOLATION: decoded count drives the allocation with no bounds check —
  // a corrupt frame allocates gigabytes.
  values.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    values.push_back(get<float>(cursor, end));
  }
  return values;
}

void copy_payload(float* dst, const std::uint8_t*& cursor,
                  const std::uint8_t* end) {
  const auto bytes = get<std::uint64_t>(cursor, end);
  // VIOLATION: decoded length reaches memcpy unchecked.
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

Tensor receive_payload(const std::uint8_t* data) {
  const Shape shape = decode_shape(data);
  // VIOLATION: a decoded shape sizes an uninitialised tensor unchecked.
  return Tensor::uninitialized(shape);
}

}  // namespace fixture
