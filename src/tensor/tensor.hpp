// Dense CHW float32 tensor — the feature-map representation used by the
// inference engine and the runtime.  Inference is batch-1 throughout (the
// paper streams single frames through the pipeline), so no batch dimension.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <memory>
#include <new>
#include <span>
#include <utility>
#include <vector>

#include "common/rng.hpp"

namespace pico {

struct Shape {
  int channels = 0;
  int height = 0;
  int width = 0;

  long long elements() const {
    return static_cast<long long>(channels) * height * width;
  }
  friend bool operator==(const Shape&, const Shape&) = default;
};

std::ostream& operator<<(std::ostream& os, const Shape& s);

/// std::allocator whose value-less construct() default-initialises, so a
/// vector sized without a fill value leaves its floats unwritten instead of
/// zeroing them.  Construction with a value still copies that value.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };
  DefaultInitAllocator() noexcept = default;
  template <typename U>
  DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}

  template <typename U>
  void construct(U* p) noexcept {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(Shape shape, float fill = 0.0f);
  // The allocator's element-by-element copy does not compile to a block
  // copy, so copies are spelled out; moves stay defaulted.
  Tensor(const Tensor& other);
  Tensor& operator=(const Tensor& other);
  Tensor(Tensor&&) noexcept = default;
  Tensor& operator=(Tensor&&) noexcept = default;

  /// A tensor whose elements are left unwritten, for a caller that
  /// overwrites every one of them before any is read (a received payload,
  /// a gather whose pieces tile the map).
  static Tensor uninitialized(Shape shape);

  const Shape& shape() const { return shape_; }
  long long size() const { return static_cast<long long>(data_.size()); }
  bool empty() const { return data_.empty(); }

  float& at(int c, int y, int x) { return data_[index(c, y, x)]; }
  const float& at(int c, int y, int x) const { return data_[index(c, y, x)]; }

  std::span<float> data() { return data_; }
  std::span<const float> data() const { return data_; }
  /// Pointer to the start of channel c's H×W plane.
  float* channel(int c) { return data_.data() + plane_size() * c; }
  const float* channel(int c) const { return data_.data() + plane_size() * c; }

  void fill(float value);
  /// Fill with deterministic uniform values in [lo, hi).
  void randomize(Rng& rng, float lo = -1.0f, float hi = 1.0f);

  /// Max |a - b| over all elements; shapes must match.
  static float max_abs_diff(const Tensor& a, const Tensor& b);

 private:
  long long plane_size() const {
    return static_cast<long long>(shape_.height) * shape_.width;
  }
  long long index(int c, int y, int x) const {
    return (static_cast<long long>(c) * shape_.height + y) * shape_.width + x;
  }

  Shape shape_;
  std::vector<float, DefaultInitAllocator<float>> data_;
};

}  // namespace pico
