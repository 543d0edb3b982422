#include "tensor/tensor.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>

#include "common/error.hpp"

namespace pico {

std::ostream& operator<<(std::ostream& os, const Shape& s) {
  return os << s.channels << "x" << s.height << "x" << s.width;
}

Tensor::Tensor(Shape shape, float fill)
    : shape_(shape),
      data_(static_cast<std::size_t>(shape.elements()), fill) {
  PICO_CHECK_MSG(shape.channels >= 0 && shape.height >= 0 && shape.width >= 0,
                 "negative tensor dimension " << shape);
}

Tensor::Tensor(const Tensor& other) : shape_(other.shape_) {
  data_.resize(other.data_.size());
  std::copy(other.data_.begin(), other.data_.end(), data_.begin());
}

Tensor& Tensor::operator=(const Tensor& other) {
  if (this != &other) *this = Tensor(other);
  return *this;
}

Tensor Tensor::uninitialized(Shape shape) {
  PICO_CHECK_MSG(shape.channels >= 0 && shape.height >= 0 && shape.width >= 0,
                 "negative tensor dimension " << shape);
  Tensor t;
  t.shape_ = shape;
  t.data_.resize(static_cast<std::size_t>(shape.elements()));
  return t;
}

void Tensor::fill(float value) {
  std::fill(data_.begin(), data_.end(), value);
}

void Tensor::randomize(Rng& rng, float lo, float hi) {
  for (auto& v : data_) v = static_cast<float>(rng.uniform(lo, hi));
}

float Tensor::max_abs_diff(const Tensor& a, const Tensor& b) {
  PICO_CHECK_MSG(a.shape() == b.shape(), "shape mismatch " << a.shape()
                                                           << " vs "
                                                           << b.shape());
  float worst = 0.0f;
  for (long long i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::fabs(a.data()[i] - b.data()[i]));
  }
  return worst;
}

}  // namespace pico
