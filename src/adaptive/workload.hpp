// Workload estimation (Eq. 15): exponentially weighted moving average of
// the measured arrival rate.  β is the weight of the newest observation.
#pragma once

#include <cmath>

#include "common/error.hpp"
#include "common/types.hpp"

namespace pico::adaptive {

class EwmaEstimator {
 public:
  explicit EwmaEstimator(double beta, double initial = 0.0)
      : beta_(beta), rate_(initial) {
    PICO_CHECK(beta > 0.0 && beta <= 1.0);
  }

  /// Fold in the rate measured over the last window:
  /// λ_t = β·λ̂ + (1 − β)·λ_{t−1}.
  void observe(double measured_rate) {
    PICO_CHECK(measured_rate >= 0.0);
    rate_ = beta_ * measured_rate + (1.0 - beta_) * rate_;
  }

  /// Fold in `windows` consecutive windows that all measured the same rate:
  /// the closed form of calling observe(measured_rate) `windows` times.
  void observe(double measured_rate, double windows) {
    PICO_CHECK(measured_rate >= 0.0 && windows >= 1.0);
    rate_ = measured_rate +
            std::pow(1.0 - beta_, windows) * (rate_ - measured_rate);
  }

  double rate() const { return rate_; }
  double beta() const { return beta_; }

 private:
  double beta_;
  double rate_;
};

}  // namespace pico::adaptive
