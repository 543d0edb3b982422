// APICO — PICO plus adaptive parallel-scheme switching (§IV-C).
//
// Holds the candidate plans (by default: the OFL one-stage plan, which uses
// the whole cluster per inference and wins under light load, and the PICO
// pipeline, which wins under heavy load), an EWMA workload estimator, and a
// controller that re-selects the scheme each window.  The controller plugs
// directly into ClusterSimulator (simulation) and is equally usable by the
// real runtime's driver.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "adaptive/selector.hpp"
#include "adaptive/workload.hpp"
#include "sim/pipeline_sim.hpp"

namespace pico::adaptive {

struct ApicoOptions {
  double beta = 0.3;          ///< Eq. 15 EWMA weight
  Seconds window = 30.0;      ///< re-evaluation interval (seconds)
  double initial_rate = 0.0;  ///< λ_0
};

class ApicoController {
 public:
  /// `candidates` must be non-empty; index 0 is the initial scheme.
  ApicoController(std::vector<Candidate> candidates, ApicoOptions options);

  /// Build the default OFL-vs-PICO candidate pair for this model/cluster.
  static ApicoController make_default(const nn::Graph& graph,
                                      const Cluster& cluster,
                                      const NetworkModel& network,
                                      ApicoOptions options = {});

  /// Install on a simulator: sets the initial plan and the window
  /// controller.
  void attach(sim::ClusterSimulator& simulator);

  /// Re-estimate λ from one window's arrival count and return the chosen
  /// candidate (also usable outside the simulator).
  const Candidate& decide(int window_arrivals);

  /// Same, but from an already-computed arrival rate (tasks/second) — used
  /// when the measurement interval differs from the configured window.
  const Candidate& decide_rate(double measured_rate);

  double estimated_rate() const { return estimator_.rate(); }
  const std::vector<Candidate>& candidates() const { return candidates_; }
  /// (time, scheme) of every controller decision during simulation.
  const std::vector<std::pair<Seconds, std::string>>& decisions() const {
    return decisions_;
  }

 private:
  std::vector<Candidate> candidates_;
  ApicoOptions options_;
  EwmaEstimator estimator_;
  std::size_t current_ = 0;
  std::vector<std::pair<Seconds, std::string>> decisions_;
};

}  // namespace pico::adaptive
