// Quickstart: plan a pipelined cooperative inference for a small CNN on the
// paper's heterogeneous 8-Raspberry-Pi cluster, inspect the plan and its
// predicted period/latency, then actually run it on the threaded runtime
// and check the distributed result against single-device inference.
//
//   ./examples/quickstart
#include <cstdio>

#include "common/log.hpp"
#include "common/rng.hpp"
#include "core/planner.hpp"
#include "cost/flops.hpp"
#include "models/zoo.hpp"
#include "nn/executor.hpp"
#include "runtime/pipeline.hpp"

int main() {
  using namespace pico;
  log::set_level(log::Level::Info);

  // 1. A model and a cluster.  The toy model is the paper's §V-C network
  //    (8 conv + 2 pool on 64x64 input); the cluster is Table I's:
  //    2x1.2GHz + 2x800MHz + 4x600MHz Pi-4B-class cores behind 50Mbps WiFi.
  nn::Graph model = models::toy_mnist();
  Rng rng(2024);
  model.randomize_weights(rng);
  const Cluster cluster = Cluster::paper_heterogeneous();
  NetworkModel network;  // 50 Mbps default

  std::printf("model: %d nodes, %.2f MFLOPs per frame\n", model.size() - 1,
              cost::model_flops(model) / 1e6);
  std::printf("cluster: %d devices, %.2f GMAC/s total\n\n", cluster.size(),
              cluster.total_capacity() / 1e9);

  // 2. Plan with PICO and compare against the one-stage baselines.
  for (const Scheme scheme : {Scheme::LayerWise, Scheme::EarlyFused,
                              Scheme::OptimalFused, Scheme::Pico}) {
    const auto p = plan(model, cluster, network, scheme);
    const auto cost = evaluate(model, cluster, network, p);
    std::printf("%-5s  stages=%d  period=%.3fs  latency=%.3fs\n",
                scheme_name(scheme), p.stage_count(), cost.period,
                cost.latency);
  }

  const auto pico_plan = plan(model, cluster, network, Scheme::Pico);
  std::printf("\n%s\n", partition::describe_plan(model, pico_plan).c_str());

  // 3. Execute for real: one worker thread per device, scatter/compute/
  //    gather per stage, with genuine tensor math.
  Tensor frame(model.input_shape());
  frame.randomize(rng);
  runtime::PipelineRuntime runtime(model, pico_plan,
                                   runtime::RuntimeOptions::from_env({}));
  const Tensor distributed = runtime.infer(frame);
  const Tensor local = nn::execute(model, frame);
  std::printf("distributed vs single-device max|diff| = %g  (%s)\n",
              Tensor::max_abs_diff(distributed, local),
              Tensor::max_abs_diff(distributed, local) == 0.0f
                  ? "exact match"
                  : "MISMATCH");
  return 0;
}
