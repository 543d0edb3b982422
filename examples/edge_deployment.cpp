// Edge deployment walkthrough — the full lifecycle a user of this library
// goes through:
//
//   1. load a network from a Darknet-style .cfg file,
//   2. load (here: generate + save + reload) its weights from a binary blob,
//   3. plan both a one-stage and a pipelined partition for the cluster,
//   4. serve frames through an EpochRuntime over those two candidates: it
//      counts arrivals per wall-clock window, estimates the rate (Eq. 15)
//      and switches between the schemes with drain-then-swap (the same
//      rebuild path that replans over the survivors if a device dies),
//   5. verify every produced result against single-device inference.
//
//   ./examples/edge_deployment [path/to/model.cfg]
#include <chrono>
#include <cstdio>
#include <thread>

#include "common/log.hpp"
#include "common/rng.hpp"
#include "core/planner.hpp"
#include "models/cfg.hpp"
#include "nn/executor.hpp"
#include "nn/weights_io.hpp"
#include "obs/metrics.hpp"
#include "runtime/epoch_runtime.hpp"

int main(int argc, char** argv) {
  using namespace pico;
  log::set_level(log::Level::Info);

  // 1. Model from config.
  const std::string cfg_path =
      argc > 1 ? argv[1] : std::string(PICO_CONFIG_DIR) + "/toy.cfg";
  nn::Graph model = models::load_cfg(cfg_path);
  std::printf("loaded %s: %d nodes, input %dx%dx%d\n", cfg_path.c_str(),
              model.size() - 1, model.input_shape().channels,
              model.input_shape().height, model.input_shape().width);

  // 2. Weights: in a real deployment these come from training; here we
  //    generate them, write the deployment blob, and load it back the way a
  //    device would at startup.
  {
    Rng rng(2026);
    model.randomize_weights(rng);
    nn::save_weights(model, "/tmp/pico_deploy_weights.bin");
  }
  nn::Graph deployed = models::load_cfg(cfg_path);
  nn::load_weights(deployed, "/tmp/pico_deploy_weights.bin");
  std::printf("weights blob: %lld parameters round-tripped\n",
              deployed.parameter_count());

  // 3. Candidate plans for the paper's heterogeneous cluster: the runtime
  //    asks for them again over the survivors if a device dies.
  const Cluster cluster = Cluster::paper_heterogeneous();
  NetworkModel network;  // 50 Mbps WiFi
  runtime::EpochOptions options;
  options.runtime = runtime::RuntimeOptions::from_env({});
  options.network = network;
  options.replan = [&network](const nn::Graph& graph, const Cluster& members) {
    return std::vector<partition::Plan>{
        plan(graph, members, network, Scheme::OptimalFused),
        plan(graph, members, network, Scheme::Pico)};
  };
  options.beta = 0.8;
  options.window = 0.1;
  runtime::EpochRuntime rt(deployed, cluster, options);
  const std::vector<adaptive::Candidate> candidates = rt.candidates();
  std::printf("OFL: period %.3fs | PICO: period %.3fs over %d stages\n",
              candidates[0].period, candidates[1].period,
              candidates[1].plan.stage_count());

  // 4. Serve a quiet phase then a burst.
  Rng rng(7);
  Tensor frame(deployed.input_shape());
  frame.randomize(rng);
  const Tensor reference = nn::execute(deployed, frame);

  int exact = 0, total = 0;
  // Quiet: a frame every ~150 ms.
  for (int i = 0; i < 4; ++i) {
    exact += Tensor::max_abs_diff(rt.infer(frame), reference) == 0.0f;
    ++total;
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
  }
  // Burst: everything at once.
  std::vector<std::future<Tensor>> futures;
  for (int i = 0; i < 32; ++i) futures.push_back(rt.submit(frame));
  for (auto& f : futures) {
    exact += Tensor::max_abs_diff(f.get(), reference) == 0.0f;
    ++total;
  }

  // 5. Report.
  std::printf("\n%d/%d frames bit-identical to single-device inference\n",
              exact, total);
  std::printf("scheme history:");
  for (const std::string& scheme : rt.scheme_history()) {
    std::printf(" %s", scheme.c_str());
  }
  std::printf("  (%d switches, final rate estimate %.1f frames/s)\n",
              rt.switches(), rt.estimated_rate());

  // The runtime kept metrics the whole time (always-on; see src/obs/).
  obs::Registry& metrics = obs::Registry::global();
  const obs::Histogram& latency =
      metrics.histogram("pico_task_latency_seconds");
  std::printf("task latency p50 %.0f ms, p99 %.0f ms; drain on switch %.0f ms\n",
              latency.percentile(0.5) * 1e3, latency.percentile(0.99) * 1e3,
              metrics.histogram("pico_adaptive_drain_seconds").mean() * 1e3);
  return exact == total ? 0 : 1;
}
