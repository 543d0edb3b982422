// Distributed inference over real TCP sockets — the paper's §IV-D
// implementation exercised end to end on one machine: each simulated edge
// device is a worker thread behind a loopback TCP connection with
// length-prefixed frames, the stage coordinators split feature maps with
// halos, scatter, gather and stitch, and a stream of frames flows through
// the pipeline concurrently.
//
//   ./examples/distributed_tcp [frames]
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "common/rng.hpp"
#include "core/planner.hpp"
#include "models/zoo.hpp"
#include "nn/executor.hpp"
#include "runtime/pipeline.hpp"

int main(int argc, char** argv) {
  using namespace pico;
  const int frames = argc > 1 ? std::atoi(argv[1]) : 4;

  // VGG16 body at a reduced input size so single-machine compute stays
  // snappy; the distributed glue (sockets, framing, halos) is identical to
  // the full-size case.
  nn::Graph model = models::vgg16({.input_size = 64});
  Rng rng(99);
  model.randomize_weights(rng);
  const Cluster cluster = Cluster::paper_heterogeneous();
  NetworkModel network;

  const auto p = plan(model, cluster, network, Scheme::Pico);
  std::printf("%s\n", partition::describe_plan(model, p).c_str());

  runtime::PipelineRuntime rt(
      model, p,
      runtime::RuntimeOptions::from_env(
          {.transport = runtime::TransportKind::Tcp}));

  std::vector<Tensor> inputs;
  std::vector<std::future<Tensor>> futures;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < frames; ++i) {
    Tensor frame(model.input_shape());
    frame.randomize(rng);
    inputs.push_back(frame);
    futures.push_back(rt.submit(std::move(frame)));
  }
  int exact = 0;
  for (int i = 0; i < frames; ++i) {
    const Tensor got = futures[static_cast<std::size_t>(i)].get();
    const Tensor expected =
        nn::execute(model, inputs[static_cast<std::size_t>(i)]);
    exact += Tensor::max_abs_diff(got, expected) == 0.0f;
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  std::printf("pushed %d frames through %d pipelined stages over TCP\n",
              frames, p.stage_count());
  std::printf("wall time %.2fs (%.2f frames/s on this machine)\n", wall,
              frames / wall);
  std::printf("%d/%d frames bit-identical to single-device inference\n",
              exact, frames);
  return exact == frames ? 0 : 1;
}
