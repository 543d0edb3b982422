// Intra-device kernel scaling: wall time of a VGG-scale conv layer versus
// the ExecOptions thread count, against the single-threaded baseline.
//
// The paper's capacity term ϑ(d_k) (Eq. 5) describes a quad-core device
// running all cores; this bench records the speedup the thread-pooled
// kernels actually deliver, plus a bit-identity check that parallelism
// never changes arithmetic.  CI gates on speedup_t4 >= 2 in
// BENCH_kernels.json.
//
// A second table times the conv shapes the served models actually run
// (YOLOv2@64's 2x2 and 16x16 layers, MobileNetV1@160's depthwise and
// pointwise layers at 80x80) through nn::compute_node at 1 and 4 threads:
// median GFLOP/s of kShapeRepeats runs after a warm-up, and a
// bit_identical_<row> flag (4-thread output equal to the 1-thread output
// byte for byte) that CI also checks.
//
// The conv_isa param names the conv tiles that ran: "avx2" (8-pixel tiles
// on 32-byte vectors where a block has 8 pixels or more) or "baseline"
// (4-pixel tiles only).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "cost/flops.hpp"
#include "nn/executor.hpp"
#include "nn/kernels.hpp"
#include "nn/kernels_detail.hpp"

namespace {

using namespace pico;

double time_execute(const nn::Graph& graph, const Tensor& input,
                    const nn::ExecOptions& options) {
  const auto start = std::chrono::steady_clock::now();
  const Tensor out = nn::execute(graph, input, options);
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  return out.size() > 0 ? elapsed : -1.0;
}

struct ServedShape {
  const char* row;
  Shape input;
  int out_channels, kernel, stride, padding, groups;
};

/// The served shapes' table; see the header comment.
void served_shapes(bench::BenchJson& json) {
  constexpr int kShapeRepeats = 9;
  const ServedShape shapes[] = {
      {"yolov2_conv3x3_1024to1024_2", {1024, 2, 2}, 1024, 3, 1, 1, 1},
      {"yolov2_conv1x1_1024to1024_2", {1024, 2, 2}, 1024, 1, 1, 0, 1},
      {"yolov2_conv3x3_64to128_16", {64, 16, 16}, 128, 3, 1, 1, 1},
      {"mobilenet_dwconv3x3_32_80", {32, 80, 80}, 32, 3, 1, 1, 32},
      {"mobilenet_conv1x1_32to64_80", {32, 80, 80}, 64, 1, 1, 0, 1},
  };
  bench::print_header("Served conv shapes (median of " +
                      std::to_string(kShapeRepeats) + " runs)");
  bench::print_row({"row", "GFLOP/s t1", "GFLOP/s t4", "bit_identical"}, 30);
  for (const ServedShape& shape : shapes) {
    nn::Graph graph;
    const int in = graph.add_input(shape.input);
    graph.add_conv_grouped(in, shape.out_channels, shape.kernel, shape.stride,
                           shape.padding, shape.groups);
    graph.finalize();
    Rng rng(11);
    graph.randomize_weights(rng);
    Tensor input(graph.input_shape());
    input.randomize(rng);
    const double gflop = cost::model_flops(graph) / 1e9;

    const nn::Node& node = graph.node(1);
    const Placed piece{Region::full(shape.input.height, shape.input.width),
                       input};
    const Region out_region =
        Region::full(node.out_shape.height, node.out_shape.width);

    std::vector<std::string> cells{shape.row};
    Tensor outputs[2];
    for (const int threads : {1, 4}) {
      const nn::ExecOptions options{.threads = threads};
      Tensor& out = outputs[threads == 1 ? 0 : 1];
      std::vector<double> times;
      for (int repeat = 0; repeat <= kShapeRepeats; ++repeat) {
        const auto start = std::chrono::steady_clock::now();
        out = nn::compute_node(node, std::span<const Placed>(&piece, 1),
                               out_region, options);
        const double elapsed = std::chrono::duration<double>(
                                   std::chrono::steady_clock::now() - start)
                                   .count();
        if (repeat > 0) times.push_back(elapsed);  // repeat 0 warms up
      }
      std::nth_element(times.begin(), times.begin() + kShapeRepeats / 2,
                       times.end());
      const double rate = gflop / times[kShapeRepeats / 2];
      json.sample("gflops_t" + std::to_string(threads) + "_" + shape.row,
                  rate);
      cells.push_back(bench::fmt(rate, 2));
    }
    const bool same =
        outputs[0].shape() == outputs[1].shape() &&
        std::memcmp(outputs[0].data().data(), outputs[1].data().data(),
                    static_cast<std::size_t>(outputs[0].size()) *
                        sizeof(float)) == 0;
    json.sample(std::string("bit_identical_") + shape.row, same ? 1.0 : 0.0);
    cells.push_back(same ? "1" : "0");
    bench::print_row(cells, 30);
  }
}

}  // namespace

int main() {
  using namespace pico;
  bench::BenchJson json("kernels");

  // VGG-16's conv2-block shape: 64 -> 64 channels, 3x3, on a 112x112 map.
  nn::Graph graph;
  const int in = graph.add_input({64, 112, 112});
  graph.add_conv(in, 64, 3, 1, 1);
  graph.finalize();
  Rng rng(7);
  graph.randomize_weights(rng);
  Tensor input(graph.input_shape());
  input.randomize(rng);

  const double gflop = cost::model_flops(graph) / 1e9;
  json.param("layer", "conv3x3_64to64_112");
  json.param("gflop", gflop);
  json.param("hardware_parallelism",
             static_cast<double>(ThreadPool::default_parallelism()));
  json.param("conv_isa", nn::detail::conv_isa());

  constexpr int kRepeats = 5;
  const std::vector<int> thread_counts{1, 2, 4};
  const Tensor reference = nn::execute(graph, input, {.threads = 1});

  bench::print_header("Kernel scaling — conv 64->64 3x3 @ 112x112 (" +
                      bench::fmt(gflop, 2) + " GFLOP)");
  bench::print_row({"threads", "best_s", "GFLOP/s", "speedup", "max|diff|"});

  std::vector<double> best(thread_counts.size(),
                           std::numeric_limits<double>::infinity());
  for (std::size_t t = 0; t < thread_counts.size(); ++t) {
    const nn::ExecOptions options{.threads = thread_counts[t]};
    const Tensor out = nn::execute(graph, input, options);  // warm-up
    const float diff = Tensor::max_abs_diff(out, reference);
    for (int repeat = 0; repeat < kRepeats; ++repeat) {
      const double elapsed = time_execute(graph, input, options);
      json.sample("conv_seconds_t" + std::to_string(thread_counts[t]),
                  elapsed);
      best[t] = std::min(best[t], elapsed);
    }
    const double speedup = best[0] / best[t];
    if (thread_counts[t] > 1) {
      json.sample("speedup_t" + std::to_string(thread_counts[t]), speedup);
    }
    json.sample("bit_identical", diff == 0.0f ? 1.0 : 0.0);
    bench::print_row({std::to_string(thread_counts[t]),
                      bench::fmt(best[t], 4), bench::fmt(gflop / best[t], 2),
                      bench::fmt(speedup, 2), bench::fmt(diff, 1)});
  }
  served_shapes(json);
  return 0;
}
