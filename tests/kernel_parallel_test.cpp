// Parallel-kernel parity suite: every kernel must produce bit-identical
// outputs for every ExecOptions thread count (1-5), and convs must match
// the direct-loop oracle, across strided, grouped, padded, 1x1 and
// asymmetric-halo regions.  This is the determinism guarantee the distributed runtime rests
// on — intra-device parallelism changes wall time, never arithmetic.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "conv_oracle.hpp"
#include "nn/executor.hpp"
#include "nn/kernels.hpp"
#include "nn/receptive.hpp"
#include "tensor/slice.hpp"

namespace pico {
namespace {

const std::vector<int> kThreadCounts{1, 2, 3, 4, 5};

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data().data(), b.data().data(),
                     static_cast<std::size_t>(a.size()) * sizeof(float)) == 0;
}

/// Regions exercising interior, border (true zero padding) and
/// asymmetric-halo cases (top strip needs no upper halo but a lower one,
/// and vice versa), plus a narrow column window.
std::vector<Region> parity_regions(const Shape& out) {
  std::vector<Region> regions{
      Region::full(out.height, out.width),
      Region::rows(0, std::max(1, out.height / 3), out.width),
      Region::rows(out.height - std::max(1, out.height / 3), out.height,
                   out.width),
      Region{out.height / 3, std::max(out.height / 3 + 1, 2 * out.height / 3),
             out.width / 4, std::max(out.width / 4 + 1, 3 * out.width / 4)},
  };
  return regions;
}

/// For every region and thread count, compute the region from its minimal
/// haloed input piece and require exact equality with the serial direct
/// reference (sliced from the full map).
void check_parity(nn::Graph& g, int node_id, std::uint64_t seed) {
  g.finalize();
  Rng rng(seed);
  g.randomize_weights(rng);
  Tensor input(g.input_shape());
  input.randomize(rng);

  const std::vector<Tensor> all =
      nn::execute_all(g, input, {.threads = 1});
  const nn::Node& node = g.node(node_id);

  for (const Region& region : parity_regions(node.out_shape)) {
    if (region.empty()) continue;
    const Tensor expected =
        extract(all[static_cast<std::size_t>(node_id)], region);
    std::vector<Placed> pieces;
    for (std::size_t k = 0; k < node.inputs.size(); ++k) {
      const Region need =
          nn::input_region(g, node_id, region, static_cast<int>(k));
      const Tensor& producer =
          all[static_cast<std::size_t>(node.inputs[k])];
      pieces.push_back({need, extract(producer, need)});
    }
    for (const int threads : kThreadCounts) {
      const nn::ExecOptions options{.threads = threads};
      const Tensor got = nn::compute_node(node, pieces, region, options);
      EXPECT_TRUE(same_bits(expected, got))
          << node.name << " region " << region << " threads " << threads;
      if (node.kind == nn::OpKind::Conv) {
        const Tensor oracle = conv_oracle(node, pieces[0], region);
        EXPECT_EQ(Tensor::max_abs_diff(oracle, got), 0.0f)
            << node.name << " oracle, threads " << threads;
      }
    }
  }
}

TEST(KernelParallel, ConvPadded3x3) {
  nn::Graph g;
  const int x = g.add_input({3, 20, 20});
  g.add_conv(x, 8, 3, 1, 1);
  check_parity(g, 1, 500);
}

TEST(KernelParallel, ConvStride2) {
  nn::Graph g;
  const int x = g.add_input({4, 21, 21});
  g.add_conv(x, 6, 3, 2, 1);
  check_parity(g, 1, 501);
}

TEST(KernelParallel, ConvGrouped) {
  nn::Graph g;
  const int x = g.add_input({8, 16, 16});
  g.add_conv_grouped(x, 8, 3, 1, 1, /*groups=*/4);
  check_parity(g, 1, 502);
}

TEST(KernelParallel, ConvDepthwise) {
  nn::Graph g;
  const int x = g.add_input({6, 14, 14});
  g.add_depthwise(x, 3, 1, 1);
  check_parity(g, 1, 503);
}

TEST(KernelParallel, Conv1x1) {
  nn::Graph g;
  const int x = g.add_input({12, 15, 15});
  g.add_conv(x, 5, 1, 1, 0);
  check_parity(g, 1, 504);
}

TEST(KernelParallel, ConvAsymmetricKernel7x1) {
  nn::Graph g;
  const int x = g.add_input({2, 18, 18});
  g.add_conv_window(x, 3, nn::Window{7, 1, 1, 1, 3, 0});
  check_parity(g, 1, 505);
}

TEST(KernelParallel, MaxPool3x3Stride2Padded) {
  nn::Graph g;
  const int x = g.add_input({4, 17, 17});
  g.add_maxpool(x, 3, 2, 1);
  check_parity(g, 1, 506);
}

TEST(KernelParallel, AvgPoolPadded) {
  nn::Graph g;
  const int x = g.add_input({3, 12, 12});
  g.add_avgpool(x, 3, 1, 1);
  check_parity(g, 1, 507);
}

TEST(KernelParallel, ReluAndBatchNorm) {
  {
    nn::Graph g;
    const int x = g.add_input({5, 13, 13});
    const int c = g.add_conv(x, 5, 3, 1, 1, /*fused_relu=*/false);
    g.add_relu(c);
    check_parity(g, 2, 508);
  }
  {
    nn::Graph g;
    const int x = g.add_input({5, 13, 13});
    g.add_batchnorm(x, /*fused_relu=*/true);
    check_parity(g, 1, 509);
  }
}

TEST(KernelParallel, ResidualAdd) {
  nn::Graph g;
  const int x = g.add_input({4, 16, 16});
  const int a = g.add_conv(x, 4, 3, 1, 1, /*fused_relu=*/false);
  const int b = g.add_conv(x, 4, 1, 1, 0, /*fused_relu=*/false);
  g.add_add(a, b, /*fused_relu=*/true);
  check_parity(g, 3, 510);
}

TEST(KernelParallel, SmallMapKernelsSplitByChannel) {
  // YOLOv2's tail shape: a 2x2 map with fewer rows than threads, so conv,
  // pool, batchnorm, ReLU and add all split by channel block.
  nn::Graph g;
  const int x = g.add_input({64, 4, 4});
  const int p = g.add_maxpool(x, 2, 2);
  const int bn = g.add_batchnorm(p, /*fused_relu=*/false);
  const int r = g.add_relu(bn);
  const int c = g.add_conv(r, 48, 3, 1, 1, /*fused_relu=*/false);
  const int c2 = g.add_conv(r, 48, 1, 1, 0, /*fused_relu=*/false);
  g.add_add(c, c2, /*fused_relu=*/true);
  g.finalize();
  Rng rng(513);
  g.randomize_weights(rng);
  Tensor input(g.input_shape());
  input.randomize(rng);
  const std::vector<Tensor> reference =
      nn::execute_all(g, input, {.threads = 1});
  for (const int threads : kThreadCounts) {
    const std::vector<Tensor> got =
        nn::execute_all(g, input, {.threads = threads});
    for (int id = 1; id < g.size(); ++id) {
      EXPECT_TRUE(same_bits(reference[static_cast<std::size_t>(id)],
                            got[static_cast<std::size_t>(id)]))
          << g.node(id).name << " threads " << threads;
    }
  }
}

TEST(KernelParallel, ExecuteSegmentDeterministicAcrossThreadCounts) {
  // A conv-pool-conv stack run as one segment on a strip region: every
  // thread count must reproduce the serial result exactly, which is what
  // lets heterogeneous devices with different core counts cooperate on one
  // task without drift.
  nn::Graph g;
  const int x = g.add_input({3, 32, 32});
  const int c1 = g.add_conv(x, 8, 3, 1, 1);
  const int p = g.add_maxpool(c1, 2, 2);
  g.add_conv(p, 8, 3, 1, 1);
  g.finalize();
  Rng rng(511);
  g.randomize_weights(rng);
  Tensor input(g.input_shape());
  input.randomize(rng);

  const Shape out = g.output_shape();
  const Region out_region = Region::rows(3, out.height - 2, out.width);
  const Region need = nn::segment_input_region(g, 1, 3, out_region);
  const Placed piece{need, extract(input, need)};

  const Tensor reference =
      nn::execute_segment(g, 1, 3, piece, out_region, {.threads = 1});
  for (const int threads : kThreadCounts) {
    const Tensor got =
        nn::execute_segment(g, 1, 3, piece, out_region, {.threads = threads});
    EXPECT_TRUE(same_bits(reference, got)) << "threads " << threads;
  }
}

TEST(KernelParallel, FullGraphExecuteMatchesSerial) {
  nn::Graph g;
  const int x = g.add_input({3, 24, 24});
  const int c1 = g.add_conv(x, 8, 3, 1, 1);
  const int p = g.add_maxpool(c1, 2, 2);
  const int c2 = g.add_conv(p, 8, 3, 2, 1);
  g.add_global_avgpool(c2);
  g.finalize();
  Rng rng(512);
  g.randomize_weights(rng);
  Tensor input(g.input_shape());
  input.randomize(rng);

  const Tensor reference = nn::execute(g, input, {.threads = 1});
  for (const int threads : kThreadCounts) {
    const Tensor got = nn::execute(g, input, {.threads = threads});
    EXPECT_TRUE(same_bits(reference, got)) << "threads " << threads;
  }
}

}  // namespace
}  // namespace pico
