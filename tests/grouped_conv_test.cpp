// Grouped / depthwise convolution: semantics (block-diagonal equivalence to
// dense conv), backend agreement, region execution, new zoo models, and
// end-to-end distributed correctness.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "conv_oracle.hpp"
#include "cost/flops.hpp"
#include "models/cfg.hpp"
#include "models/zoo.hpp"
#include "nn/executor.hpp"
#include "nn/kernels.hpp"
#include "nn/receptive.hpp"
#include "partition/branches.hpp"
#include "partition/pico_dp.hpp"
#include "partition/units.hpp"
#include "runtime/pipeline.hpp"
#include "tensor/slice.hpp"

namespace pico {
namespace {

NetworkModel test_network() {
  NetworkModel net;
  net.bandwidth = 50e6 / 8.0;
  net.per_message_overhead = 1e-3;
  return net;
}

TEST(GroupedConv, WeightCountPerGroup) {
  nn::Graph g;
  const int in = g.add_input({8, 10, 10});
  const int conv = g.add_conv_grouped(in, 12, 3, 1, 1, 4);
  g.finalize();
  // 12 output channels x (8/4 = 2) input channels x 3 x 3.
  EXPECT_EQ(g.node(conv).weights.size(), 12u * 2u * 9u);
}

TEST(GroupedConv, RejectsIndivisibleChannels) {
  nn::Graph g;
  const int in = g.add_input({6, 8, 8});
  g.add_conv_grouped(in, 8, 3, 1, 1, 4);  // 6 % 4 != 0
  EXPECT_THROW(g.finalize(), InvariantError);
}

TEST(GroupedConv, EqualsBlockDiagonalDenseConv) {
  // A grouped conv must equal a dense conv whose weights are zero outside
  // the block diagonal.
  const int ic = 6, oc = 9, groups = 3, size = 11, k = 3;
  nn::Graph grouped;
  {
    const int in = grouped.add_input({ic, size, size});
    grouped.add_conv_grouped(in, oc, k, 1, 1, groups, false);
    grouped.finalize();
  }
  nn::Graph dense;
  {
    const int in = dense.add_input({ic, size, size});
    dense.add_conv(in, oc, k, 1, 1, false);
    dense.finalize();
  }
  Rng rng(5);
  grouped.randomize_weights(rng);

  // Copy the grouped weights into a dense conv node's block diagonal and
  // compute both with the same kernel entry point.
  const int icpg = ic / groups, ocpg = oc / groups;
  nn::Node dense_node = dense.node(1);
  std::fill(dense_node.weights.begin(), dense_node.weights.end(), 0.0f);
  const nn::Node& grouped_node = grouped.node(1);
  for (int o = 0; o < oc; ++o) {
    const int group = o / ocpg;
    for (int local = 0; local < icpg; ++local) {
      const int dense_ic = group * icpg + local;
      for (int tap = 0; tap < k * k; ++tap) {
        dense_node.weights[static_cast<std::size_t>(
            (o * ic + dense_ic) * k * k + tap)] =
            grouped_node
                .weights[static_cast<std::size_t>((o * icpg + local) * k * k +
                                                  tap)];
      }
    }
  }
  dense_node.bias = grouped_node.bias;

  Tensor input({ic, size, size});
  input.randomize(rng);
  const Placed whole{Region::full(size, size), input};
  const Region full_out = Region::full(size, size);
  const Tensor grouped_out =
      nn::compute_node(grouped_node, std::span<const Placed>(&whole, 1),
                       full_out);
  const Tensor dense_out =
      nn::compute_node(dense_node, std::span<const Placed>(&whole, 1),
                       full_out);
  // Same math, but dense accumulates extra zero-weight terms: values agree
  // to float tolerance (products with zero weights are exact zeros, so the
  // sums are actually identical).
  EXPECT_FLOAT_EQ(Tensor::max_abs_diff(grouped_out, dense_out), 0.0f);
}

TEST(GroupedConv, BackendsAgreeOnRegions) {
  for (const int groups : {1, 2, 4, 8}) {
    nn::Graph g;
    const int in = g.add_input({8, 13, 13});
    const int conv = g.add_conv_grouped(in, 8, 3, 1, 1, groups);
    g.finalize();
    Rng rng(7);
    g.randomize_weights(rng);
    Tensor input(g.input_shape());
    input.randomize(rng);
    const nn::Node& node = g.node(conv);
    for (const Region region :
         {Region::full(13, 13), Region::rows(3, 9, 13), Region{0, 13, 5, 9}}) {
      const Region need = nn::input_region(g, conv, region);
      const Placed piece{need, extract(input, need)};
      const Tensor direct =
          conv_oracle(node, piece, region);
      const Tensor fast =
          nn::compute_node(node, std::span<const Placed>(&piece, 1), region);
      ASSERT_FLOAT_EQ(Tensor::max_abs_diff(direct, fast), 0.0f)
          << "groups=" << groups << " region " << region;
    }
  }
}

TEST(GroupedConv, DepthwiseFlopsMatchEq2PerGroup) {
  nn::Graph g;
  const int in = g.add_input({16, 20, 20});
  const int dw = g.add_depthwise(in, 3, 1, 1);
  g.finalize();
  EXPECT_EQ(g.node(dw).groups, 16);
  EXPECT_EQ(g.node(dw).out_shape, (Shape{16, 20, 20}));
  // k² · (c_in/groups = 1) · h · w · c_out
  EXPECT_DOUBLE_EQ(cost::node_flops_full(g, dw), 9.0 * 1 * 20 * 20 * 16);
}

TEST(Zoo, MobileNetV1Shapes) {
  const nn::Graph g = models::mobilenet_v1();
  int depthwise = 0, pointwise = 0;
  for (const auto& node : g.nodes()) {
    if (node.kind != nn::OpKind::Conv) continue;
    if (node.groups > 1) ++depthwise;
    if (node.win.kh == 1 && node.groups == 1) ++pointwise;
  }
  EXPECT_EQ(depthwise, 13);
  EXPECT_EQ(pointwise, 13);
  EXPECT_EQ(g.output_shape(), (Shape{1024, 7, 7}));
  // The whole point of MobileNet: ~10-30x fewer FLOPs than VGG16.
  EXPECT_LT(cost::model_flops(g) * 10.0,
            cost::model_flops(models::vgg16()));
}

TEST(Zoo, SqueezeNetShapesAndFireBranches) {
  const nn::Graph g = models::squeezenet();
  const auto units = partition::partition_units(g);
  int fire_blocks = 0;
  for (const auto& unit : units) {
    const auto branches = partition::block_branches(g, unit);
    if (branches.size() == 2) ++fire_blocks;
  }
  EXPECT_EQ(fire_blocks, 8);  // every fire block's expand stage decomposes
  EXPECT_EQ(g.output_shape().channels, 1000);
}

TEST(GroupedConv, MobileNetSegmentStripsMatchReference) {
  nn::Graph g = models::mobilenet_v1({.input_size = 64});
  Rng rng(9);
  g.randomize_weights(rng);
  Tensor input(g.input_shape());
  input.randomize(rng);
  const auto reference = nn::execute_all(g, input);
  // A fused segment spanning several depthwise-separable pairs.
  const int first = 2, last = 9;
  const Shape out = g.node(last).out_shape;
  const Region strip = Region::rows(0, out.height / 2, out.width);
  const Region need = nn::segment_input_region(g, first, last, strip);
  const Tensor got = nn::execute_segment(
      g, first, last,
      {need, extract(reference[static_cast<std::size_t>(first - 1)], need)},
      strip);
  EXPECT_FLOAT_EQ(
      Tensor::max_abs_diff(
          extract(reference[static_cast<std::size_t>(last)], strip), got),
      0.0f);
}

TEST(GroupedConv, DistributedMobileNetBitExact) {
  nn::Graph g = models::mobilenet_v1({.input_size = 64});
  Rng rng(11);
  g.randomize_weights(rng);
  Tensor input(g.input_shape());
  input.randomize(rng);
  const Tensor reference = nn::execute(g, input);
  const Cluster c = Cluster::paper_heterogeneous();
  const auto plan = partition::pico_plan(g, c, test_network());
  runtime::PipelineRuntime rt(g, plan);
  EXPECT_FLOAT_EQ(Tensor::max_abs_diff(rt.infer(input), reference), 0.0f);
}

TEST(GroupedConv, DistributedSqueezeNetBitExact) {
  nn::Graph g = models::squeezenet({.input_size = 96});
  Rng rng(13);
  g.randomize_weights(rng);
  Tensor input(g.input_shape());
  input.randomize(rng);
  const Tensor reference = nn::execute(g, input);
  const Cluster c = Cluster::paper_heterogeneous();
  const auto plan = partition::pico_plan(
      g, c, test_network(), {.enable_branch_parallel = true});
  runtime::PipelineRuntime rt(g, plan);
  EXPECT_FLOAT_EQ(Tensor::max_abs_diff(rt.infer(input), reference), 0.0f);
}

TEST(Cfg, GroupsKeySupported) {
  const nn::Graph g = models::parse_cfg(R"(
[net]
channels=8
height=12
width=12
[convolutional]
filters=8
size=3
pad=1
groups=8
activation=relu
[convolutional]
filters=16
size=1
activation=relu
)");
  EXPECT_EQ(g.node(1).groups, 8);
  EXPECT_EQ(g.node(1).weights.size(), 8u * 1u * 9u);
  EXPECT_EQ(g.output_shape(), (Shape{16, 12, 12}));
}

}  // namespace
}  // namespace pico
