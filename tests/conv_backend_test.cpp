// The served convolution (nn::compute_node) against the direct-loop oracle
// of conv_oracle.hpp: the two must agree exactly (the accumulation order is
// identical by construction) across kernel shapes, strides, paddings,
// border/interior regions and haloed input pieces.
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

Tensor served(const nn::Node& node, const Placed& piece, const Region& region,
              const nn::ExecOptions& options = {}) {
  return nn::compute_node(node, std::span<const Placed>(&piece, 1), region,
                          options);
}

struct ConvCase {
  const char* name;
  int in_channels, in_size, out_channels;
  nn::Window window;
};

// gtest would otherwise print a case as its raw bytes, which hold the address
// of `name` and so make the listed test name differ from run to run.
void PrintTo(const ConvCase& c, std::ostream* os) { *os << c.name; }

class ConvBackends : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvBackends, AgreeOnFullMapAndRegions) {
  const ConvCase param = GetParam();
  nn::Graph g;
  const int in =
      g.add_input({param.in_channels, param.in_size, param.in_size});
  const int conv =
      g.add_conv_window(in, param.out_channels, param.window,
                        /*fused_relu=*/param.in_size % 2 == 0);
  g.finalize();
  Rng rng(2718);
  g.randomize_weights(rng);
  Tensor input(g.input_shape());
  input.randomize(rng);

  const nn::Node& node = g.node(conv);
  const Shape out = node.out_shape;
  const Region full_in = Region::full(param.in_size, param.in_size);
  const Placed whole{full_in, input};

  // Full map.
  const Tensor direct =
      conv_oracle(node, whole, Region::full(out.height, out.width));
  const Tensor fast =
      served(node, whole, Region::full(out.height, out.width));
  ASSERT_FLOAT_EQ(Tensor::max_abs_diff(direct, fast), 0.0f);

  // A sweep of sub-regions, fed exactly the haloed piece they need.
  const std::vector<Region> regions{
      Region::rows(0, std::max(1, out.height / 3), out.width),
      Region::rows(out.height / 2, out.height, out.width),
      Region{out.height / 4, std::max(out.height / 4 + 1, 3 * out.height / 4),
             out.width / 4, std::max(out.width / 4 + 1, 3 * out.width / 4)},
  };
  for (const Region& region : regions) {
    if (region.empty()) continue;
    const Region need = nn::input_region(g, conv, region);
    const Placed piece{need, extract(input, need)};
    const Tensor d = conv_oracle(node, piece, region);
    const Tensor f = served(node, piece, region);
    ASSERT_FLOAT_EQ(Tensor::max_abs_diff(d, f), 0.0f)
        << param.name << " region " << region;
    // And against the sliced full-map result.
    ASSERT_FLOAT_EQ(Tensor::max_abs_diff(extract(fast, region), f), 0.0f);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvBackends,
    ::testing::Values(
        ConvCase{"k3s1p1", 3, 17, 8, nn::Window::square(3, 1, 1)},
        ConvCase{"k1s1p0", 16, 14, 4, nn::Window::square(1, 1, 0)},
        ConvCase{"k3s2p1", 4, 23, 6, nn::Window::square(3, 2, 1)},
        ConvCase{"k5s1p2", 2, 19, 3, nn::Window::square(5, 1, 2)},
        ConvCase{"k7s2p3", 3, 32, 4, nn::Window::square(7, 2, 3)},
        ConvCase{"k2s2p0", 8, 16, 8, nn::Window::square(2, 2, 0)},
        ConvCase{"k1x7", 4, 15, 4, nn::Window{1, 7, 1, 1, 0, 3}},
        ConvCase{"k7x1", 4, 15, 4, nn::Window{7, 1, 1, 1, 3, 0}},
        ConvCase{"k3s1p0_valid", 5, 11, 5, nn::Window::square(3, 1, 0)}),
    [](const auto& info) { return info.param.name; });

TEST(ConvBackends, BlockedPathCoversMultipleRowBlocks) {
  // Big enough that the patch matrix spans several row blocks (a call's
  // budget is 256K floats): 64ch * 9 taps * 128 cols = 73728 floats/row ->
  // blocks of 3 rows over 128 rows.
  nn::Graph g;
  const int in = g.add_input({64, 128, 128});
  g.add_conv(in, 4, 3, 1, 1);
  g.finalize();
  Rng rng(5);
  g.randomize_weights(rng);
  Tensor input(g.input_shape());
  input.randomize(rng);
  const Placed whole{Region::full(128, 128), input};
  const nn::Node& node = g.node(1);
  const Tensor d =
      conv_oracle(node, whole, Region::full(128, 128));
  const Tensor f =
      served(node, whole, Region::full(128, 128));
  EXPECT_FLOAT_EQ(Tensor::max_abs_diff(d, f), 0.0f);
}

TEST(ConvBackends, ExtremeAspectRatioRegions) {
  // Degenerate block sizing: a single-row output region wide enough that
  // the patch matrix extent kernel_volume * n must be computed in 64 bits,
  // and a many-block tall-thin map.  Regression for the int-overflow /
  // per-group buffer-churn audit of the im2col path.
  {
    nn::Graph g;
    const int in = g.add_input({8, 3, 4096});
    g.add_conv(in, 4, 3, 1, 1);
    g.finalize();
    Rng rng(91);
    g.randomize_weights(rng);
    Tensor input(g.input_shape());
    input.randomize(rng);
    const nn::Node& node = g.node(1);
    const Placed whole{Region::full(3, 4096), input};
    for (const Region region :
         {Region::rows(1, 2, 4096), Region::full(3, 4096)}) {
      const Tensor d =
          conv_oracle(node, whole, region);
      const Tensor f =
          served(node, whole, region);
      ASSERT_FLOAT_EQ(Tensor::max_abs_diff(d, f), 0.0f)
          << "wide region " << region;
    }
  }
  {
    // Tall and one column wide: per-row patch extent is tiny, so the block
    // loop covers thousands of rows per block.
    nn::Graph g;
    const int in = g.add_input({2, 4096, 3});
    g.add_conv(in, 3, 3, 1, 1);
    g.finalize();
    Rng rng(92);
    g.randomize_weights(rng);
    Tensor input(g.input_shape());
    input.randomize(rng);
    const nn::Node& node = g.node(1);
    const Placed whole{Region::full(4096, 3), input};
    const Region region{0, 4096, 1, 2};
    const Tensor d = conv_oracle(node, whole, region);
    const Tensor f = served(node, whole, region);
    ASSERT_FLOAT_EQ(Tensor::max_abs_diff(d, f), 0.0f);
  }
}

TEST(ConvBackends, RandomizedSweep) {
  Rng rng(31337);
  for (int trial = 0; trial < 12; ++trial) {
    const int k = rng.uniform_int(1, 5);
    const int s = rng.uniform_int(1, 2);
    const int p = rng.uniform_int(0, k / 2 + 1);
    const int size = rng.uniform_int(k + 2, 24);
    nn::Graph g;
    const int in = g.add_input({rng.uniform_int(1, 6), size, size});
    g.add_conv(in, rng.uniform_int(1, 6), k, s, p);
    g.finalize();
    g.randomize_weights(rng);
    Tensor input(g.input_shape());
    input.randomize(rng);
    const nn::Node& node = g.node(1);
    const Shape out = node.out_shape;
    const Placed whole{Region::full(size, size), input};
    const Tensor d = conv_oracle(node, whole,
                                Region::full(out.height, out.width));
    const Tensor f = served(node, whole,
                                Region::full(out.height, out.width));
    ASSERT_FLOAT_EQ(Tensor::max_abs_diff(d, f), 0.0f)
        << "k=" << k << " s=" << s << " p=" << p << " size=" << size;
  }
}


// ---------------------------------------------------------------------------
// Every dispatch path of the served conv: row strips or output-channel
// blocks (with the shared patch matrix), the register tile's partial
// channel panels and pixel tails, the in-place 1x1 path and the depthwise
// kernel, at 1-5 threads.

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data().data(), b.data().data(),
                     static_cast<std::size_t>(a.size()) * sizeof(float)) == 0;
}

/// Element-wise float ==: the oracle skips padded taps, so a sum may
/// differ from the served kernel's in the sign of zero only.
bool same_values(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) return false;
  for (long long i = 0; i < a.size(); ++i) {
    if (a.data()[static_cast<std::size_t>(i)] !=
        b.data()[static_cast<std::size_t>(i)]) {
      return false;
    }
  }
  return true;
}

struct DispatchCase {
  const char* name;
  Shape input;
  int out_channels;
  nn::Window window;
  int groups;
};

void PrintTo(const DispatchCase& c, std::ostream* os) { *os << c.name; }

class ConvDispatch : public ::testing::TestWithParam<DispatchCase> {};

TEST_P(ConvDispatch, MatchesOracleBitIdenticalAcrossThreadsAndPieces) {
  const DispatchCase param = GetParam();
  nn::Graph g;
  const int in = g.add_input(param.input);
  const int conv = g.add_conv_window(in, param.out_channels, param.window,
                                     /*fused_relu=*/param.out_channels % 2 == 1,
                                     "", param.groups);
  g.finalize();
  Rng rng(4242);
  g.randomize_weights(rng);
  Tensor input(g.input_shape());
  input.randomize(rng);
  const nn::Node& node = g.node(conv);
  const Shape out = node.out_shape;
  const Region full = Region::full(out.height, out.width);
  const Placed whole{Region::full(param.input.height, param.input.width),
                     input};

  const Tensor reference = served(node, whole, full, {.threads = 1});
  ASSERT_TRUE(same_values(reference, conv_oracle(node, whole, full)))
      << param.name;

  // Row pieces of 1 and 2 rows, a 1-column piece, an interior window.
  std::vector<Region> regions{
      full,
      Region::rows(0, 1, out.width),
      Region::rows(out.height - std::min(2, out.height), out.height,
                   out.width),
      Region{0, out.height, out.width / 2, out.width / 2 + 1},
      Region{out.height / 3, std::max(out.height / 3 + 1, 2 * out.height / 3),
             out.width / 4, std::max(out.width / 4 + 1, 3 * out.width / 4)},
  };
  for (const Region& region : regions) {
    const Region need = nn::input_region(g, conv, region);
    const Placed piece{need, extract(input, need)};
    const Tensor expected = extract(reference, region);
    ASSERT_TRUE(same_values(expected, conv_oracle(node, piece, region)))
        << param.name << " region " << region;
    for (const int threads : {1, 2, 3, 4, 5}) {
      EXPECT_TRUE(same_bits(expected,
                            served(node, piece, region, {.threads = threads})))
          << param.name << " region " << region << " threads " << threads;
    }
    // From a piece wider than the region (a 1x1 conv then reads the input
    // in place row by row).
    EXPECT_TRUE(same_bits(expected, served(node, whole, region, {.threads = 3})))
        << param.name << " region " << region << " from the whole map";
  }

  // The map computed in pieces (row strips split in two column halves, so
  // rows may number fewer than threads) and stitched is the full map.
  for (const int threads : {2, 4}) {
    std::vector<Placed> pieces;
    const int strips = std::min(3, out.height);
    for (int s = 0; s < strips; ++s) {
      const int r0 = out.height * s / strips;
      const int r1 = out.height * (s + 1) / strips;
      const int half = std::max(1, out.width / 2);
      for (const Region region : {Region{r0, r1, 0, half},
                                  Region{r0, r1, half, out.width}}) {
        if (region.empty()) continue;
        const Region need = nn::input_region(g, conv, region);
        pieces.push_back({region, served(node, {need, extract(input, need)},
                                         region, {.threads = threads})});
      }
    }
    EXPECT_TRUE(same_bits(reference, stitch(out, pieces)))
        << param.name << " stitched, threads " << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Paths, ConvDispatch,
    ::testing::Values(
        // 2x2 maps: fewer rows than threads, so output-channel blocks
        // sharing one patch matrix (1x1 in place).
        DispatchCase{"map2_3x3_512", {512, 2, 2}, 512,
                     nn::Window::square(3, 1, 1), 1},
        DispatchCase{"map2_3x3_1024", {1024, 2, 2}, 1024,
                     nn::Window::square(3, 1, 1), 1},
        DispatchCase{"map2_1x1_1024", {1024, 2, 2}, 1024,
                     nn::Window::square(1, 1, 0), 1},
        // Channel counts off the 8-channel panel: partial panels.
        DispatchCase{"oc1", {5, 9, 9}, 1, nn::Window::square(3, 1, 1), 1},
        DispatchCase{"oc7", {6, 9, 11}, 7, nn::Window::square(3, 1, 1), 1},
        DispatchCase{"oc13", {4, 3, 7}, 13, nn::Window::square(3, 2, 1), 1},
        DispatchCase{"oc1000", {16, 3, 3}, 1000, nn::Window::square(3, 1, 1),
                     1},
        // 1x1 in place (stride 1) and through the patch matrix (stride 2).
        DispatchCase{"k1s1", {24, 17, 13}, 20, nn::Window::square(1, 1, 0),
                     1},
        DispatchCase{"k1s2", {24, 17, 13}, 20, nn::Window::square(1, 2, 0),
                     1},
        // Depthwise: strided, padded, and a wide row of pixels with tails.
        DispatchCase{"dw_k3s1", {12, 13, 21}, 12, nn::Window::square(3, 1, 1),
                     12},
        DispatchCase{"dw_k3s2", {12, 13, 21}, 12, nn::Window::square(3, 2, 1),
                     12},
        DispatchCase{"dw_k5s2p2", {6, 14, 19}, 6, nn::Window::square(5, 2, 2),
                     6},
        DispatchCase{"dw_k3s3", {5, 10, 10}, 5, nn::Window::square(3, 3, 1),
                     5},
        DispatchCase{"dw_2x2map", {512, 2, 2}, 512,
                     nn::Window::square(3, 1, 1), 512},
        // Grouped but not depthwise.
        DispatchCase{"groups2", {8, 11, 12}, 12, nn::Window::square(3, 1, 1),
                     2},
        DispatchCase{"groups4", {16, 7, 9}, 20, nn::Window::square(3, 2, 1),
                     4},
        DispatchCase{"groups4_map2", {64, 2, 2}, 64,
                     nn::Window::square(3, 1, 1), 4}),
    [](const auto& info) { return info.param.name; });

}  // namespace
}  // namespace pico
