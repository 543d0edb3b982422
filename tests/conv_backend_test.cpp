// The served convolution (nn::compute_node) against the direct-loop oracle
// of conv_oracle.hpp: the two must agree exactly (the accumulation order is
// identical by construction) across kernel shapes, strides, paddings,
// border/interior regions and haloed input pieces.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "conv_oracle.hpp"
#include "models/zoo.hpp"
#include "nn/executor.hpp"
#include "nn/kernels.hpp"
#include "nn/kernels_detail.hpp"
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
// channel panels and pixel counts on either side of the 4- and 8-pixel
// tiles, the in-place 1x1 path and the depthwise kernel, at 1-5 threads;
// and the pool kernels, padded and at stride 1, against the direct loop
// with a NaN among their inputs.

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

/// `got` against the oracle's `region` of `node`: a conv by float ==, a
/// pool (whose oracle is the loop it replaced) byte for byte.
bool matches_oracle(const nn::Node& node, const Placed& piece,
                    const Region& region, const Tensor& got) {
  if (node.kind == nn::OpKind::Conv) {
    return same_values(got, conv_oracle(node, piece, region));
  }
  return same_bits(got, pool_oracle(node, piece, region));
}

struct DispatchCase {
  const char* name;
  Shape input;
  int out_channels;
  nn::Window window;
  int groups;
  /// Conv, MaxPool or AvgPool (a pool takes kh, sh and ph of `window`).
  nn::OpKind op = nn::OpKind::Conv;
};

void PrintTo(const DispatchCase& c, std::ostream* os) { *os << c.name; }

class ConvDispatch : public ::testing::TestWithParam<DispatchCase> {};

TEST_P(ConvDispatch, MatchesOracleBitIdenticalAcrossThreadsAndPieces) {
  const DispatchCase param = GetParam();
  nn::Graph g;
  const int in = g.add_input(param.input);
  const nn::Window& win = param.window;
  const int conv =
      param.op == nn::OpKind::MaxPool
          ? g.add_maxpool(in, win.kh, win.sh, win.ph)
      : param.op == nn::OpKind::AvgPool
          ? g.add_avgpool(in, win.kh, win.sh, win.ph)
          : g.add_conv_window(in, param.out_channels, win,
                              /*fused_relu=*/param.out_channels % 2 == 1, "",
                              param.groups);
  g.finalize();
  Rng rng(4242);
  g.randomize_weights(rng);
  Tensor input(g.input_shape());
  input.randomize(rng);
  if (param.op != nn::OpKind::Conv) {
    input.at(0, param.input.height / 2, param.input.width / 2) =
        std::numeric_limits<float>::quiet_NaN();
  }
  const nn::Node& node = g.node(conv);
  const Shape out = node.out_shape;
  const Region full = Region::full(out.height, out.width);
  const Placed whole{Region::full(param.input.height, param.input.width),
                     input};

  const Tensor reference = served(node, whole, full, {.threads = 1});
  ASSERT_TRUE(matches_oracle(node, whole, full, reference)) << param.name;
  if (param.op == nn::OpKind::Conv) {
    // The 4-lane tiles alone give the same bytes as the served path.
    EXPECT_TRUE(same_bits(reference,
                          nn::detail::conv(node, whole, full, {.threads = 2},
                                           nn::detail::conv_gemm_baseline)))
        << param.name << " baseline tiles";
  }

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
    ASSERT_TRUE(matches_oracle(node, piece, region, expected))
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
                     nn::Window::square(3, 1, 1), 4},
        // Output maps of 1, 4, 7, 8, 9, 15, 16, 17 and 33 pixels: under,
        // at and over the 4- and 8-pixel tiles, 13 channels (a partial
        // panel).
        DispatchCase{"px1", {6, 1, 1}, 13, nn::Window::square(3, 1, 1), 1},
        DispatchCase{"px4", {6, 2, 2}, 13, nn::Window::square(3, 1, 1), 1},
        DispatchCase{"px7", {6, 1, 7}, 13, nn::Window::square(3, 1, 1), 1},
        DispatchCase{"px8", {6, 2, 4}, 13, nn::Window::square(3, 1, 1), 1},
        DispatchCase{"px9", {6, 3, 3}, 13, nn::Window::square(3, 1, 1), 1},
        DispatchCase{"px15", {6, 3, 5}, 13, nn::Window::square(3, 1, 1), 1},
        DispatchCase{"px16", {6, 4, 4}, 13, nn::Window::square(3, 1, 1), 1},
        DispatchCase{"px17", {6, 1, 17}, 13, nn::Window::square(3, 1, 1), 1},
        DispatchCase{"px33", {6, 3, 11}, 13, nn::Window::square(3, 1, 1), 1},
        // Pools: padded, stride 1, strided, and a 2x2 map split by channel.
        DispatchCase{"maxpool_k3s1p1", {6, 9, 11}, 6,
                     nn::Window::square(3, 1, 1), 1, nn::OpKind::MaxPool},
        DispatchCase{"avgpool_k3s1p1", {6, 9, 11}, 6,
                     nn::Window::square(3, 1, 1), 1, nn::OpKind::AvgPool},
        DispatchCase{"maxpool_k2s1", {5, 10, 13}, 5,
                     nn::Window::square(2, 1, 0), 1, nn::OpKind::MaxPool},
        DispatchCase{"maxpool_k2s2", {8, 12, 12}, 8,
                     nn::Window::square(2, 2, 0), 1, nn::OpKind::MaxPool},
        DispatchCase{"maxpool_k3s2p1", {5, 13, 12}, 5,
                     nn::Window::square(3, 2, 1), 1, nn::OpKind::MaxPool},
        DispatchCase{"avgpool_k5s2p2", {4, 10, 9}, 4,
                     nn::Window::square(5, 2, 2), 1, nn::OpKind::AvgPool},
        DispatchCase{"avgpool_map2", {64, 2, 2}, 64,
                     nn::Window::square(3, 1, 1), 1, nn::OpKind::AvgPool}),
    [](const auto& info) { return info.param.name; });


// ---------------------------------------------------------------------------
// The two tile widths on one host: the 8-pixel AVX2 tiles and the 4-pixel
// baseline tiles must give the same bytes, panel by panel and layer by
// layer.

#if PICO_NN_AVX2_TILES

TEST(ConvTileWidths, Avx2MatchesBaselineOnRandomPanels) {
  if (!nn::detail::cpu_has_avx2()) GTEST_SKIP() << "CPU without AVX2";
  Rng rng(8088);
  for (const int n : {1, 4, 7, 8, 9, 15, 16, 17, 33}) {
    for (const int oc : {1, 5, 13, 21}) {
      for (const bool relu : {false, true}) {
        const int k = rng.uniform_int(1, 40);
        // Patch and output rows with and without padding past n.
        const int ldb = n + rng.uniform_int(0, 3);
        const int ldo = n + rng.uniform_int(0, 3);
        const auto random_floats = [&](int count) {
          std::vector<float> v(static_cast<std::size_t>(count));
          for (float& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
          return v;
        };
        const std::vector<float> w = random_floats(oc * k);
        const std::vector<float> b = random_floats(k * ldb);
        const std::vector<float> bias = random_floats(oc);
        // Both outputs start as the same bytes, so lanes past n must be
        // left alone by both.
        std::vector<float> narrow = random_floats(oc * ldo);
        std::vector<float> wide = narrow;
        nn::detail::conv_gemm_baseline(w.data(), k, b.data(), ldb, n,
                                       narrow.data(), ldo, oc, bias.data(),
                                       relu);
        nn::detail::conv_gemm_avx2(w.data(), k, b.data(), ldb, n, wide.data(),
                                   ldo, oc, bias.data(), relu);
        EXPECT_EQ(std::memcmp(narrow.data(), wide.data(),
                              narrow.size() * sizeof(float)),
                  0)
            << "n=" << n << " oc=" << oc << " k=" << k << " relu=" << relu;
      }
    }
  }
}

/// Every layer output of `g` on `input`, each conv's matrix product on
/// `gemm`.
std::vector<Tensor> layers_on(const nn::Graph& g, const Tensor& input,
                              nn::detail::ConvGemmFn gemm) {
  std::vector<Placed> values{
      {Region::full(input.shape().height, input.shape().width), input}};
  for (int id = 1; id < g.size(); ++id) {
    const nn::Node& node = g.node(id);
    std::vector<Placed> pieces;
    for (const int producer : node.inputs) {
      pieces.push_back(values[static_cast<std::size_t>(producer)]);
    }
    const Region full = Region::full(node.out_shape.height,
                                     node.out_shape.width);
    values.push_back(
        {full, node.kind == nn::OpKind::Conv
                   ? nn::detail::conv(node, pieces[0], full, {}, gemm)
                   : nn::compute_node(node, pieces, full)});
  }
  std::vector<Tensor> tensors;
  for (Placed& value : values) tensors.push_back(std::move(value.tensor));
  return tensors;
}

TEST(ConvTileWidths, ServedModelLayersMatchAcrossPaths) {
  if (!nn::detail::cpu_has_avx2()) GTEST_SKIP() << "CPU without AVX2";
  const struct {
    models::ModelId model;
    int input_size;
  } served_models[] = {{models::ModelId::Yolov2, 64},
                       {models::ModelId::MobileNetV1, 160}};
  for (const auto& [model, input_size] : served_models) {
    nn::Graph g = models::build(model, {.input_size = input_size});
    Rng rng(606);
    g.randomize_weights(rng);
    Tensor input(g.input_shape());
    input.randomize(rng);
    const std::vector<Tensor> narrow =
        layers_on(g, input, nn::detail::conv_gemm_baseline);
    const std::vector<Tensor> wide =
        layers_on(g, input, nn::detail::conv_gemm_avx2);
    const std::vector<Tensor> executed = nn::execute_all(g, input);
    for (int id = 1; id < g.size(); ++id) {
      const auto i = static_cast<std::size_t>(id);
      EXPECT_TRUE(same_bits(narrow[i], wide[i]))
          << models::model_name(model) << " layer " << g.node(id).name;
      EXPECT_TRUE(same_bits(narrow[i], executed[i]))
          << models::model_name(model) << " layer " << g.node(id).name << " as served";
    }
  }
}

#endif  // PICO_NN_AVX2_TILES

}  // namespace
}  // namespace pico
