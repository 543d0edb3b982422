// execute_segment vs whole-graph execution: for every model in the zoo and a
// sweep of segments/regions, computing a strip through a fused segment must
// equal the sliced reference result exactly.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "models/zoo.hpp"
#include "nn/executor.hpp"
#include "nn/receptive.hpp"
#include "partition/units.hpp"
#include "tensor/slice.hpp"

namespace pico {
namespace {

struct SegmentCase {
  const char* name;
  models::ModelId model;
  int input_size;
};

// Printed by name: the default byte dump holds the address of `name`, so the
// listed test name would differ from run to run.
void PrintTo(const SegmentCase& c, std::ostream* os) { *os << c.name; }

class SegmentExecution : public ::testing::TestWithParam<SegmentCase> {};

TEST_P(SegmentExecution, StripsMatchReference) {
  const SegmentCase param = GetParam();
  nn::Graph g = models::build(param.model, {.input_size = param.input_size});
  Rng rng(55);
  g.randomize_weights(rng);
  Tensor input(g.input_shape());
  input.randomize(rng);
  const std::vector<Tensor> reference = nn::execute_all(g, input);

  const auto units = partition::partition_units(g);
  // Split the unit chain into three segments and each segment's output into
  // three strips; every (segment, strip) must match the reference slice.
  const int unit_count = static_cast<int>(units.size());
  const int cut1 = unit_count / 3, cut2 = 2 * unit_count / 3;
  const std::array<std::pair<int, int>, 3> segments{
      std::pair{0, cut1}, std::pair{cut1 + 1, cut2},
      std::pair{cut2 + 1, unit_count - 1}};

  for (const auto& [u_first, u_last] : segments) {
    if (u_first > u_last) continue;
    const partition::Unit span =
        partition::unit_span(units, u_first, u_last);
    const Shape out_shape = g.node(span.last).out_shape;
    const Shape in_shape = g.node(span.first).in_shape;
    const Tensor& segment_input =
        reference[static_cast<std::size_t>(span.first - 1)];
    ASSERT_EQ(segment_input.shape(), in_shape);

    const int h = out_shape.height;
    const std::array<Region, 3> strips{Region::rows(0, h / 3, out_shape.width),
                                       Region::rows(h / 3, 2 * h / 3,
                                                    out_shape.width),
                                       Region::rows(2 * h / 3, h,
                                                    out_shape.width)};
    for (const Region& strip : strips) {
      if (strip.empty()) continue;
      const Region need =
          nn::segment_input_region(g, span.first, span.last, strip);
      const Tensor piece = extract(segment_input, need);
      const Tensor got =
          nn::execute_segment(g, span.first, span.last, {need, piece}, strip);
      const Tensor expected = extract(
          reference[static_cast<std::size_t>(span.last)], strip);
      ASSERT_FLOAT_EQ(Tensor::max_abs_diff(expected, got), 0.0f)
          << param.name << " segment [" << span.first << "," << span.last
          << "] strip " << strip;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, SegmentExecution,
    ::testing::Values(SegmentCase{"vgg16", models::ModelId::Vgg16, 64},
                      SegmentCase{"yolov2", models::ModelId::Yolov2, 64},
                      SegmentCase{"resnet34", models::ModelId::Resnet34, 64},
                      SegmentCase{"inception", models::ModelId::Inception,
                                  96},
                      SegmentCase{"toy", models::ModelId::ToyMnist, 32}),
    [](const auto& info) { return info.param.name; });

TEST(Executor, WholeGraphAsSingleSegment) {
  nn::Graph g = models::toy_mnist({.input_size = 32});
  Rng rng(77);
  g.randomize_weights(rng);
  Tensor input(g.input_shape());
  input.randomize(rng);
  const Tensor expected = nn::execute(g, input);
  const Shape out = g.output_shape();
  const Region full_in =
      Region::full(g.input_shape().height, g.input_shape().width);
  const Tensor got = nn::execute_segment(
      g, 1, g.size() - 1, {full_in, input},
      Region::full(out.height, out.width));
  EXPECT_FLOAT_EQ(Tensor::max_abs_diff(expected, got), 0.0f);
}

TEST(Executor, RejectsUndercoveredInput) {
  nn::Graph g = models::toy_mnist({.input_size = 32});
  Rng rng(78);
  g.randomize_weights(rng);
  Tensor input(g.input_shape());
  input.randomize(rng);
  const Shape out = g.output_shape();
  // Provide only half the input but demand the full output.
  const Region half = Region::rows(0, 16, 32);
  EXPECT_THROW(nn::execute_segment(g, 1, g.size() - 1,
                                   {half, extract(input, half)},
                                   Region::full(out.height, out.width)),
               InvariantError);
}

TEST(Executor, RejectsShapeMismatch) {
  nn::Graph g = models::toy_mnist({.input_size = 32});
  Rng rng(1);
  g.randomize_weights(rng);
  Tensor wrong({1, 16, 16});
  EXPECT_THROW(nn::execute(g, wrong), InvariantError);
}

TEST(Executor, ClassifierModelsExecute) {
  nn::Graph g =
      models::vgg16({.input_size = 32, .include_classifier = true});
  Rng rng(79);
  g.randomize_weights(rng);
  Tensor input(g.input_shape());
  input.randomize(rng);
  const Tensor out = nn::execute(g, input);
  EXPECT_EQ(out.shape(), (Shape{1000, 1, 1}));
}

}  // namespace
}  // namespace pico
