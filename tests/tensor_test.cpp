#include <gtest/gtest.h>

#include <cstddef>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "tensor/slice.hpp"
#include "tensor/tensor.hpp"

namespace pico {
namespace {

Tensor sequential(Shape shape) {
  Tensor t(shape);
  float v = 0.0f;
  for (int c = 0; c < shape.channels; ++c)
    for (int y = 0; y < shape.height; ++y)
      for (int x = 0; x < shape.width; ++x) t.at(c, y, x) = v++;
  return t;
}

TEST(Tensor, ConstructAndIndex) {
  Tensor t({2, 3, 4}, 1.5f);
  EXPECT_EQ(t.shape(), (Shape{2, 3, 4}));
  EXPECT_EQ(t.size(), 24);
  EXPECT_FLOAT_EQ(t.at(1, 2, 3), 1.5f);
  t.at(1, 2, 3) = -2.0f;
  EXPECT_FLOAT_EQ(t.at(1, 2, 3), -2.0f);
}

TEST(Tensor, ChannelPointer) {
  Tensor t = sequential({3, 2, 2});
  EXPECT_FLOAT_EQ(t.channel(1)[0], 4.0f);
  EXPECT_FLOAT_EQ(t.channel(2)[3], 11.0f);
}

TEST(Tensor, FillAndRandomize) {
  Tensor t({1, 4, 4});
  Rng rng(3);
  t.randomize(rng, -1.0f, 1.0f);
  bool any_nonzero = false;
  for (float v : t.data()) {
    EXPECT_GE(v, -1.0f);
    EXPECT_LT(v, 1.0f);
    any_nonzero |= v != 0.0f;
  }
  EXPECT_TRUE(any_nonzero);
  t.fill(0.25f);
  for (float v : t.data()) EXPECT_FLOAT_EQ(v, 0.25f);
}

TEST(Tensor, MaxAbsDiff) {
  Tensor a({1, 2, 2}, 1.0f), b({1, 2, 2}, 1.0f);
  b.at(0, 1, 1) = 3.5f;
  EXPECT_FLOAT_EQ(Tensor::max_abs_diff(a, b), 2.5f);
  Tensor c({1, 2, 3});
  EXPECT_THROW(Tensor::max_abs_diff(a, c), InvariantError);
}

TEST(Slice, ExtractCopiesRegion) {
  const Tensor t = sequential({2, 4, 4});
  const Region r{1, 3, 2, 4};
  const Tensor piece = extract(t, r);
  EXPECT_EQ(piece.shape(), (Shape{2, 2, 2}));
  for (int c = 0; c < 2; ++c)
    for (int y = 0; y < 2; ++y)
      for (int x = 0; x < 2; ++x)
        EXPECT_FLOAT_EQ(piece.at(c, y, x), t.at(c, y + 1, x + 2));
}

TEST(Slice, ExtractRejectsOutOfBounds) {
  const Tensor t({1, 4, 4});
  EXPECT_THROW(extract(t, Region{0, 5, 0, 4}), InvariantError);
}

TEST(Slice, StitchRoundTrip) {
  const Tensor t = sequential({3, 8, 5});
  const std::vector<Region> regions{Region::rows(0, 3, 5),
                                    Region::rows(3, 4, 5),
                                    Region::rows(4, 8, 5)};
  std::vector<Placed> pieces;
  for (const Region& r : regions) pieces.push_back({r, extract(t, r)});
  const Tensor rebuilt = stitch(t.shape(), pieces);
  EXPECT_FLOAT_EQ(Tensor::max_abs_diff(t, rebuilt), 0.0f);
}

TEST(Slice, StitchRejectsGaps) {
  const Tensor t = sequential({1, 4, 4});
  std::vector<Placed> pieces{{Region::rows(0, 2, 4),
                              extract(t, Region::rows(0, 2, 4))}};
  EXPECT_THROW(stitch(t.shape(), pieces), InvariantError);
}

TEST(Slice, StitchRejectsOverlaps) {
  const Tensor t = sequential({1, 4, 4});
  std::vector<Placed> pieces{
      {Region::rows(0, 3, 4), extract(t, Region::rows(0, 3, 4))},
      {Region::rows(2, 4, 4), extract(t, Region::rows(2, 4, 4))}};
  EXPECT_THROW(stitch(t.shape(), pieces), InvariantError);
}

TEST(Slice, StitchLenientAllowsOverlapAndGap) {
  std::vector<Placed> pieces{
      {Region::rows(0, 3, 2), Tensor({1, 3, 2}, 1.0f)},
      {Region::rows(2, 4, 2), Tensor({1, 2, 2}, 2.0f)}};
  const Tensor out = stitch_lenient({1, 6, 2}, pieces);
  EXPECT_FLOAT_EQ(out.at(0, 0, 0), 1.0f);
  EXPECT_FLOAT_EQ(out.at(0, 2, 0), 2.0f);  // later piece wins
  EXPECT_FLOAT_EQ(out.at(0, 5, 0), 0.0f);  // gap stays zero
}

TEST(Slice, VerticalSplitRoundTrip) {
  const Tensor t = sequential({2, 5, 9});
  std::vector<Placed> pieces{
      {{0, 5, 0, 4}, extract(t, {0, 5, 0, 4})},
      {{0, 5, 4, 9}, extract(t, {0, 5, 4, 9})}};
  const Tensor rebuilt = stitch(t.shape(), pieces);
  EXPECT_FLOAT_EQ(Tensor::max_abs_diff(t, rebuilt), 0.0f);
}

TEST(Tensor, UninitializedHasShapeAndTakesWrites) {
  Tensor t = Tensor::uninitialized({2, 3, 4});
  EXPECT_EQ(t.shape(), (Shape{2, 3, 4}));
  EXPECT_EQ(t.size(), 24);
  t.fill(1.5f);
  EXPECT_EQ(t.at(1, 2, 3), 1.5f);
  EXPECT_TRUE(Tensor::uninitialized({0, 0, 0}).empty());
}

TEST(Tensor, CopiesAreDeepAndExact) {
  Rng rng(3);
  Tensor a({3, 5, 7});
  a.randomize(rng);
  Tensor b(a);
  EXPECT_EQ(b.shape(), a.shape());
  EXPECT_FLOAT_EQ(Tensor::max_abs_diff(a, b), 0.0f);
  b.at(2, 4, 6) = 9.0f;
  EXPECT_NE(a.at(2, 4, 6), 9.0f);
  Tensor c({1, 1, 1});
  c = a;
  EXPECT_EQ(c.shape(), a.shape());
  EXPECT_FLOAT_EQ(Tensor::max_abs_diff(a, c), 0.0f);
  const Tensor& same = c;
  c = same;  // self-assignment keeps the contents
  EXPECT_FLOAT_EQ(Tensor::max_abs_diff(a, c), 0.0f);
}

std::vector<std::pair<std::size_t, std::size_t>> runs_of(
    const Shape& map, int channel_begin, int channels, const Region& region) {
  std::vector<std::pair<std::size_t, std::size_t>> runs;
  for_each_run(map, channel_begin, channels, region,
               [&](std::size_t offset, std::size_t floats) {
                 runs.emplace_back(offset, floats);
               });
  return runs;
}

TEST(Slice, RunsMergeAdjacentRows) {
  using Runs = std::vector<std::pair<std::size_t, std::size_t>>;
  const Shape map{3, 4, 5};
  // A whole map is one run; full-width rows are one run per channel.
  EXPECT_EQ(runs_of(map, 0, 3, Region::full(4, 5)), (Runs{{0, 60}}));
  EXPECT_EQ(runs_of(map, 0, 2, Region::rows(1, 3, 5)),
            (Runs{{5, 10}, {25, 10}}));
  // Partial width: one run per row; a channel offset shifts by planes.
  EXPECT_EQ(runs_of(map, 1, 1, {2, 4, 1, 3}), (Runs{{31, 2}, {36, 2}}));
  EXPECT_TRUE(runs_of(map, 0, 3, {2, 2, 0, 5}).empty());
}

TEST(Slice, RunsWalkExtractOrder) {
  const Tensor t = sequential({2, 6, 7});
  const Region region{1, 5, 2, 6};
  const Tensor piece = extract(t, region);
  std::vector<float> walked;
  for_each_run(t.shape(), 0, 2, region,
               [&](std::size_t offset, std::size_t floats) {
                 walked.insert(walked.end(), t.data().begin() +
                                                 static_cast<long>(offset),
                               t.data().begin() +
                                   static_cast<long>(offset + floats));
               });
  EXPECT_EQ(walked,
            std::vector<float>(piece.data().begin(), piece.data().end()));
}

TEST(Slice, RunsRejectPiecesOutsideTheMap) {
  const Shape map{2, 4, 4};
  EXPECT_THROW(runs_of(map, 0, 2, {0, 5, 0, 4}), InvariantError);
  EXPECT_THROW(runs_of(map, 1, 2, Region::full(4, 4)), InvariantError);
  EXPECT_THROW(runs_of(map, -1, 1, Region::full(4, 4)), InvariantError);
}

}  // namespace
}  // namespace pico
