#include "tensor/slice.hpp"

#include <cstring>

#include "common/error.hpp"

namespace pico {

namespace {

void copy_region_rows(const Tensor& src, const Region& src_region,
                      Tensor& dst, const Region& dst_region) {
  PICO_CHECK(src_region.height() == dst_region.height() &&
             src_region.width() == dst_region.width());
  PICO_CHECK(src.shape().channels == dst.shape().channels);
  const int run = src_region.width();
  for (int c = 0; c < src.shape().channels; ++c) {
    for (int dy = 0; dy < src_region.height(); ++dy) {
      const float* from =
          &src.at(c, src_region.row_begin + dy, src_region.col_begin);
      float* to = &dst.at(c, dst_region.row_begin + dy, dst_region.col_begin);
      std::memcpy(to, from, sizeof(float) * static_cast<std::size_t>(run));
    }
  }
}

}  // namespace

void check_piece(const Shape& map, int channel_begin, int channels,
                 const Region& region) {
  PICO_CHECK_MSG(channel_begin >= 0 && channels >= 0 &&
                     channel_begin <= map.channels - channels,
                 "channels [" << channel_begin << ", +" << channels
                              << ") outside map " << map);
  PICO_CHECK_MSG(Region::full(map.height, map.width).contains(region),
                 "piece region " << region << " outside map " << map);
}

Tensor extract(const Tensor& source, const Region& region) {
  const Region map = Region::full(source.shape().height,
                                  source.shape().width);
  PICO_CHECK_MSG(map.contains(region),
                 "extract region " << region << " outside map " << map);
  Tensor out({source.shape().channels, region.height(), region.width()});
  copy_region_rows(source, region, out,
                   Region::full(region.height(), region.width()));
  return out;
}

Tensor stitch(const Shape& full_shape, const std::vector<Placed>& pieces) {
  const Region whole = Region::full(full_shape.height, full_shape.width);
  std::vector<Region> regions;
  regions.reserve(pieces.size());
  for (const auto& piece : pieces) regions.push_back(piece.region);
  PICO_CHECK_MSG(tiles_exactly(whole, regions),
                 "stitch pieces do not tile the full map exactly");
  return stitch_lenient(full_shape, pieces);
}

Tensor stitch_lenient(const Shape& full_shape,
                      const std::vector<Placed>& pieces) {
  Tensor out(full_shape);
  const Region whole = Region::full(full_shape.height, full_shape.width);
  for (const auto& piece : pieces) {
    if (piece.region.empty()) continue;
    PICO_CHECK_MSG(whole.contains(piece.region),
                   "piece " << piece.region << " outside map " << whole);
    PICO_CHECK(piece.tensor.shape().channels == full_shape.channels &&
               piece.tensor.shape().height == piece.region.height() &&
               piece.tensor.shape().width == piece.region.width());
    copy_region_rows(piece.tensor,
                     Region::full(piece.region.height(), piece.region.width()),
                     out, piece.region);
  }
  return out;
}

}  // namespace pico
