// Overlapped feature-map split and stitch.
//
// The paper implements these by direct memory manipulation because framework
// slicing was too slow (§IV-D); here they are plain row-contiguous copies.
// `extract` copies a region (which may overlap with other devices' regions)
// out of a full map; `stitch` reassembles disjoint output regions into the
// full map.  `for_each_run` names the same rows without copying them, so the
// TCP transport can move a piece straight between the socket and the map.
#pragma once

#include <cstddef>
#include <vector>

#include "tensor/region.hpp"
#include "tensor/tensor.hpp"

namespace pico {

/// Copy `region` (must lie inside the map) from `source` into a new tensor of
/// shape {C, region.height, region.width}.
Tensor extract(const Tensor& source, const Region& region);

/// A piece of a larger feature map: the tensor plus where it belongs.
struct Placed {
  Region region;  ///< location in the full map; extents match tensor shape
  Tensor tensor;
};

/// Assemble pieces into a map of `full_shape`.  Pieces must lie inside the
/// map and tile it exactly (no gaps, no overlaps) — the postcondition of a
/// correct output partition.
Tensor stitch(const Shape& full_shape, const std::vector<Placed>& pieces);

/// Throws unless channels [channel_begin, channel_begin + channels) and
/// `region` both lie inside `map`.
void check_piece(const Shape& map, int channel_begin, int channels,
                 const Region& region);

/// Calls `fn(offset, floats)` for every contiguous run of the piece
/// channels [channel_begin, channel_begin + channels) × `region` inside a
/// CHW map of shape `map`; `offset` counts floats from the map's start.
/// Runs come in CHW order — the order extract() lays the piece out and the
/// order the wire carries it — and adjacent runs are merged: a full-width
/// region is one run per channel, a whole map one run.
template <typename Fn>
void for_each_run(const Shape& map, int channel_begin, int channels,
                  const Region& region, Fn&& fn) {
  check_piece(map, channel_begin, channels, region);
  if (region.empty() || channels == 0) return;
  const auto width = static_cast<std::size_t>(map.width);
  const auto run = static_cast<std::size_t>(region.width());
  std::size_t start = 0;
  std::size_t length = 0;
  for (int c = channel_begin; c < channel_begin + channels; ++c) {
    for (int y = region.row_begin; y < region.row_end; ++y) {
      const std::size_t offset =
          (static_cast<std::size_t>(c) * static_cast<std::size_t>(map.height) +
           static_cast<std::size_t>(y)) *
              width +
          static_cast<std::size_t>(region.col_begin);
      if (length > 0 && start + length == offset) {
        length += run;
        continue;
      }
      if (length > 0) fn(start, length);
      start = offset;
      length = run;
    }
  }
  fn(start, length);
}

/// Like stitch but tolerates overlapping pieces (later pieces win) and gaps
/// (left zero).  Used by diagnostics, not by the runtime hot path.
Tensor stitch_lenient(const Shape& full_shape,
                      const std::vector<Placed>& pieces);

}  // namespace pico
