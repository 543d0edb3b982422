// Reference convolution and pooling for the kernel tests: textbook direct
// loops, serial, one output scalar at a time.
//
// It accumulates over (ic, ky, kx) ascending from 0, adds the bias last and
// then applies the fused ReLU: the order nn::compute_node keeps for every
// output scalar.  It skips taps that fall in the zero padding instead of
// adding a zero product; compare its results with float ==, which holds
// even where two sums differ only in the sign of zero.
#pragma once

#include <algorithm>
#include <cstddef>
#include <limits>

#include "nn/graph.hpp"
#include "tensor/slice.hpp"

namespace pico {

/// `out_region` of conv node `node`, from `in`, a piece of its input map
/// that covers nn::input_region(graph, node.id, out_region).
inline Tensor conv_oracle(const nn::Node& node, const Placed& in,
                          const Region& out_region) {
  const Shape in_shape = node.in_shape;
  const int kh = node.win.kh, kw = node.win.kw;
  const int sh = node.win.sh, sw = node.win.sw;
  const int ph = node.win.ph, pw = node.win.pw;
  const int icpg = in_shape.channels / node.groups;
  const int ocpg = node.out_channels / node.groups;
  const long long kernel_plane = static_cast<long long>(kh) * kw;

  Tensor out({node.out_channels, out_region.height(), out_region.width()});
  for (int oc = 0; oc < node.out_channels; ++oc) {
    const int ic_base = (oc / ocpg) * icpg;
    const float* w_oc = node.weights.data() + oc * kernel_plane * icpg;
    for (int oy = out_region.row_begin; oy < out_region.row_end; ++oy) {
      for (int ox = out_region.col_begin; ox < out_region.col_end; ++ox) {
        float acc = 0.0f;
        for (int local = 0; local < icpg; ++local) {
          for (int ky = 0; ky < kh; ++ky) {
            const int iy = oy * sh - ph + ky;
            if (iy < 0 || iy >= in_shape.height) continue;
            for (int kx = 0; kx < kw; ++kx) {
              const int ix = ox * sw - pw + kx;
              if (ix < 0 || ix >= in_shape.width) continue;
              acc += w_oc[local * kernel_plane + ky * kw + kx] *
                     in.tensor.at(ic_base + local, iy - in.region.row_begin,
                                  ix - in.region.col_begin);
            }
          }
        }
        acc += node.bias[static_cast<std::size_t>(oc)];
        if (node.fused_relu && acc < 0.0f) acc = 0.0f;
        out.at(oc, oy - out_region.row_begin, ox - out_region.col_begin) =
            acc;
      }
    }
  }
  return out;
}

/// `out_region` of max- or average-pool node `node`, from `in`: every tap
/// tested against the map border, max and sum both folded in (ky, kx)
/// order, the average divided by the in-map tap count.  The served pool
/// must match it bit for bit.
inline Tensor pool_oracle(const nn::Node& node, const Placed& in,
                          const Region& out_region) {
  const Shape in_shape = node.in_shape;
  const bool is_max = node.kind == nn::OpKind::MaxPool;
  const int kh = node.win.kh, kw = node.win.kw;
  const int sh = node.win.sh, sw = node.win.sw;
  const int ph = node.win.ph, pw = node.win.pw;

  Tensor out({in_shape.channels, out_region.height(), out_region.width()});
  for (int c = 0; c < in_shape.channels; ++c) {
    for (int oy = out_region.row_begin; oy < out_region.row_end; ++oy) {
      const int iy0 = oy * sh - ph;
      for (int ox = out_region.col_begin; ox < out_region.col_end; ++ox) {
        const int ix0 = ox * sw - pw;
        float best = -std::numeric_limits<float>::infinity();
        float sum = 0.0f;
        int taps = 0;
        for (int ky = 0; ky < kh; ++ky) {
          const int iy = iy0 + ky;
          if (iy < 0 || iy >= in_shape.height) continue;
          for (int kx = 0; kx < kw; ++kx) {
            const int ix = ix0 + kx;
            if (ix < 0 || ix >= in_shape.width) continue;
            const float v = in.tensor.at(c, iy - in.region.row_begin,
                                         ix - in.region.col_begin);
            best = std::max(best, v);
            sum += v;
            ++taps;
          }
        }
        out.at(c, oy - out_region.row_begin, ox - out_region.col_begin) =
            is_max ? best : sum / static_cast<float>(taps);
      }
    }
  }
  return out;
}

}  // namespace pico
