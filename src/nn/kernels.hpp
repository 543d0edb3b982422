// Region-aware operator kernels.
//
// Every kernel computes `out_region` (in full-output-map coordinates) of one
// node's output, reading from input pieces that each carry their own
// full-map region.  Zero padding is applied only at true map borders — a
// piece in the middle of the map never sees padding, which is exactly the
// subtlety that makes naive "pad every tile" distributed convolution wrong.
//
// The single-device executor is the special case out_region == full map, so
// distributed and local inference share one arithmetic path and their
// results agree bit-for-bit.
//
// Intra-device parallelism: conv, pool and the elementwise kernels cut
// `out_region` × channels into at most one slab per thread on the shared
// ThreadPool (common/thread_pool.hpp).  The shape picks the axis: row strips
// when every thread gets at least 64 output pixels, else output-channel
// blocks (whole 8-channel panels for conv), so a 2x2 map still gets every
// thread and each streams only its share of the weights.
//
// Conv is a matrix product over an input-patch matrix (im2col; a stride-1,
// unpadded 1x1 conv reads its input in place).  It runs as 8-output-channel
// register tiles whose eight weight rows are read in place: no packed copy
// of the weights.  A call's patch matrices total at most 1 MB (channel
// blocks share one).  Depthwise convs have their own direct loop; pools
// clip the padding off each window and walk input rows.
//
// Two tile widths, picked at run time (nn/kernels_detail.hpp): on an x86-64
// CPU with AVX2 (__builtin_cpu_supports, checked once) every full 8-pixel
// tile runs on 32-byte vectors and each tail of fewer than 8 pixels, such
// as a whole 2x2 map, on 4-pixel tiles; any other CPU runs 4-pixel tiles
// on 16-byte vectors.  The AVX2 code comes from per-function
// target("avx2") attributes only: no -march, -mavx2 or -mfma anywhere, so
// the library runs on any x86-64 and builds for aarch64.
//
// Every output scalar is produced by exactly one slab in one fixed order —
// acc = 0, then acc += w[k] * x[k] for k ascending over (ic, ky, kx), then
// + bias, then the fused ReLU — with each product and sum rounded on its
// own: vector lanes are independent output pixels, never k, and pico_nn is
// built with -ffp-contract=off and without -ffast-math, so no multiply-add
// is fused.  A lane does the same IEEE operation at 4 or 8 lanes, so both
// tile widths give the same bytes.  Results are therefore bit-identical
// for every thread count, split, region and ISA path: parallelism and
// vector width change wall time, never arithmetic.
#pragma once

#include <span>

#include "nn/graph.hpp"
#include "tensor/slice.hpp"

namespace pico::nn {

/// Per-invocation execution knobs, threaded from the runtime worker /
/// executor down into the kernels.
struct ExecOptions {
  /// Upper bound on intra-device threads for one kernel invocation.
  /// 0 = process default (the PICO_THREADS environment variable when set,
  /// else hardware concurrency); 1 = fully serial.  Results are identical
  /// for every value.
  int threads = 0;
};

/// Compute `out_region` of node `node`'s output.  `inputs[k]` is the piece of
/// node.inputs[k]'s output map the caller holds; it must cover the region
/// input_region(graph, node.id, out_region, k).
/// Returns a tensor of shape {out_channels, out_region.height, width}.
Tensor compute_node(const Node& node, std::span<const Placed> inputs,
                    const Region& out_region,
                    const ExecOptions& options = {});

}  // namespace pico::nn
