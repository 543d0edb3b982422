#include "nn/kernels.hpp"

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstring>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "nn/kernels_detail.hpp"
#include "obs/trace.hpp"

namespace pico::nn {

namespace {

void check_piece_covers(const Node& node, const Placed& piece,
                        const Region& needed) {
  PICO_CHECK_MSG(piece.region.contains(needed),
                 "node " << node.name << ": input piece " << piece.region
                         << " does not cover needed region " << needed);
  PICO_CHECK(piece.tensor.shape().height == piece.region.height() &&
             piece.tensor.shape().width == piece.region.width());
}

int resolve_threads(const ExecOptions& options) {
  if (options.threads > 0) {
    return std::min(options.threads, ThreadPool::kMaxThreads);
  }
  return ThreadPool::global().parallelism();
}

/// An output row strip at full `out_region` width times the channel block
/// [c_begin, c_end): one task of parallel_slabs.
struct Slab {
  Region rows;
  int c_begin = 0;
  int c_end = 0;
};

/// A row strip narrower than this many output pixels does too little work
/// to repay streaming the node's weights once more, so such maps split by
/// channel instead.
constexpr long long kMinStripPixels = 64;

/// Cut `out_region` × `channels` into at most resolve_threads(options)
/// disjoint slabs.  The shape picks the axis: equal-height row strips when
/// every thread gets a strip of at least kMinStripPixels pixels, else
/// channel blocks (whole multiples of `channel_align`, the last one possibly
/// short) when they give at least as many tasks as rows do.
std::vector<Slab> plan_slabs(const Region& out_region, int channels,
                             int channel_align, const ExecOptions& options) {
  const int threads = resolve_threads(options);
  const int rows = out_region.height();
  const int row_parts = std::max(1, std::min(threads, rows));
  const int units = (channels + channel_align - 1) / channel_align;
  const int channel_parts = std::max(1, std::min(threads, units));
  const bool wide_strips =
      static_cast<long long>(rows / row_parts) * out_region.width() >=
      kMinStripPixels;
  const bool by_rows =
      (row_parts == threads && wide_strips) || row_parts > channel_parts;
  const int parts = by_rows ? row_parts : channel_parts;
  const int total = by_rows ? rows : units;
  const int base = total / parts, extra = total % parts;
  std::vector<Slab> slabs(static_cast<std::size_t>(parts));
  int begin = 0;
  for (int s = 0; s < parts; ++s) {
    const int end = begin + base + (s < extra ? 1 : 0);
    slabs[static_cast<std::size_t>(s)] =
        by_rows ? Slab{Region{out_region.row_begin + begin,
                              out_region.row_begin + end,
                              out_region.col_begin, out_region.col_end},
                       0, channels}
                : Slab{out_region, begin * channel_align,
                       std::min(channels, end * channel_align)};
    begin = end;
  }
  return slabs;
}

/// Run `body` over every slab on the shared pool (inline for one slab).
/// Slabs write disjoint outputs and every output scalar keeps the serial
/// accumulation order, so the result is bit-identical for any split.  Each
/// slab is traced as one `span_name` span (category "kernel") when tracing
/// is on.
void run_slabs(const std::vector<Slab>& slabs, const char* span_name,
               const std::function<void(const Slab&)>& body) {
  if (slabs.size() == 1) {
    obs::Span span(span_name, "kernel", obs::kernel_track(0));
    body(slabs[0]);
    return;
  }
  ThreadPool::global().parallel_for(static_cast<int>(slabs.size()),
                                    [&](int s) {
    obs::Span span(span_name, "kernel", obs::kernel_track(s));
    body(slabs[static_cast<std::size_t>(s)]);
  });
}

void parallel_slabs(const Region& out_region, int channels, int channel_align,
                    const ExecOptions& options, const char* span_name,
                    const std::function<void(const Slab&)>& body) {
  run_slabs(plan_slabs(out_region, channels, channel_align, options),
            span_name, body);
}

/// Patch-matrix floats one conv call may hold at once (1 MB): the one
/// matrix channel blocks share, or the sum of the row strips' own ones.
/// A block is never less than one output row.
constexpr long long kColBudget = 256 * 1024;

/// Output channels per weight panel; conv's channel blocks are whole
/// panels.
constexpr int kOcPanel = 8;
/// Output pixels per register tile on the baseline path: one 16-byte
/// vector.
constexpr int kPixelLanes = 4;

/// Four float lanes.  Each lane is an independent output pixel, so a
/// vector multiply or add is exactly the scalar operation done four times.
typedef float Lanes __attribute__((vector_size(kPixelLanes * sizeof(float))));

/// The first L floats at `p`, the other lanes zero.
template <int L>
Lanes load_lanes(const float* p) {
  Lanes v{};
  std::memcpy(&v, p, L * sizeof(float));
  return v;
}

/// One conv matrix-product tile on vector type V: R output channels × L
/// output pixels (L at most V's lanes).
///   out[r][n] = act(sum_k w[r][k] * b[k][n] + bias[r])
/// with k ascending from an accumulator of 0, the bias added last, then the
/// fused ReLU: per lane the same float operations, in the same order, as
/// the direct loop, whatever the width of V.  The multiply and the add stay
/// separate instructions (no FMA; nn is built with -ffp-contract=off).
/// `w` holds R weight rows of K floats read in place, `b` row k of the
/// input-patch matrix at b + k * ldb, and `out` row r at out + r * ldo.
/// Always inlined, so that a wide instance is compiled with the ISA of the
/// AVX2 function that calls it.
template <typename V, int R, int L>
[[gnu::always_inline]] inline void conv_tile(const float* w,
                                             long long k_count,
                                             const float* b, long long ldb,
                                             float* out, long long ldo,
                                             const float* bias, bool relu) {
  V acc[R];
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r) acc[r] = V{};
  for (long long k = 0; k < k_count; ++k) {
    V x{};
    std::memcpy(&x, b + k * ldb, L * sizeof(float));
#pragma GCC unroll 8
    for (int r = 0; r < R; ++r) acc[r] += w[r * k_count + k] * x;
  }
  const V zero{};
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r) {
    V v = acc[r] + bias[r];
    if (relu) v = v > zero ? v : zero;
    std::memcpy(out + r * ldo, &v, L * sizeof(float));
  }
}

using ConvTileFn = void (*)(const float*, long long, const float*, long long,
                            float*, long long, const float*, bool);
/// Tiles of one pixel width by channel count: row[R - 1] has R channels.
using TileRow = std::array<ConvTileFn, kOcPanel>;

/// conv_tile instances compiled for the baseline target.
struct BaselineIsa {
  template <typename V, int R, int L>
  static void tile(const float* w, long long k_count, const float* b,
                   long long ldb, float* out, long long ldo,
                   const float* bias, bool relu) {
    conv_tile<V, R, L>(w, k_count, b, ldb, out, ldo, bias, relu);
  }
};

template <typename Isa, typename V, int L, std::size_t... R>
constexpr TileRow tile_row(std::index_sequence<R...>) {
  return {&Isa::template tile<V, static_cast<int>(R) + 1, L>...};
}

template <typename Isa, typename V, int L>
constexpr TileRow tile_row() {
  return tile_row<Isa, V, L>(std::make_index_sequence<kOcPanel>{});
}

/// narrow_tiles<Isa>[L - 1][R - 1] computes an R-channel × L-pixel tile on
/// 4-lane vectors, compiled for Isa.
template <typename Isa>
constexpr std::array<TileRow, kPixelLanes> narrow_tiles{
    tile_row<Isa, Lanes, 1>(), tile_row<Isa, Lanes, 2>(),
    tile_row<Isa, Lanes, 3>(), tile_row<Isa, Lanes, 4>()};

/// Pixels [n_begin, n) of one `rows`-channel weight panel on 4-pixel tiles.
void narrow_sweep(const std::array<TileRow, kPixelLanes>& tiles, int rows,
                  const float* w, long long k_count, const float* b,
                  long long ldb, long long n_begin, long long n, float* out,
                  long long ldo, const float* bias, bool relu) {
  for (long long n0 = n_begin; n0 < n; n0 += kPixelLanes) {
    const int lanes =
        static_cast<int>(std::min<long long>(kPixelLanes, n - n0));
    tiles[static_cast<std::size_t>(lanes - 1)]
         [static_cast<std::size_t>(rows - 1)](w, k_count, b + n0, ldb,
                                              out + n0, ldo, bias, relu);
  }
}

#if PICO_NN_AVX2_TILES
/// Output pixels per wide register tile: one 32-byte vector.
constexpr int kWideLanes = 8;

/// Eight float lanes; only AVX2 functions hold or pass one.
typedef float WideLanes
    __attribute__((vector_size(kWideLanes * sizeof(float))));

/// conv_tile instances compiled for AVX2 (without FMA).  Even a 4-lane
/// tile gains: a weight broadcast is then one load, not a load and a
/// shuffle.
struct Avx2Isa {
  template <typename V, int R, int L>
  __attribute__((target("avx2"))) static void tile(
      const float* w, long long k_count, const float* b, long long ldb,
      float* out, long long ldo, const float* bias, bool relu) {
    conv_tile<V, R, L>(w, k_count, b, ldb, out, ldo, bias, relu);
  }
};

/// kWideTiles[R - 1] computes an R-channel × 8-pixel tile.
constexpr TileRow kWideTiles = tile_row<Avx2Isa, WideLanes, kWideLanes>();
#endif

/// Depthwise convolution (one input and one output channel per group):
/// each output is a kh*kw-tap sum over its own channel, so there is no
/// matrix product to build.  Per channel the slab copies the input window
/// it reads into `window`, zeros in the padding, with column phases split
/// out (phase p holds columns p, p + sw, p + 2sw, ...), so that tap kx of
/// output columns ox..ox+3 is four adjacent floats at any stride.  Each
/// output then sums its taps with k = (ky, kx) ascending from 0, adds the
/// bias and applies the ReLU in the store, as conv_tile does.  A padded tap
/// adds w * 0: the accumulator starts at +0 and a float sum never turns +0
/// into -0, so that changes no bit against skipping the tap.
void depthwise_conv(const Node& node, const Placed& in,
                    const Region& out_region, const ExecOptions& options,
                    Tensor& out) {
  const Shape in_shape = node.in_shape;
  const int kh = node.win.kh, kw = node.win.kw;
  const int sh = node.win.sh, sw = node.win.sw;
  const int ph = node.win.ph, pw = node.win.pw;
  const int width = out_region.width();
  const int phases = std::min(sw, kw);
  // Floats per phase row: every output column's taps, plus tail lanes.
  const int phase_len = width + (kw - 1) / sw + kPixelLanes - 1;
  const int ix0 = out_region.col_begin * sw - pw;
  const long long in_width = in.region.width();
  // Phase p's entries j in [first, second) are in the map, and needed;
  // the rest are padding or unused tail lanes.
  const int needed = (width - 1) * sw + kw;
  std::vector<std::pair<int, int>> phase_columns;
  for (int p = 0; p < phases; ++p) {
    // Entry j reads input column ix0 + p + j * sw of window column
    // p + j * sw.
    const auto count_below = [&](int limit) {  // #j with p + j * sw < limit
      return limit > p ? std::min(phase_len, (limit - p + sw - 1) / sw) : 0;
    };
    const int end =
        std::min(count_below(in_shape.width - ix0), count_below(needed));
    phase_columns.emplace_back(std::min(count_below(-ix0), end), end);
  }
  // Where tap k = (ky, kx) of output column 0 sits in an output row's
  // window.
  std::vector<long long> tap_offsets;
  for (int ky = 0; ky < kh; ++ky) {
    for (int kx = 0; kx < kw; ++kx) {
      tap_offsets.push_back((static_cast<long long>(ky) * phases + kx % sw) *
                                phase_len +
                            kx / sw);
    }
  }
  // Every slab's window, allocated here so that pool threads allocate
  // nothing; the first slab is the tallest.
  const std::vector<Slab> slabs =
      plan_slabs(out_region, node.out_channels, 1, options);
  const long long window_floats =
      static_cast<long long>((slabs[0].rows.height() - 1) * sh + kh) *
      phases * phase_len;
  std::vector<float> windows(static_cast<std::size_t>(
      window_floats * static_cast<long long>(slabs.size())));
  const Lanes zero{};

  run_slabs(slabs, "conv_depthwise", [&](const Slab& slab) {
    const Region& rows = slab.rows;
    const int window_rows = (rows.height() - 1) * sh + kh;
    const int iy0 = rows.row_begin * sh - ph;
    float* const window =
        windows.data() + (&slab - slabs.data()) * window_floats;
    for (int c = slab.c_begin; c < slab.c_end; ++c) {
      const float* in_channel = in.tensor.channel(c);
      float* dst = window;
      for (int wy = 0; wy < window_rows; ++wy) {
        const int iy = iy0 + wy;
        if (iy < 0 || iy >= in_shape.height) {
          dst = std::fill_n(dst, phases * phase_len, 0.0f);
          continue;
        }
        const float* in_row = in_channel +
                              (iy - in.region.row_begin) * in_width -
                              in.region.col_begin;
        for (int p = 0; p < phases; ++p) {
          const auto [j_begin, j_end] =
              phase_columns[static_cast<std::size_t>(p)];
          const float* src =
              in_row + ix0 + p + static_cast<std::ptrdiff_t>(j_begin) * sw;
          dst = std::fill_n(dst, j_begin, 0.0f);
          for (int j = j_begin; j < j_end; ++j, src += sw) *dst++ = *src;
          dst = std::fill_n(dst, phase_len - j_end, 0.0f);
        }
      }
      const float* w =
          node.weights.data() + static_cast<long long>(c) * kh * kw;
      const float bias = node.bias[static_cast<std::size_t>(c)];
      // Bias, then ReLU, then the first `lanes` lanes to `dst`.
      const auto store = [&](Lanes acc, float* dst, int lanes) {
        Lanes v = acc + bias;
        if (node.fused_relu) v = v > zero ? v : zero;
        std::memcpy(dst, &v, static_cast<std::size_t>(lanes) * sizeof(float));
      };
      for (int oy = rows.row_begin; oy < rows.row_end; ++oy) {
        const float* window_row =
            window +
            static_cast<long long>(oy - rows.row_begin) * sh * phases *
                phase_len;
        float* out_row = &out.at(c, oy - out_region.row_begin, 0);
        // Two register tiles per pass share each tap's weight broadcast.
        int ox = 0;
        for (; ox + 2 * kPixelLanes <= width; ox += 2 * kPixelLanes) {
          Lanes acc0{}, acc1{};
          for (std::size_t k = 0; k < tap_offsets.size(); ++k) {
            const float* taps = window_row + ox + tap_offsets[k];
            acc0 += w[k] * load_lanes<kPixelLanes>(taps);
            acc1 += w[k] * load_lanes<kPixelLanes>(taps + kPixelLanes);
          }
          store(acc0, out_row + ox, kPixelLanes);
          store(acc1, out_row + ox + kPixelLanes, kPixelLanes);
        }
        for (; ox < width; ox += kPixelLanes) {
          Lanes acc{};
          for (std::size_t k = 0; k < tap_offsets.size(); ++k) {
            acc += w[k] *
                   load_lanes<kPixelLanes>(window_row + ox + tap_offsets[k]);
          }
          store(acc, out_row + ox, std::min(kPixelLanes, width - ox));
        }
      }
    }
  });
}

}  // namespace

namespace detail {

/// out[oc][n] for `oc_count` channels and `n` pixels, as a grid of
/// register tiles: weight panels of kOcPanel rows in the outer loop, so one
/// panel stays in cache while it sweeps every pixel of the block.
void conv_gemm_baseline(const float* w, long long k_count, const float* b,
                        long long ldb, long long n, float* out, long long ldo,
                        int oc_count, const float* bias, bool relu) {
  for (int r0 = 0; r0 < oc_count; r0 += kOcPanel) {
    narrow_sweep(narrow_tiles<BaselineIsa>, std::min(kOcPanel, oc_count - r0),
                 w + r0 * k_count, k_count, b, ldb, 0, n, out + r0 * ldo, ldo,
                 bias + r0, relu);
  }
}

#if PICO_NN_AVX2_TILES
/// conv_gemm_baseline's grid with every full 8-pixel tile on 32-byte
/// vectors; each panel's pixel tail, under 8, takes 4-pixel tiles.
__attribute__((target("avx2"))) void conv_gemm_avx2(
    const float* w, long long k_count, const float* b, long long ldb,
    long long n, float* out, long long ldo, int oc_count, const float* bias,
    bool relu) {
  const long long wide_n = n - n % kWideLanes;
  for (int r0 = 0; r0 < oc_count; r0 += kOcPanel) {
    const int rows = std::min(kOcPanel, oc_count - r0);
    for (long long n0 = 0; n0 < wide_n; n0 += kWideLanes) {
      kWideTiles[static_cast<std::size_t>(rows - 1)](
          w + r0 * k_count, k_count, b + n0, ldb, out + r0 * ldo + n0, ldo,
          bias + r0, relu);
    }
    narrow_sweep(narrow_tiles<Avx2Isa>, rows, w + r0 * k_count, k_count, b,
                 ldb, wide_n, n, out + r0 * ldo, ldo, bias + r0, relu);
  }
}
#endif

bool cpu_has_avx2() {
#if PICO_NN_AVX2_TILES
  static const bool has = __builtin_cpu_supports("avx2");
  return has;
#else
  return false;
#endif
}

ConvGemmFn served_conv_gemm() {
#if PICO_NN_AVX2_TILES
  if (cpu_has_avx2()) return conv_gemm_avx2;
#endif
  return conv_gemm_baseline;
}

const char* conv_isa() { return cpu_has_avx2() ? "avx2" : "baseline"; }

/// Convolution as a matrix product over an input-patch ("col") matrix.
///
/// Each parallel slab processes its rows in blocks small enough that the
/// patch matrix (K = ic*kh*kw rows by N = block area columns) stays in
/// cache while every weight panel of the slab sweeps it.  For each block
/// and group:
///   col[k][n] = input value (or 0 in padding) of tap k for output pixel n
///   out[oc][n] = act(sum_k w[oc][k] * col[k][n] + bias[oc])   (conv_tile)
/// A stride-1, unpadded 1x1 conv's patch matrix is its input, so it reads
/// the input piece in place: row k is channel k's plane over the block.
///
/// The calling thread allocates every slab's col buffer once per call,
/// sized for the widest block (no per-group reallocation churn), and all
/// patch-matrix extents are 64-bit: a single-row region can legally be wide
/// enough that kernel_volume * n overflows int.
Tensor conv(const Node& node, const Placed& in, const Region& out_region,
            const ExecOptions& options, ConvGemmFn gemm) {
  const Shape in_shape = node.in_shape;
  const int oc_count = node.out_channels;
  const int ic_count = in_shape.channels;
  const int kh = node.win.kh, kw = node.win.kw;
  const int sh = node.win.sh, sw = node.win.sw;
  const int ph = node.win.ph, pw = node.win.pw;
  const int icpg = ic_count / node.groups;  // channels per group
  const int ocpg = oc_count / node.groups;
  const long long kernel_volume = static_cast<long long>(icpg) * kh * kw;
  const bool pointwise = kh == 1 && kw == 1 && sh == 1 && sw == 1 &&
                         ph == 0 && pw == 0;
  // In place, consecutive output rows are consecutive input rows only when
  // the piece is exactly as wide as the region.
  const bool rows_abut = in.region.col_begin == out_region.col_begin &&
                         in.region.col_end == out_region.col_end;
  const long long in_width = in.region.width();
  const long long in_plane = in.region.area();

  Tensor out({oc_count, out_region.height(), out_region.width()});
  const long long out_plane = out_region.area();
  const long long width = out_region.width();

  // Rows per block so that a patch matrix of `volume` rows stays under
  // `budget` floats, capped at `rows`.
  const auto rows_per_block = [&](long long budget, long long volume,
                                  int rows) {
    return static_cast<int>(
        std::clamp<long long>(budget / (volume * width), 1, rows));
  };
  // Fill group `group`'s patch matrix for output rows [row_begin, row_end)
  // into `col`, one (ic, ky, kx) tap row at a time; each is a strided copy
  // of input row segments, contiguous over output columns.
  const auto fill_patches = [&](int group, int row_begin, int row_end,
                                float* col) {
    for (int local = 0; local < icpg; ++local) {
      const float* in_channel = in.tensor.channel(group * icpg + local);
      for (int ky = 0; ky < kh; ++ky) {
        for (int kx = 0; kx < kw; ++kx) {
          for (int oy = row_begin; oy < row_end; ++oy) {
            const int iy = oy * sh - ph + ky;
            if (iy < 0 || iy >= in_shape.height) {
              col = std::fill_n(col, width, 0.0f);
              continue;
            }
            const float* in_row = in_channel +
                                  (iy - in.region.row_begin) * in_width -
                                  in.region.col_begin;
            for (int ox = out_region.col_begin; ox < out_region.col_end;
                 ++ox) {
              const int ix = ox * sw - pw + kx;
              *col++ = ix >= 0 && ix < in_shape.width ? in_row[ix] : 0.0f;
            }
          }
        }
      }
    }
  };
  // The slab's output channels of `group` over rows [row_begin, row_end),
  // from that group's patch matrix (row k at patches + k * ldb).
  const auto multiply = [&](const Slab& slab, int group, int row_begin,
                            int row_end, const float* patches,
                            long long ldb) {
    const int oc_begin = std::max(slab.c_begin, group * ocpg);
    const int oc_end = std::min(slab.c_end, (group + 1) * ocpg);
    gemm(node.weights.data() + oc_begin * kernel_volume, kernel_volume,
         patches, ldb, (row_end - row_begin) * width,
         &out.at(oc_begin, row_begin - out_region.row_begin, 0), out_plane,
         oc_end - oc_begin, node.bias.data() + oc_begin, node.fused_relu);
  };
  const auto first_group = [&](const Slab& slab) {
    return slab.c_begin / ocpg;
  };
  const auto last_group = [&](const Slab& slab) {
    return (slab.c_end - 1) / ocpg;
  };

  if (node.groups == ic_count && node.groups == oc_count) {
    depthwise_conv(node, in, out_region, options, out);
    return out;
  }

  const std::vector<Slab> slabs =
      plan_slabs(out_region, oc_count, kOcPanel, options);
  if (!pointwise && slabs.size() > 1 && slabs[0].c_end < oc_count) {
    // Channel blocks all cover every row: rather than each building the
    // same patch matrix, they share one per row block, filled by the
    // calling thread.
    const int block_rows = rows_per_block(
        kColBudget, kernel_volume * node.groups, out_region.height());
    std::vector<float> col(static_cast<std::size_t>(
        kernel_volume * node.groups * block_rows * width));
    for (int block_begin = out_region.row_begin;
         block_begin < out_region.row_end; block_begin += block_rows) {
      const int block_end =
          std::min(block_begin + block_rows, out_region.row_end);
      const long long n = (block_end - block_begin) * width;
      for (int group = 0; group < node.groups; ++group) {
        fill_patches(group, block_begin, block_end,
                     col.data() + group * kernel_volume * n);
      }
      run_slabs(slabs, "conv", [&](const Slab& slab) {
        for (int group = first_group(slab); group <= last_group(slab);
             ++group) {
          multiply(slab, group, block_begin, block_end,
                   col.data() + group * kernel_volume * n, n);
        }
      });
    }
    return out;
  }

  // Row strips split the budget.  A 1x1 conv reads its input in place, one
  // row per block unless the rows abut.  Every strip's patch matrix is
  // allocated here so that pool threads allocate nothing; the first strip
  // is the tallest.
  const int slab_rows =
      pointwise && !rows_abut
          ? 1
          : rows_per_block(kColBudget / static_cast<long long>(slabs.size()),
                           kernel_volume, slabs[0].rows.height());
  const long long slab_floats =
      pointwise ? 0 : kernel_volume * slab_rows * width;
  std::vector<float> cols(static_cast<std::size_t>(
      slab_floats * static_cast<long long>(slabs.size())));
  run_slabs(slabs, "conv", [&](const Slab& slab) {
    const Region& strip = slab.rows;
    const int block_rows = std::min(slab_rows, strip.height());
    float* const col = cols.data() + (&slab - slabs.data()) * slab_floats;
    for (int block_begin = strip.row_begin; block_begin < strip.row_end;
         block_begin += block_rows) {
      const int block_end = std::min(block_begin + block_rows, strip.row_end);
      for (int group = first_group(slab); group <= last_group(slab);
           ++group) {
        if (pointwise) {
          multiply(slab, group, block_begin, block_end,
                   in.tensor.channel(group * icpg) +
                       (block_begin - in.region.row_begin) * in_width +
                       (out_region.col_begin - in.region.col_begin),
                   in_plane);
        } else {
          fill_patches(group, block_begin, block_end, col);
          multiply(slab, group, block_begin, block_end, col,
                   (block_end - block_begin) * width);
        }
      }
    }
  });
  return out;
}

}  // namespace detail

namespace {

/// Kernel taps [begin, end) along one axis whose input coordinate
/// origin + tap lies in [0, extent): the window minus the padding.
std::pair<int, int> taps_in_map(int origin, int kernel, int extent) {
  return {std::max(0, -origin), std::min(kernel, extent - origin)};
}

/// Pooling: each output folds `reduce` over its window's in-map taps in
/// (ky, kx) order from `init`, then `finish(acc, taps)` gives the value.
/// Each window's tap ranges are clipped to the map once, so the taps
/// themselves are read along input row pointers without a border test.
template <typename Reduce, typename Finish>
Tensor pool(const Node& node, const Placed& in, const Region& out_region,
            const ExecOptions& options, float init, Reduce reduce,
            Finish finish) {
  const Shape in_shape = node.in_shape;
  const int kh = node.win.kh, kw = node.win.kw;
  const int sh = node.win.sh, sw = node.win.sw;
  const int ph = node.win.ph, pw = node.win.pw;
  const long long in_width = in.region.width();

  Tensor out({in_shape.channels, out_region.height(), out_region.width()});
  parallel_slabs(out_region, in_shape.channels, 1, options, "pool",
                 [&](const Slab& slab) {
    const Region& strip = slab.rows;
    for (int c = slab.c_begin; c < slab.c_end; ++c) {
      const float* in_channel = in.tensor.channel(c);
      for (int oy = strip.row_begin; oy < strip.row_end; ++oy) {
        const int iy0 = oy * sh - ph;
        const auto [ky_begin, ky_end] = taps_in_map(iy0, kh, in_shape.height);
        PICO_CHECK_MSG(ky_begin < ky_end, "pool window entirely in padding");
        const float* in_rows =
            in_channel + (iy0 + ky_begin - in.region.row_begin) * in_width;
        float* out_row = &out.at(c, oy - out_region.row_begin, 0);
        for (int ox = strip.col_begin; ox < strip.col_end; ++ox) {
          const int ix0 = ox * sw - pw;
          const auto [kx_begin, kx_end] = taps_in_map(ix0, kw, in_shape.width);
          PICO_CHECK_MSG(kx_begin < kx_end, "pool window entirely in padding");
          const float* row = in_rows + (ix0 + kx_begin - in.region.col_begin);
          float acc = init;
          for (int ky = ky_begin; ky < ky_end; ++ky, row += in_width) {
            for (int kx = 0; kx < kx_end - kx_begin; ++kx) {
              acc = reduce(acc, row[kx]);
            }
          }
          out_row[ox - out_region.col_begin] =
              finish(acc, (ky_end - ky_begin) * (kx_end - kx_begin));
        }
      }
    }
  });
  return out;
}

/// The largest tap, as std::max(best, v) from -inf, so NaN taps are
/// passed over.
Tensor max_pool(const Node& node, const Placed& in, const Region& out_region,
                const ExecOptions& options) {
  return pool(
      node, in, out_region, options, -std::numeric_limits<float>::infinity(),
      [](float best, float v) { return std::max(best, v); },
      [](float best, int) { return best; });
}

/// The sum of the in-map taps divided by their count: padding is not
/// counted.
Tensor avg_pool(const Node& node, const Placed& in, const Region& out_region,
                const ExecOptions& options) {
  return pool(
      node, in, out_region, options, 0.0f,
      [](float sum, float v) { return sum + v; },
      [](float sum, int taps) { return sum / static_cast<float>(taps); });
}

Tensor elementwise_relu(const Placed& in, const Region& out_region,
                        const ExecOptions& options) {
  Tensor out({in.tensor.shape().channels, out_region.height(),
              out_region.width()});
  parallel_slabs(out_region, out.shape().channels, 1, options, "relu",
                 [&](const Slab& slab) {
    const Region& strip = slab.rows;
    for (int c = slab.c_begin; c < slab.c_end; ++c) {
      for (int y = strip.row_begin; y < strip.row_end; ++y) {
        for (int x = strip.col_begin; x < strip.col_end; ++x) {
          const float v = in.tensor.at(c, y - in.region.row_begin,
                                       x - in.region.col_begin);
          out.at(c, y - out_region.row_begin, x - out_region.col_begin) =
              v > 0.0f ? v : 0.0f;
        }
      }
    }
  });
  return out;
}

Tensor batchnorm(const Node& node, const Placed& in, const Region& out_region,
                 const ExecOptions& options) {
  Tensor out({node.in_shape.channels, out_region.height(),
              out_region.width()});
  parallel_slabs(out_region, out.shape().channels, 1, options, "batchnorm",
                 [&](const Slab& slab) {
    const Region& strip = slab.rows;
    for (int c = slab.c_begin; c < slab.c_end; ++c) {
      const float scale = node.bn_scale[static_cast<std::size_t>(c)];
      const float shift = node.bn_shift[static_cast<std::size_t>(c)];
      for (int y = strip.row_begin; y < strip.row_end; ++y) {
        for (int x = strip.col_begin; x < strip.col_end; ++x) {
          float v = scale * in.tensor.at(c, y - in.region.row_begin,
                                         x - in.region.col_begin) +
                    shift;
          if (node.fused_relu && v < 0.0f) v = 0.0f;
          out.at(c, y - out_region.row_begin, x - out_region.col_begin) = v;
        }
      }
    }
  });
  return out;
}

Tensor add(const Node& node, const Placed& lhs, const Placed& rhs,
           const Region& out_region, const ExecOptions& options) {
  Tensor out({node.in_shape.channels, out_region.height(),
              out_region.width()});
  parallel_slabs(out_region, out.shape().channels, 1, options, "add",
                 [&](const Slab& slab) {
    const Region& strip = slab.rows;
    for (int c = slab.c_begin; c < slab.c_end; ++c) {
      for (int y = strip.row_begin; y < strip.row_end; ++y) {
        for (int x = strip.col_begin; x < strip.col_end; ++x) {
          float v = lhs.tensor.at(c, y - lhs.region.row_begin,
                                  x - lhs.region.col_begin) +
                    rhs.tensor.at(c, y - rhs.region.row_begin,
                                  x - rhs.region.col_begin);
          if (node.fused_relu && v < 0.0f) v = 0.0f;
          out.at(c, y - out_region.row_begin, x - out_region.col_begin) = v;
        }
      }
    }
  });
  return out;
}

Tensor concat(const Node& node, std::span<const Placed* const> inputs,
              const Region& out_region) {
  Tensor out({node.out_shape.channels, out_region.height(),
              out_region.width()});
  int c_base = 0;
  for (const Placed* input : inputs) {
    const Placed& piece = *input;
    for (int c = 0; c < piece.tensor.shape().channels; ++c) {
      for (int y = out_region.row_begin; y < out_region.row_end; ++y) {
        for (int x = out_region.col_begin; x < out_region.col_end; ++x) {
          out.at(c_base + c, y - out_region.row_begin,
                 x - out_region.col_begin) =
              piece.tensor.at(c, y - piece.region.row_begin,
                              x - piece.region.col_begin);
        }
      }
    }
    c_base += piece.tensor.shape().channels;
  }
  return out;
}

Tensor fully_connected(const Node& node, const Placed& in) {
  PICO_CHECK_MSG(in.region == Region::full(node.in_shape.height,
                                           node.in_shape.width),
                 "fully-connected layers need the whole input map");
  Tensor out({node.out_channels, 1, 1});
  const long long in_elems = node.in_shape.elements();
  for (int o = 0; o < node.out_channels; ++o) {
    const float* w = node.weights.data() + o * in_elems;
    float acc = 0.0f;
    const std::span<const float> flat = in.tensor.data();
    for (long long i = 0; i < in_elems; ++i) acc += w[i] * flat[i];
    out.at(o, 0, 0) = acc + node.bias[static_cast<std::size_t>(o)];
  }
  return out;
}

Tensor global_avgpool(const Node& node, const Placed& in) {
  PICO_CHECK_MSG(in.region == Region::full(node.in_shape.height,
                                           node.in_shape.width),
                 "global average pooling needs the whole input map");
  Tensor out({node.in_shape.channels, 1, 1});
  const float denom =
      static_cast<float>(node.in_shape.height) * node.in_shape.width;
  for (int c = 0; c < node.in_shape.channels; ++c) {
    float acc = 0.0f;
    for (int y = 0; y < node.in_shape.height; ++y)
      for (int x = 0; x < node.in_shape.width; ++x)
        acc += in.tensor.at(c, y, x);
    out.at(c, 0, 0) = acc / denom;
  }
  return out;
}

}  // namespace

namespace detail {

Tensor compute_node(const Node& node, std::span<const Placed* const> inputs,
                    const Region& out_region, const ExecOptions& options) {
  PICO_CHECK_MSG(!out_region.empty(), "empty output region for node "
                                          << node.name);
  PICO_CHECK_MSG(inputs.size() == node.inputs.size(),
                 "node " << node.name << " expects " << node.inputs.size()
                         << " inputs, got " << inputs.size());
  PICO_CHECK(Region::full(node.out_shape.height, node.out_shape.width)
                 .contains(out_region));
  for (const Placed* piece : inputs) check_piece_covers(node, *piece, {});

  switch (node.kind) {
    case OpKind::Conv:
      return conv(node, *inputs[0], out_region, options, served_conv_gemm());
    case OpKind::MaxPool:
      return max_pool(node, *inputs[0], out_region, options);
    case OpKind::AvgPool:
      return avg_pool(node, *inputs[0], out_region, options);
    case OpKind::ReLU:
      return elementwise_relu(*inputs[0], out_region, options);
    case OpKind::BatchNorm:
      return batchnorm(node, *inputs[0], out_region, options);
    case OpKind::Add:
      return add(node, *inputs[0], *inputs[1], out_region, options);
    case OpKind::Concat:
      return concat(node, inputs, out_region);
    case OpKind::FullyConnected:
      return fully_connected(node, *inputs[0]);
    case OpKind::GlobalAvgPool:
      return global_avgpool(node, *inputs[0]);
    case OpKind::Input:
      break;
  }
  PICO_CHECK_MSG(false, "compute_node on input node");
  return {};
}

}  // namespace detail

Tensor compute_node(const Node& node, std::span<const Placed> inputs,
                    const Region& out_region, const ExecOptions& options) {
  std::vector<const Placed*> pointers;
  pointers.reserve(inputs.size());
  for (const Placed& piece : inputs) pointers.push_back(&piece);
  return detail::compute_node(node, pointers, out_region, options);
}

}  // namespace pico::nn
