// Internals of the kernels (nn/kernels.hpp) that the executor, the tests and
// bench_kernels reach directly.  Not part of the public nn API.
//
// The conv matrix product comes in two vector widths.  conv_gemm_baseline
// runs 8-output-channel × 4-pixel register tiles on 16-byte vectors and
// builds for any target.  On x86-64, conv_gemm_avx2 runs every full
// 8-pixel tile on 32-byte vectors and hands the pixel tail (under 8) to
// the baseline tiles; it is compiled for AVX2 alone (a per-function target,
// no FMA) and must only run where the CPU has AVX2.  Both produce the same
// bits: a lane is one output pixel and does the same IEEE multiply and add
// in the same order at either width.
#pragma once

#include <span>

#include "nn/graph.hpp"
#include "nn/kernels.hpp"
#include "tensor/slice.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define PICO_NN_AVX2_TILES 1
#else
#define PICO_NN_AVX2_TILES 0
#endif

namespace pico::nn::detail {

/// out[r][n] = act(sum_k w[r][k] * b[k][n] + bias[r]) for r < oc_count and
/// n < `n`: `w` holds oc_count weight rows of k_count floats, row k of the
/// patch matrix is at b + k * ldb, and output row r at out + r * ldo.
using ConvGemmFn = void (*)(const float* w, long long k_count, const float* b,
                            long long ldb, long long n, float* out,
                            long long ldo, int oc_count, const float* bias,
                            bool relu);

void conv_gemm_baseline(const float* w, long long k_count, const float* b,
                        long long ldb, long long n, float* out, long long ldo,
                        int oc_count, const float* bias, bool relu);

#if PICO_NN_AVX2_TILES
/// Only where cpu_has_avx2().
void conv_gemm_avx2(const float* w, long long k_count, const float* b,
                    long long ldb, long long n, float* out, long long ldo,
                    int oc_count, const float* bias, bool relu);
#endif

/// Whether this CPU runs AVX2 code (false off x86-64); checked once.
bool cpu_has_avx2();

/// The gemm compute_node's convs run: conv_gemm_avx2 where the CPU has
/// AVX2, else conv_gemm_baseline.
ConvGemmFn served_conv_gemm();

/// "avx2" or "baseline": the path served_conv_gemm() takes.
const char* conv_isa();

/// compute_node's conv with the given gemm; groups == channels (depthwise)
/// takes the direct depthwise kernel, which uses no gemm.
Tensor conv(const Node& node, const Placed& in, const Region& out_region,
            const ExecOptions& options, ConvGemmFn gemm);

/// compute_node reading its inputs through pointers, so that a caller
/// holding them apart passes them without copying a tensor.
Tensor compute_node(const Node& node, std::span<const Placed* const> inputs,
                    const Region& out_region, const ExecOptions& options);

}  // namespace pico::nn::detail
