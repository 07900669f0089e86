#include "linalg/scoring_kernels.h"

#include <cstring>

#include "linalg/kernel_isa.h"

namespace velox {

namespace {

// ---------------------------------------------------------------------------
// AVX2 clones of the row scorers, selected at runtime.
//
// Per-function target("avx2") keeps the rest of the binary on baseline
// x86-64, so nothing here leaks AVX instructions into code that can run
// on machines without them. FMA is deliberately NOT enabled: with no
// fused-multiply-add in the ISA the compiler cannot contract the
// mul/add pairs below, so every lane performs the exact same IEEE
// operations as the SSE lowering of the header kernels.
//
// Bit-exactness with DotKernelF: the header kernel accumulates
// even-parity 8-element blocks into the Vec4f pair (c0,c1) and
// odd-parity blocks into (c2,c3), then reduces (c0+c1)+(c2+c3)
// lanewise. Here C0 is the 8-wide concatenation (c0|c1) and C1 is
// (c2|c3): the elementwise 8-wide add performs the identical lane
// additions in the identical block order, and the reduction
// (lo(C0)+hi(C0)) + (lo(C1)+hi(C1)) recreates (c0+c1)+(c2+c3) before
// the same final scalar sum. The double kernel needs no restructuring:
// its Vec4d accumulators lower directly to single 256-bit ops.
// ---------------------------------------------------------------------------
#ifdef VELOX_KERNELS_AVX2

typedef float Vec8f __attribute__((vector_size(32)));

using kernel_detail::Load4d;
using kernel_detail::Vec4d;
using kernel_detail::Vec4f;

__attribute__((target("avx2"))) inline Vec8f Load8f(const float* p) {
  Vec8f v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

__attribute__((target("avx2"))) inline float DotKernelFAvx2(const float* a,
                                                            const float* b,
                                                            size_t n) {
  Vec8f C0 = {0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f};
  Vec8f C1 = C0;
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    C0 += Load8f(a + i) * Load8f(b + i);
    C1 += Load8f(a + i + 8) * Load8f(b + i + 8);
  }
  if (i + 8 <= n) {
    C0 += Load8f(a + i) * Load8f(b + i);
    i += 8;
  }
  if (i < n) {
    // Same tail rule as the header kernel: product j of the partial
    // block lands in lane j of the parity-selected accumulator.
    Vec8f& e = (((i / 8) % 2) != 0) ? C1 : C0;
    for (size_t j = 0; i + j < n; ++j) {
      e[j] += a[i + j] * b[i + j];
    }
  }
  Vec4f lo0, hi0, lo1, hi1;
  std::memcpy(&lo0, &C0, sizeof(lo0));
  std::memcpy(&hi0, reinterpret_cast<const char*>(&C0) + sizeof(lo0), sizeof(hi0));
  std::memcpy(&lo1, &C1, sizeof(lo1));
  std::memcpy(&hi1, reinterpret_cast<const char*>(&C1) + sizeof(lo1), sizeof(hi1));
  Vec4f s = (lo0 + hi0) + (lo1 + hi1);
  return (s[0] + s[1]) + (s[2] + s[3]);
}

__attribute__((target("avx2"))) inline double DotKernelAvx2(const double* a,
                                                            const double* b,
                                                            size_t n) {
  Vec4d c0 = {0.0, 0.0, 0.0, 0.0}, c1 = c0, c2 = c0, c3 = c0;
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    c0 += Load4d(a + i) * Load4d(b + i);
    c1 += Load4d(a + i + 4) * Load4d(b + i + 4);
    c2 += Load4d(a + i + 8) * Load4d(b + i + 8);
    c3 += Load4d(a + i + 12) * Load4d(b + i + 12);
  }
  if (i + 8 <= n) {
    c0 += Load4d(a + i) * Load4d(b + i);
    c1 += Load4d(a + i + 4) * Load4d(b + i + 4);
    i += 8;
  }
  if (i < n) {
    bool hi = ((i / 8) % 2) != 0;
    Vec4d& e0 = hi ? c2 : c0;
    Vec4d& e1 = hi ? c3 : c1;
    for (size_t j = 0; i + j < n; ++j) {
      double p = a[i + j] * b[i + j];
      if (j < 4) {
        e0[j] += p;
      } else {
        e1[j - 4] += p;
      }
    }
  }
  Vec4d s = (c0 + c1) + (c2 + c3);
  return (s[0] + s[1]) + (s[2] + s[3]);
}

__attribute__((target("avx2"))) void ScoreRowsAvx2(const double* rows,
                                                   size_t num_rows, size_t stride,
                                                   const double* weights, size_t dim,
                                                   double* out) {
  size_t r = 0;
  for (; r + 8 <= num_rows; r += 8) {
    const double* p = rows + r * stride;
    out[r] = DotKernelAvx2(p, weights, dim);
    out[r + 1] = DotKernelAvx2(p + stride, weights, dim);
    out[r + 2] = DotKernelAvx2(p + 2 * stride, weights, dim);
    out[r + 3] = DotKernelAvx2(p + 3 * stride, weights, dim);
    out[r + 4] = DotKernelAvx2(p + 4 * stride, weights, dim);
    out[r + 5] = DotKernelAvx2(p + 5 * stride, weights, dim);
    out[r + 6] = DotKernelAvx2(p + 6 * stride, weights, dim);
    out[r + 7] = DotKernelAvx2(p + 7 * stride, weights, dim);
  }
  for (; r < num_rows; ++r) {
    out[r] = DotKernelAvx2(rows + r * stride, weights, dim);
  }
}

__attribute__((target("avx2"))) void ScoreRowsFAvx2(const float* rows,
                                                    size_t num_rows, size_t stride,
                                                    const float* weights, size_t dim,
                                                    float* out) {
  size_t r = 0;
  for (; r + 8 <= num_rows; r += 8) {
    const float* p = rows + r * stride;
    out[r] = DotKernelFAvx2(p, weights, dim);
    out[r + 1] = DotKernelFAvx2(p + stride, weights, dim);
    out[r + 2] = DotKernelFAvx2(p + 2 * stride, weights, dim);
    out[r + 3] = DotKernelFAvx2(p + 3 * stride, weights, dim);
    out[r + 4] = DotKernelFAvx2(p + 4 * stride, weights, dim);
    out[r + 5] = DotKernelFAvx2(p + 5 * stride, weights, dim);
    out[r + 6] = DotKernelFAvx2(p + 6 * stride, weights, dim);
    out[r + 7] = DotKernelFAvx2(p + 7 * stride, weights, dim);
  }
  for (; r < num_rows; ++r) {
    out[r] = DotKernelFAvx2(rows + r * stride, weights, dim);
  }
}

#endif  // VELOX_KERNELS_AVX2

}  // namespace

void ScoreRows(const double* rows, size_t num_rows, size_t stride,
               const double* weights, size_t dim, double* out) {
#ifdef VELOX_KERNELS_AVX2
  if (BestKernelIsa() == KernelIsa::kAvx2) {
    ScoreRowsAvx2(rows, num_rows, stride, weights, dim, out);
    return;
  }
#endif
  size_t r = 0;
  // 8 rows per pass: one streamed read of 8 contiguous rows against the
  // cached weight vector. Each row reduces via DotKernel so the result
  // is bit-identical to scoring rows one at a time.
  for (; r + 8 <= num_rows; r += 8) {
    const double* p = rows + r * stride;
    out[r] = DotKernel(p, weights, dim);
    out[r + 1] = DotKernel(p + stride, weights, dim);
    out[r + 2] = DotKernel(p + 2 * stride, weights, dim);
    out[r + 3] = DotKernel(p + 3 * stride, weights, dim);
    out[r + 4] = DotKernel(p + 4 * stride, weights, dim);
    out[r + 5] = DotKernel(p + 5 * stride, weights, dim);
    out[r + 6] = DotKernel(p + 6 * stride, weights, dim);
    out[r + 7] = DotKernel(p + 7 * stride, weights, dim);
  }
  for (; r < num_rows; ++r) {
    out[r] = DotKernel(rows + r * stride, weights, dim);
  }
}

void ScoreRowsF(const float* rows, size_t num_rows, size_t stride,
                const float* weights, size_t dim, float* out) {
#ifdef VELOX_KERNELS_AVX2
  if (BestKernelIsa() == KernelIsa::kAvx2) {
    ScoreRowsFAvx2(rows, num_rows, stride, weights, dim, out);
    return;
  }
#endif
  size_t r = 0;
  for (; r + 8 <= num_rows; r += 8) {
    const float* p = rows + r * stride;
    out[r] = DotKernelF(p, weights, dim);
    out[r + 1] = DotKernelF(p + stride, weights, dim);
    out[r + 2] = DotKernelF(p + 2 * stride, weights, dim);
    out[r + 3] = DotKernelF(p + 3 * stride, weights, dim);
    out[r + 4] = DotKernelF(p + 4 * stride, weights, dim);
    out[r + 5] = DotKernelF(p + 5 * stride, weights, dim);
    out[r + 6] = DotKernelF(p + 6 * stride, weights, dim);
    out[r + 7] = DotKernelF(p + 7 * stride, weights, dim);
  }
  for (; r < num_rows; ++r) {
    out[r] = DotKernelF(rows + r * stride, weights, dim);
  }
}

}  // namespace velox
