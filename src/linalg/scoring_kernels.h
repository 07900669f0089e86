// Blocked scoring kernels for the full-catalog serving hot path
// (Eq. 1: argmax_x w_uᵀ f(x, θ) over the whole item catalog).
//
// Kernels operate on raw contiguous rows so the caller can stream an
// ItemFactorPlane (ml/feature_function.h) without touching per-item
// heap objects:
//  * DotKernel   — unrolled dot product over four 4-wide vector
//    accumulator lanes (GCC/Clang vector extensions; plain x86-64
//    lowers each 4-wide op to two SSE2 ops with identical lane
//    results, so no target flags are needed). Breaking the single
//    dependency chain lets the core retire multiple multiply-adds per
//    cycle instead of stalling on add latency.
//  * ScoreRows   — GEMV-style row-block scorer: 8 rows per pass
//    against one shared weight vector, so the weights stay
//    register/L1-resident while the factor rows stream through.
//  * DotKernelF / ScoreRowsF — the same shapes in single precision,
//    used by the mixed-precision pre-filter pass of the top-K scan
//    (half the memory traffic; results are approximate and are only
//    ever used with a conservative error bound before exact double
//    rescoring).
//
// Determinism contract: each kernel reduces a given row in one fixed
// association order, independent of how the caller blocks or shards
// the scan: 8-element blocks go to accumulator pair (c0,c1) or
// (c2,c3) by block parity, tail products accumulate into the exact
// lane they would occupy in a full zero-padded block, and the final
// reduction is (c0+c1)+(c2+c3) lanewise then (s0+s1)+(s2+s3). Two
// consequences the scan paths rely on:
//  * zero-padding a row up to a multiple of 8 does not change the
//    result bit (the plane's padded stride is invisible);
//  * DotKernel, ScoreRows, and Dot(DenseVector, DenseVector) (which
//    delegates to DotKernel) produce bit-identical scores for the
//    same row, so the generic, serial-heap, and parallel-plane top-K
//    paths agree exactly.
#ifndef VELOX_LINALG_SCORING_KERNELS_H_
#define VELOX_LINALG_SCORING_KERNELS_H_

#include <cstddef>
#include <cstring>

namespace velox {

#if defined(__GNUC__) || defined(__clang__)

// GCC warns that returning a 32-byte vector without AVX enabled "changes
// the ABI". Every function here is inline and header-only, so no vector
// ever crosses a translation-unit boundary by value; the warning cannot
// apply.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wpsabi"

namespace kernel_detail {

typedef double Vec4d __attribute__((vector_size(32)));
typedef float Vec4f __attribute__((vector_size(16)));
// Lane masks: a Vec4d comparison yields -1 (true) or 0 per lane.
typedef long long Vec4m __attribute__((vector_size(32)));

inline Vec4d Load4d(const double* p) {
  Vec4d v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

// The 2-wide double vector the baseline (SSE2) builds of the linalg
// kernels use where GCC's lowering of Vec4d to register pairs falls
// back to the stack; LoadV/StoreV move either width.
typedef double Vec2d __attribute__((vector_size(16)));

template <typename V>
inline V LoadV(const double* p) {
  V v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

template <typename V>
inline void StoreV(double* p, V v) {
  std::memcpy(p, &v, sizeof(v));
}

inline Vec4f Load4f(const float* p) {
  Vec4f v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

}  // namespace kernel_detail

// Unrolled dot product of a[0..n) and b[0..n); see the determinism
// contract above.
inline double DotKernel(const double* a, const double* b, size_t n) {
  using kernel_detail::Load4d;
  using kernel_detail::Vec4d;
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
    // Tail products land in the accumulator lane they would occupy in
    // a full zero-padded 8-block (pair by block parity, lane by offset
    // mod 4), so padding a row with zeros cannot change the result.
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

// Single-precision analogue of DotKernel, same blocking and the same
// fixed association order (so shard boundaries cannot change any
// row's float score either).
inline float DotKernelF(const float* a, const float* b, size_t n) {
  using kernel_detail::Load4f;
  using kernel_detail::Vec4f;
  Vec4f c0 = {0.0f, 0.0f, 0.0f, 0.0f}, c1 = c0, c2 = c0, c3 = c0;
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    c0 += Load4f(a + i) * Load4f(b + i);
    c1 += Load4f(a + i + 4) * Load4f(b + i + 4);
    c2 += Load4f(a + i + 8) * Load4f(b + i + 8);
    c3 += Load4f(a + i + 12) * Load4f(b + i + 12);
  }
  if (i + 8 <= n) {
    c0 += Load4f(a + i) * Load4f(b + i);
    c1 += Load4f(a + i + 4) * Load4f(b + i + 4);
    i += 8;
  }
  if (i < n) {
    bool hi = ((i / 8) % 2) != 0;
    Vec4f& e0 = hi ? c2 : c0;
    Vec4f& e1 = hi ? c3 : c1;
    for (size_t j = 0; i + j < n; ++j) {
      float p = a[i + j] * b[i + j];
      if (j < 4) {
        e0[j] += p;
      } else {
        e1[j - 4] += p;
      }
    }
  }
  Vec4f s = (c0 + c1) + (c2 + c3);
  return (s[0] + s[1]) + (s[2] + s[3]);
}

#pragma GCC diagnostic pop

#else  // portable fallback (association differs, but is still fixed
       // within a build, which is all the scan paths require)

inline double DotKernel(const double* a, const double* b, size_t n) {
  double c0 = 0.0, c1 = 0.0, c2 = 0.0, c3 = 0.0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    c0 += a[i] * b[i];
    c1 += a[i + 1] * b[i + 1];
    c2 += a[i + 2] * b[i + 2];
    c3 += a[i + 3] * b[i + 3];
  }
  for (size_t j = 0; i + j < n; ++j) {
    (j == 0 ? c0 : j == 1 ? c1 : c2) += a[i + j] * b[i + j];
  }
  return (c0 + c1) + (c2 + c3);
}

inline float DotKernelF(const float* a, const float* b, size_t n) {
  float c0 = 0.0f, c1 = 0.0f, c2 = 0.0f, c3 = 0.0f;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    c0 += a[i] * b[i];
    c1 += a[i + 1] * b[i + 1];
    c2 += a[i + 2] * b[i + 2];
    c3 += a[i + 3] * b[i + 3];
  }
  for (size_t j = 0; i + j < n; ++j) {
    (j == 0 ? c0 : j == 1 ? c1 : c2) += a[i + j] * b[i + j];
  }
  return (c0 + c1) + (c2 + c3);
}

#endif

// Scores `num_rows` contiguous rows (row r at rows + r * stride, first
// `dim` entries meaningful; stride >= dim, padding ignored) against
// `weights`, writing w·row_r to out[r]. Processes 8 rows per pass.
void ScoreRows(const double* rows, size_t num_rows, size_t stride,
               const double* weights, size_t dim, double* out);

// Single-precision ScoreRows over a float row plane (the pre-filter
// pass of the mixed-precision scan).
void ScoreRowsF(const float* rows, size_t num_rows, size_t stride,
                const float* weights, size_t dim, float* out);

}  // namespace velox

#endif  // VELOX_LINALG_SCORING_KERNELS_H_
