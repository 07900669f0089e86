#include "linalg/cholesky.h"

#include <cmath>

#include "linalg/scoring_kernels.h"

namespace velox {

namespace {

#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wpsabi"

using kernel_detail::Load4d;
using kernel_detail::StoreV;
using kernel_detail::Vec4d;
using kernel_detail::Vec4m;

// CholeskySolveLanes4's body, inlined into a baseline and an AVX2
// clone. Each statement is the scalar kernels' statement on a vector of
// four systems' entries.
__attribute__((always_inline)) inline unsigned SolveLanes4Body(double* a, size_t n,
                                                               double* b) {
  const Vec4d zero = {0.0, 0.0, 0.0, 0.0};
  const Vec4d inf = {HUGE_VAL, HUGE_VAL, HUGE_VAL, HUGE_VAL};
  Vec4m failed = {0, 0, 0, 0};
  for (size_t i = 0; i < n; ++i) {
    double* li = a + i * n * 4;
    for (size_t j = 0; j <= i; ++j) {
      Vec4d sum = Load4d(li + j * 4);
      const double* lj = a + j * n * 4;
      for (size_t k = 0; k < j; ++k) sum -= Load4d(li + k * 4) * Load4d(lj + k * 4);
      if (i == j) {
        // Fails where sum <= 0 or is not finite (NaN compares false).
        failed |= ~((sum > zero) & (sum < inf));
        for (int k = 0; k < 4; ++k) sum[k] = std::sqrt(sum[k]);
      } else {
        sum /= Load4d(lj + j * 4);
      }
      StoreV(li + j * 4, sum);
    }
  }
  // Forward substitution: L y = b.
  for (size_t i = 0; i < n; ++i) {
    Vec4d sum = Load4d(b + i * 4);
    const double* li = a + i * n * 4;
    for (size_t k = 0; k < i; ++k) sum -= Load4d(li + k * 4) * Load4d(b + k * 4);
    StoreV(b + i * 4, sum / Load4d(li + i * 4));
  }
  // Backward substitution: L^T x = y.
  for (size_t ii = n; ii-- > 0;) {
    Vec4d sum = Load4d(b + ii * 4);
    for (size_t k = ii + 1; k < n; ++k) {
      sum -= Load4d(a + (k * n + ii) * 4) * Load4d(b + k * 4);
    }
    StoreV(b + ii * 4, sum / Load4d(a + (ii * n + ii) * 4));
  }
  unsigned ok = 0;
  for (int k = 0; k < 4; ++k) {
    if (failed[k] == 0) ok |= 1u << k;
  }
  return ok;
}

unsigned SolveLanes4Portable(double* a, size_t n, double* b) {
  return SolveLanes4Body(a, n, b);
}

#ifdef VELOX_KERNELS_AVX2
__attribute__((target("avx2"))) unsigned SolveLanes4Avx2(double* a, size_t n,
                                                         double* b) {
  return SolveLanes4Body(a, n, b);
}
#endif

#pragma GCC diagnostic pop

}  // namespace

unsigned CholeskySolveLanes4(double* a, size_t n, double* b, KernelIsa isa) {
#ifdef VELOX_KERNELS_AVX2
  if (isa == KernelIsa::kAvx2) return SolveLanes4Avx2(a, n, b);
#endif
  (void)isa;
  return SolveLanes4Portable(a, n, b);
}

bool CholeskyFactorInPlace(double* a, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    double* li = a + i * n;
    for (size_t j = 0; j <= i; ++j) {
      // li[j] still holds a(i, j): row i is overwritten left to right.
      double sum = li[j];
      const double* lj = a + j * n;
      for (size_t k = 0; k < j; ++k) sum -= li[k] * lj[k];
      if (i == j) {
        if (sum <= 0.0 || !std::isfinite(sum)) return false;
        li[j] = std::sqrt(sum);
      } else {
        li[j] = sum / lj[j];
      }
    }
  }
  return true;
}

void CholeskySolveInPlace(const double* l, size_t n, double* b) {
  // Forward substitution: L y = b.
  for (size_t i = 0; i < n; ++i) {
    double sum = b[i];
    const double* li = l + i * n;
    for (size_t k = 0; k < i; ++k) sum -= li[k] * b[k];
    b[i] = sum / li[i];
  }
  // Backward substitution: L^T x = y.
  for (size_t ii = n; ii-- > 0;) {
    double sum = b[ii];
    for (size_t k = ii + 1; k < n; ++k) sum -= l[k * n + ii] * b[k];
    b[ii] = sum / l[ii * n + ii];
  }
}

Result<DenseMatrix> CholeskyFactor(const DenseMatrix& a) {
  if (a.rows() != a.cols()) {
    return Status::InvalidArgument("Cholesky requires a square matrix");
  }
  const size_t n = a.rows();
  DenseMatrix l = a;
  if (!CholeskyFactorInPlace(l.RowPtr(0), n)) {
    return Status::InvalidArgument("matrix is not positive definite");
  }
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) l.At(i, j) = 0.0;
  }
  return l;
}

Result<DenseVector> CholeskySolveWithFactor(const DenseMatrix& l, const DenseVector& b) {
  const size_t n = l.rows();
  if (l.cols() != n || b.dim() != n) {
    return Status::InvalidArgument("factor/vector dimension mismatch");
  }
  DenseVector x = b;
  CholeskySolveInPlace(l.RowPtr(0), n, x.data());
  return x;
}

Result<DenseVector> CholeskySolve(const DenseMatrix& a, const DenseVector& b) {
  VELOX_ASSIGN_OR_RETURN(DenseMatrix l, CholeskyFactor(a));
  return CholeskySolveWithFactor(l, b);
}

Result<DenseMatrix> SpdInverse(const DenseMatrix& a) {
  VELOX_ASSIGN_OR_RETURN(DenseMatrix l, CholeskyFactor(a));
  const size_t n = a.rows();
  DenseMatrix inv(n, n);
  // Solve A x = e_i column by column.
  DenseVector e(n);
  for (size_t i = 0; i < n; ++i) {
    e.Fill(0.0);
    e[i] = 1.0;
    VELOX_ASSIGN_OR_RETURN(DenseVector x, CholeskySolveWithFactor(l, e));
    for (size_t r = 0; r < n; ++r) inv.At(r, i) = x[r];
  }
  return inv;
}

}  // namespace velox
