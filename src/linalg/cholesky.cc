#include "linalg/cholesky.h"

#include <cmath>

namespace velox {

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
