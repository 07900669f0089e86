#include "linalg/matrix.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/logging.h"
#include "linalg/scoring_kernels.h"

namespace velox {

namespace {

#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wpsabi"

using kernel_detail::StoreV;
using kernel_detail::Vec2d;
using kernel_detail::Vec4d;

// Rows r..r+width-1 of m, entry c: lane l holds m[(r + l)·cols + c].
template <typename V>
__attribute__((always_inline)) inline void GemvColumn(const double* p, size_t cols,
                                                      V* column) {
  if constexpr (sizeof(V) == 4 * sizeof(double)) {
    *column = V{p[0], p[cols], p[2 * cols], p[3 * cols]};
  } else {
    *column = V{p[0], p[cols]};
  }
}

// GemvRowsInto's body, one row per lane of V: Vec4d in the AVX2 clone,
// Vec2d in the baseline build (which has no 4-wide registers). Two
// vectors of rows share each pass over the columns, so two sums are in
// flight.
template <typename V>
__attribute__((always_inline)) inline void GemvRowsBody(const double* m, size_t rows,
                                                        size_t cols, const double* x,
                                                        double* out) {
  constexpr size_t kWidth = sizeof(V) / sizeof(double);
  size_t r = 0;
  for (; r + 2 * kWidth <= rows; r += 2 * kWidth) {
    const double* p = m + r * cols;
    V s0 = {};
    V s1 = {};
    for (size_t c = 0; c < cols; ++c, ++p) {
      V c0, c1;
      GemvColumn(p, cols, &c0);
      GemvColumn(p + kWidth * cols, cols, &c1);
      s0 += c0 * x[c];
      s1 += c1 * x[c];
    }
    StoreV(out + r, s0);
    StoreV(out + r + kWidth, s1);
  }
  for (; r + kWidth <= rows; r += kWidth) {
    const double* p = m + r * cols;
    V s = {};
    for (size_t c = 0; c < cols; ++c, ++p) {
      V column;
      GemvColumn(p, cols, &column);
      s += column * x[c];
    }
    StoreV(out + r, s);
  }
  for (; r < rows; ++r) {
    const double* row = m + r * cols;
    double s = 0.0;
    for (size_t c = 0; c < cols; ++c) s += row[c] * x[c];
    out[r] = s;
  }
}

void GemvRowsPortable(const double* m, size_t rows, size_t cols, const double* x,
                      double* out) {
  GemvRowsBody<Vec2d>(m, rows, cols, x, out);
}

#ifdef VELOX_KERNELS_AVX2
__attribute__((target("avx2"))) void GemvRowsAvx2(const double* m, size_t rows,
                                                  size_t cols, const double* x,
                                                  double* out) {
  GemvRowsBody<Vec4d>(m, rows, cols, x, out);
}
#endif

#pragma GCC diagnostic pop

}  // namespace

void GemvRowsInto(const double* m, size_t rows, size_t cols, const double* x,
                  double* out, KernelIsa isa) {
#ifdef VELOX_KERNELS_AVX2
  if (isa == KernelIsa::kAvx2) {
    GemvRowsAvx2(m, rows, cols, x, out);
    return;
  }
#endif
  (void)isa;
  GemvRowsPortable(m, rows, cols, x, out);
}

DenseVector DenseMatrix::Row(size_t r) const {
  VELOX_CHECK_LT(r, rows_);
  DenseVector v(cols_);
  std::copy(RowPtr(r), RowPtr(r) + cols_, v.data());
  return v;
}

void DenseMatrix::SetRow(size_t r, const DenseVector& v) {
  VELOX_CHECK_LT(r, rows_);
  VELOX_CHECK_EQ(v.dim(), cols_);
  std::copy(v.data(), v.data() + cols_, RowPtr(r));
}

void DenseMatrix::Fill(double value) {
  std::fill(data_.begin(), data_.end(), value);
}

void DenseMatrix::SetIdentity() {
  VELOX_CHECK_EQ(rows_, cols_);
  Fill(0.0);
  for (size_t i = 0; i < rows_; ++i) At(i, i) = 1.0;
}

void DenseMatrix::AddDiagonal(double alpha) {
  VELOX_CHECK_EQ(rows_, cols_);
  for (size_t i = 0; i < rows_; ++i) At(i, i) += alpha;
}

DenseVector DenseMatrix::Gemv(const DenseVector& x) const {
  VELOX_CHECK_EQ(x.dim(), cols_);
  DenseVector out(rows_);
  GemvRowsInto(data_.data(), rows_, cols_, x.data(), out.data());
  return out;
}

DenseVector DenseMatrix::GemvTranspose(const DenseVector& x) const {
  VELOX_CHECK_EQ(x.dim(), rows_);
  DenseVector out(cols_);
  for (size_t r = 0; r < rows_; ++r) {
    const double* row = RowPtr(r);
    double xr = x[r];
    if (xr == 0.0) continue;
    for (size_t c = 0; c < cols_; ++c) out[c] += xr * row[c];
  }
  return out;
}

void DenseMatrix::Ger(double alpha, const DenseVector& x, const DenseVector& y) {
  VELOX_CHECK_EQ(x.dim(), rows_);
  VELOX_CHECK_EQ(y.dim(), cols_);
  for (size_t r = 0; r < rows_; ++r) {
    double ax = alpha * x[r];
    if (ax == 0.0) continue;
    double* row = RowPtr(r);
    for (size_t c = 0; c < cols_; ++c) row[c] += ax * y[c];
  }
}

void DenseMatrix::Add(const DenseMatrix& other) {
  VELOX_CHECK_EQ(rows_, other.rows_);
  VELOX_CHECK_EQ(cols_, other.cols_);
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
}

void DenseMatrix::Scale(double alpha) {
  for (double& v : data_) v *= alpha;
}

DenseMatrix DenseMatrix::Transpose() const {
  DenseMatrix out(cols_, rows_);
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t c = 0; c < cols_; ++c) out.At(c, r) = At(r, c);
  }
  return out;
}

double DenseMatrix::FrobeniusNorm() const {
  double sq = 0.0;
  for (double v : data_) sq += v * v;
  return std::sqrt(sq);
}

std::string DenseMatrix::ToString(size_t max_rows, size_t max_cols) const {
  std::ostringstream os;
  os << rows_ << "x" << cols_ << " [";
  for (size_t r = 0; r < rows_ && r < max_rows; ++r) {
    os << (r == 0 ? "[" : " [");
    for (size_t c = 0; c < cols_ && c < max_cols; ++c) {
      if (c > 0) os << ", ";
      os << At(r, c);
    }
    if (cols_ > max_cols) os << ", ...";
    os << "]";
  }
  if (rows_ > max_rows) os << " ...";
  os << "]";
  return os.str();
}

DenseMatrix MatMul(const DenseMatrix& a, const DenseMatrix& b) {
  VELOX_CHECK_EQ(a.cols(), b.rows());
  DenseMatrix c(a.rows(), b.cols());
  // i-k-j loop order keeps the inner loop streaming over contiguous rows.
  for (size_t i = 0; i < a.rows(); ++i) {
    double* crow = c.RowPtr(i);
    const double* arow = a.RowPtr(i);
    for (size_t k = 0; k < a.cols(); ++k) {
      double aik = arow[k];
      if (aik == 0.0) continue;
      const double* brow = b.RowPtr(k);
      for (size_t j = 0; j < b.cols(); ++j) crow[j] += aik * brow[j];
    }
  }
  return c;
}

DenseMatrix AtA(const DenseMatrix& a) {
  DenseMatrix g(a.cols(), a.cols());
  for (size_t r = 0; r < a.rows(); ++r) {
    const double* row = a.RowPtr(r);
    // Accumulate the upper triangle, then mirror.
    for (size_t i = 0; i < a.cols(); ++i) {
      double ri = row[i];
      if (ri == 0.0) continue;
      double* grow = g.RowPtr(i);
      for (size_t j = i; j < a.cols(); ++j) grow[j] += ri * row[j];
    }
  }
  for (size_t i = 0; i < a.cols(); ++i) {
    for (size_t j = 0; j < i; ++j) g.At(i, j) = g.At(j, i);
  }
  return g;
}

DenseVector Aty(const DenseMatrix& a, const DenseVector& y) {
  return a.GemvTranspose(y);
}

double MaxAbsDiff(const DenseMatrix& a, const DenseMatrix& b) {
  VELOX_CHECK_EQ(a.rows(), b.rows());
  VELOX_CHECK_EQ(a.cols(), b.cols());
  double m = 0.0;
  for (size_t r = 0; r < a.rows(); ++r) {
    for (size_t c = 0; c < a.cols(); ++c) {
      m = std::max(m, std::abs(a.At(r, c) - b.At(r, c)));
    }
  }
  return m;
}

}  // namespace velox
