// Row-major dense matrix with the BLAS-2/3 kernels the online updater
// and ALS trainer need: Gemv, rank-one update (Ger), and Gram-matrix
// accumulation (AtA).
#ifndef VELOX_LINALG_MATRIX_H_
#define VELOX_LINALG_MATRIX_H_

#include <cstddef>
#include <string>
#include <vector>

#include "linalg/kernel_isa.h"
#include "linalg/vector.h"

namespace velox {

class DenseMatrix {
 public:
  DenseMatrix() = default;
  DenseMatrix(size_t rows, size_t cols) : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }

  double& At(size_t r, size_t c) { return data_[r * cols_ + c]; }
  double At(size_t r, size_t c) const { return data_[r * cols_ + c]; }

  double* RowPtr(size_t r) { return data_.data() + r * cols_; }
  const double* RowPtr(size_t r) const { return data_.data() + r * cols_; }

  // Copies row r into a DenseVector.
  DenseVector Row(size_t r) const;
  // Overwrites row r; v.dim() must equal cols().
  void SetRow(size_t r, const DenseVector& v);

  void Fill(double value);
  // Sets this to the identity (must be square).
  void SetIdentity();
  // Adds alpha to each diagonal entry (must be square).
  void AddDiagonal(double alpha);

  // out = this * x  (dims: rows x cols * cols -> rows), by GemvRowsInto.
  DenseVector Gemv(const DenseVector& x) const;
  // out = this^T * x (dims: cols).
  DenseVector GemvTranspose(const DenseVector& x) const;
  // this += alpha * x * y^T (x.dim()==rows, y.dim()==cols).
  void Ger(double alpha, const DenseVector& x, const DenseVector& y);
  // this += other (same shape).
  void Add(const DenseMatrix& other);
  void Scale(double alpha);

  DenseMatrix Transpose() const;

  // Frobenius norm.
  double FrobeniusNorm() const;

  std::string ToString(size_t max_rows = 4, size_t max_cols = 8) const;

  friend bool operator==(const DenseMatrix& a, const DenseMatrix& b) {
    return a.rows_ == b.rows_ && a.cols_ == b.cols_ && a.data_ == b.data_;
  }

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<double> data_;
};

// out[r] = Σ_c m[r·cols + c]·x[c] for the row-major rows × cols `m`:
// each row sums its products from +0.0 in column order (the plain
// scalar loop's bits), four rows per vector, one row per lane, with the
// kernels built for `isa`.
void GemvRowsInto(const double* m, size_t rows, size_t cols, const double* x,
                  double* out, KernelIsa isa = BestKernelIsa());

// C = A * B.
DenseMatrix MatMul(const DenseMatrix& a, const DenseMatrix& b);

// Gram matrix A^T A (cols x cols) — the F(X,θ)^T F(X,θ) term of Eq. 2.
DenseMatrix AtA(const DenseMatrix& a);

// A^T y for y.dim() == a.rows().
DenseVector Aty(const DenseMatrix& a, const DenseVector& y);

// Max |a_ij - b_ij|; shapes must match.
double MaxAbsDiff(const DenseMatrix& a, const DenseMatrix& b);

}  // namespace velox

#endif  // VELOX_LINALG_MATRIX_H_
