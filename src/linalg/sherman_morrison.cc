#include "linalg/sherman_morrison.h"

#include <cmath>
#include <utility>

#include "common/logging.h"

namespace velox {

ShermanMorrisonSolver::ShermanMorrisonSolver(size_t dim, double lambda)
    : a_inv_(dim, dim), b_(dim), lambda_(lambda), scratch_(dim) {
  VELOX_CHECK_GT(lambda, 0.0);
  for (size_t i = 0; i < dim; ++i) a_inv_.At(i, i) = 1.0 / lambda;
}

ShermanMorrisonSolver ShermanMorrisonSolver::FromState(double lambda,
                                                       DenseMatrix a_inv,
                                                       DenseVector b,
                                                       int64_t num_examples) {
  VELOX_CHECK_GT(lambda, 0.0);
  VELOX_CHECK_EQ(a_inv.rows(), b.dim());
  VELOX_CHECK_EQ(a_inv.cols(), b.dim());
  ShermanMorrisonSolver solver;
  solver.lambda_ = lambda;
  solver.a_inv_ = std::move(a_inv);
  solver.b_ = std::move(b);
  solver.num_examples_ = num_examples;
  solver.scratch_ = DenseVector(solver.b_.dim());
  return solver;
}

void ShermanMorrisonSolver::SetPriorMean(const DenseVector& prior_mean) {
  VELOX_CHECK_EQ(prior_mean.dim(), dim());
  VELOX_CHECK_EQ(num_examples_, 0);
  b_ = prior_mean;
  b_.Scale(lambda_);
}

void ShermanMorrisonSolver::AddExample(const DenseVector& features, double label) {
  const size_t d = dim();
  VELOX_CHECK_EQ(features.dim(), d);
  // u = A^{-1} f  (A^{-1} is symmetric, so Gemv == GemvTranspose).
  DenseVector& u = scratch_;
  GemvRowsInto(a_inv_.RowPtr(0), d, d, features.data(), u.data());
  double denom = 1.0 + Dot(features, u);
  // denom = 1 + f^T A^{-1} f >= 1 for PD A^{-1}; guard regardless.
  VELOX_CHECK_GT(denom, 0.0);
  // A^{-1} -= (u u^T) / denom.
  a_inv_.Ger(-1.0 / denom, u, u);
  // b += y f.
  b_.Axpy(label, features);
  ++num_examples_;
}

DenseVector ShermanMorrisonSolver::Weights() const {
  DenseVector w(dim());
  WeightsInto(w.data());
  return w;
}

void ShermanMorrisonSolver::WeightsInto(double* out) const {
  // DenseMatrix::Gemv's kernel, so both entry points agree bit for bit.
  GemvRowsInto(a_inv_.RowPtr(0), dim(), dim(), b_.data(), out);
}

double ShermanMorrisonSolver::Uncertainty(const DenseVector& features) const {
  const size_t d = dim();
  VELOX_CHECK_EQ(features.dim(), d);
  double quad = 0.0;
  for (size_t r = 0; r < d; ++r) {
    const double* row = a_inv_.RowPtr(r);
    double s = 0.0;
    for (size_t c = 0; c < d; ++c) s += row[c] * features[c];
    quad += features[r] * s;
  }
  return quad > 0.0 ? std::sqrt(quad) : 0.0;
}

}  // namespace velox
