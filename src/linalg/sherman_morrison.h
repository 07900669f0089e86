// Sherman–Morrison rank-one maintenance of the ridge solution — the
// O(d^2) incremental path the paper cites for Eq. 2: "it can be
// maintained in time quadratic in d using the Sherman-Morrison formula
// for rank-one updates."
//
// State per user: A^{-1} where A = F^T F + λI (seeded as (1/λ) I), and
// b = F^T Y. Each observation (f, y) performs
//
//   A^{-1} <- A^{-1} - (A^{-1} f f^T A^{-1}) / (1 + f^T A^{-1} f)
//   b      <- b + y f
//   w      <- A^{-1} b
//
// all in O(d^2). The same A^{-1} doubles as the per-user covariance
// proxy the LinUCB bandit (core/bandit.h) uses for its uncertainty
// term sqrt(f^T A^{-1} f).
#ifndef VELOX_LINALG_SHERMAN_MORRISON_H_
#define VELOX_LINALG_SHERMAN_MORRISON_H_

#include <cstdint>

#include "linalg/matrix.h"
#include "linalg/vector.h"

namespace velox {

class ShermanMorrisonSolver {
 public:
  ShermanMorrisonSolver() = default;
  // A^{-1} starts at (1/lambda) I — the inverse of the λI regularizer.
  ShermanMorrisonSolver(size_t dim, double lambda);

  size_t dim() const { return b_.dim(); }
  int64_t num_examples() const { return num_examples_; }
  double lambda() const { return lambda_; }

  // Centers the ridge prior at `prior_mean` instead of zero: the
  // solution becomes argmin ||Fw − Y||² + λ||w − w₀||², i.e.
  // (FᵀF + λI) w = FᵀY + λ w₀, so with no data Weights() == w₀. This is
  // how online updates continue from offline-trained weights instead of
  // relearning from scratch. Only valid before any AddExample.
  void SetPriorMean(const DenseVector& prior_mean);

  // Absorbs one example in O(d^2).
  void AddExample(const DenseVector& features, double label);

  // Current ridge weights w = A^{-1} b; O(d^2).
  DenseVector Weights() const;
  // Weights() written into `out` (dim() entries) without allocating.
  void WeightsInto(double* out) const;

  // Predictive uncertainty sqrt(f^T A^{-1} f) — the LinUCB bonus.
  double Uncertainty(const DenseVector& features) const;

  const DenseMatrix& a_inverse() const { return a_inv_; }
  const DenseVector& b() const { return b_; }

  // Rebuilds a solver from previously exported state (a_inverse(),
  // b(), lambda(), num_examples()) — bit-exact: a restored solver
  // applies future AddExample calls identically to the original.
  // Used by user-weight snapshots (storage/snapshot.h).
  static ShermanMorrisonSolver FromState(double lambda, DenseMatrix a_inv,
                                         DenseVector b, int64_t num_examples);

 private:
  DenseMatrix a_inv_;
  DenseVector b_;
  double lambda_ = 1.0;
  int64_t num_examples_ = 0;
  // Scratch reused across updates to avoid per-observation allocation
  // on the hot serving path.
  mutable DenseVector scratch_;
};

}  // namespace velox

#endif  // VELOX_LINALG_SHERMAN_MORRISON_H_
