// Cholesky factorization and SPD solves — the O(d^3) "naive
// implementation" path of the paper's Eq. 2 normal-equation update
// (and the per-step solver inside ALS).
#ifndef VELOX_LINALG_CHOLESKY_H_
#define VELOX_LINALG_CHOLESKY_H_

#include <cstddef>

#include "common/result.h"
#include "linalg/kernel_isa.h"
#include "linalg/matrix.h"
#include "linalg/vector.h"

namespace velox {

// Computes the lower-triangular L with A = L L^T. Fails with
// InvalidArgument if A is not square or not (numerically) positive
// definite.
Result<DenseMatrix> CholeskyFactor(const DenseMatrix& a);

// Solves A x = b for SPD A via Cholesky. O(n^3).
Result<DenseVector> CholeskySolve(const DenseMatrix& a, const DenseVector& b);

// Solves L y = b (forward) then L^T x = y (backward) given the factor.
Result<DenseVector> CholeskySolveWithFactor(const DenseMatrix& l, const DenseVector& b);

// Inverse of SPD A via Cholesky (used to seed Sherman-Morrison state).
Result<DenseMatrix> SpdInverse(const DenseMatrix& a);

// The kernels behind the functions above, on raw row-major n×n
// storage. CholeskyFactorInPlace reads only the lower triangle (j ≤ i)
// of `a` and overwrites it with L; the strict upper triangle is neither
// read nor written. Returns false if `a` is not (numerically) positive
// definite, leaving it partly overwritten. CholeskySolveInPlace
// overwrites `b` with the solution of L Lᵀ x = b, reading only L's
// lower triangle.
bool CholeskyFactorInPlace(double* a, size_t n);
void CholeskySolveInPlace(const double* l, size_t n, double* b);

// Factors and solves four independent n×n systems at once, one per
// vector lane. `a` holds the four matrices interleaved by lane — entry
// (i, j) of system k at a[(i * n + j) * 4 + k] — and `b` their
// right-hand sides, entry i of system k at b[i * 4 + k]. Lane k runs
// exactly CholeskyFactorInPlace then CholeskySolveInPlace on system k:
// the same lower-triangle reads and the same IEEE operations in the
// same order, so its solution is bit-identical to theirs. Returns a
// mask whose bit k is set when system k is (numerically) positive
// definite; lane k of `b` then holds its solution. A failing lane
// leaves its own entries unspecified and changes no other lane.
unsigned CholeskySolveLanes4(double* a, size_t n, double* b,
                             KernelIsa isa = BestKernelIsa());

}  // namespace velox

#endif  // VELOX_LINALG_CHOLESKY_H_
