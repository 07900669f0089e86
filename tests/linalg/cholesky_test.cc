#include "linalg/cholesky.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <tuple>
#include <vector>

#include "common/random.h"

namespace velox {
namespace {

// Random SPD matrix A = B B^T + eps I.
DenseMatrix RandomSpd(size_t n, uint64_t seed) {
  Rng rng(seed);
  DenseMatrix b(n, n);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < n; ++c) b.At(r, c) = rng.Gaussian();
  }
  DenseMatrix a = MatMul(b, b.Transpose());
  a.AddDiagonal(0.5);
  return a;
}

TEST(CholeskyTest, FactorReconstructsMatrix) {
  DenseMatrix a = RandomSpd(6, 11);
  auto l = CholeskyFactor(a);
  ASSERT_TRUE(l.ok());
  DenseMatrix reconstructed = MatMul(l.value(), l.value().Transpose());
  EXPECT_LT(MaxAbsDiff(a, reconstructed), 1e-9);
}

TEST(CholeskyTest, FactorIsLowerTriangular) {
  DenseMatrix a = RandomSpd(5, 13);
  auto l = CholeskyFactor(a);
  ASSERT_TRUE(l.ok());
  for (size_t r = 0; r < 5; ++r) {
    for (size_t c = r + 1; c < 5; ++c) {
      EXPECT_DOUBLE_EQ(l.value().At(r, c), 0.0);
    }
  }
}

TEST(CholeskyTest, SolveSatisfiesSystem) {
  DenseMatrix a = RandomSpd(8, 17);
  Rng rng(19);
  DenseVector b(8);
  for (size_t i = 0; i < 8; ++i) b[i] = rng.Gaussian();
  auto x = CholeskySolve(a, b);
  ASSERT_TRUE(x.ok());
  DenseVector residual = Subtract(a.Gemv(x.value()), b);
  EXPECT_LT(residual.Norm2(), 1e-9);
}

TEST(CholeskyTest, SolveIdentityReturnsRhs) {
  DenseMatrix id(4, 4);
  id.SetIdentity();
  DenseVector b = {1.0, -2.0, 3.0, -4.0};
  auto x = CholeskySolve(id, b);
  ASSERT_TRUE(x.ok());
  EXPECT_LT(MaxAbsDiff(x.value(), b), 1e-14);
}

TEST(CholeskyTest, OneByOne) {
  DenseMatrix a(1, 1);
  a.At(0, 0) = 4.0;
  auto x = CholeskySolve(a, DenseVector{8.0});
  ASSERT_TRUE(x.ok());
  EXPECT_DOUBLE_EQ(x.value()[0], 2.0);
}

TEST(CholeskyTest, NonSquareRejected) {
  DenseMatrix a(2, 3);
  EXPECT_TRUE(CholeskyFactor(a).status().IsInvalidArgument());
}

TEST(CholeskyTest, IndefiniteMatrixRejected) {
  DenseMatrix a(2, 2);
  a.At(0, 0) = 1.0;
  a.At(1, 1) = -1.0;
  EXPECT_TRUE(CholeskyFactor(a).status().IsInvalidArgument());
}

TEST(CholeskyTest, SingularMatrixRejected) {
  DenseMatrix a(2, 2);  // all zeros
  EXPECT_TRUE(CholeskyFactor(a).status().IsInvalidArgument());
}

TEST(CholeskyTest, SolveWithFactorDimensionMismatch) {
  DenseMatrix a = RandomSpd(3, 23);
  auto l = CholeskyFactor(a);
  ASSERT_TRUE(l.ok());
  EXPECT_TRUE(
      CholeskySolveWithFactor(l.value(), DenseVector(4)).status().IsInvalidArgument());
}

TEST(SpdInverseTest, InverseTimesMatrixIsIdentity) {
  DenseMatrix a = RandomSpd(6, 29);
  auto inv = SpdInverse(a);
  ASSERT_TRUE(inv.ok());
  DenseMatrix product = MatMul(a, inv.value());
  DenseMatrix id(6, 6);
  id.SetIdentity();
  EXPECT_LT(MaxAbsDiff(product, id), 1e-9);
}

TEST(SpdInverseTest, DiagonalMatrix) {
  DenseMatrix a(3, 3);
  a.At(0, 0) = 2.0;
  a.At(1, 1) = 4.0;
  a.At(2, 2) = 8.0;
  auto inv = SpdInverse(a);
  ASSERT_TRUE(inv.ok());
  EXPECT_NEAR(inv.value().At(0, 0), 0.5, 1e-12);
  EXPECT_NEAR(inv.value().At(1, 1), 0.25, 1e-12);
  EXPECT_NEAR(inv.value().At(2, 2), 0.125, 1e-12);
}

// Parameterized scaling check: solve residual stays tiny across sizes.
class CholeskySizeTest : public ::testing::TestWithParam<size_t> {};

TEST_P(CholeskySizeTest, ResidualTinyAcrossSizes) {
  size_t n = GetParam();
  DenseMatrix a = RandomSpd(n, 31 + n);
  Rng rng(37 + n);
  DenseVector b(n);
  for (size_t i = 0; i < n; ++i) b[i] = rng.Gaussian();
  auto x = CholeskySolve(a, b);
  ASSERT_TRUE(x.ok());
  EXPECT_LT(Subtract(a.Gemv(x.value()), b).Norm2() / (1.0 + b.Norm2()), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CholeskySizeTest,
                         ::testing::Values(1, 2, 3, 5, 10, 25, 50, 100));

// --- CholeskySolveLanes4: four systems per vector, bit for bit ---

// The scalar kernels' loops (CholeskyFactorInPlace, then
// CholeskySolveInPlace), kept here as the reference each lane must
// reproduce. Returns false where the factorization fails.
bool ReferenceFactorSolve(std::vector<double> a, size_t n, std::vector<double>* b) {
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j <= i; ++j) {
      double sum = a[i * n + j];
      for (size_t k = 0; k < j; ++k) sum -= a[i * n + k] * a[j * n + k];
      if (i == j) {
        if (sum <= 0.0 || !std::isfinite(sum)) return false;
        a[i * n + i] = std::sqrt(sum);
      } else {
        a[i * n + j] = sum / a[j * n + j];
      }
    }
  }
  std::vector<double>& x = *b;
  for (size_t i = 0; i < n; ++i) {
    double sum = x[i];
    for (size_t k = 0; k < i; ++k) sum -= a[i * n + k] * x[k];
    x[i] = sum / a[i * n + i];
  }
  for (size_t ii = n; ii-- > 0;) {
    double sum = x[ii];
    for (size_t k = ii + 1; k < n; ++k) sum -= a[k * n + ii] * x[k];
    x[ii] = sum / a[ii * n + ii];
  }
  return true;
}

struct System {
  std::vector<double> a;  // n×n row-major
  std::vector<double> b;
};

// A random SPD system whose strict upper triangle is NaN: the kernels
// must never read it.
System RandomSystem(size_t n, uint64_t seed) {
  DenseMatrix spd = RandomSpd(n, seed);
  Rng rng(seed + 1);
  System s{std::vector<double>(n * n), std::vector<double>(n)};
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      s.a[i * n + j] = j <= i ? spd.At(i, j) : std::numeric_limits<double>::quiet_NaN();
    }
    s.b[i] = rng.Gaussian();
  }
  return s;
}

bool BitEqual(double x, double y) { return std::memcmp(&x, &y, sizeof(double)) == 0; }

class CholeskyLanesTest
    : public ::testing::TestWithParam<std::tuple<size_t, KernelIsa>> {
 protected:
  void SetUp() override {
    if (std::get<1>(GetParam()) == KernelIsa::kAvx2 &&
        BestKernelIsa() != KernelIsa::kAvx2) {
      GTEST_SKIP() << "CPU has no AVX2";
    }
  }

  size_t n() const { return std::get<0>(GetParam()); }

  // Runs the lane kernel on `systems` and each through the reference;
  // the ok mask and every solved lane's solution must match exactly.
  void ExpectLanesMatchReference(const std::vector<System>& systems,
                                 unsigned expected_mask) {
    const size_t n = this->n();
    std::vector<double> a(n * n * 4);
    std::vector<double> b(n * 4);
    for (size_t k = 0; k < 4; ++k) {
      for (size_t e = 0; e < n * n; ++e) a[e * 4 + k] = systems[k].a[e];
      for (size_t i = 0; i < n; ++i) b[i * 4 + k] = systems[k].b[i];
    }
    const unsigned mask = CholeskySolveLanes4(a.data(), n, b.data(), std::get<1>(GetParam()));
    EXPECT_EQ(mask, expected_mask);
    for (size_t k = 0; k < 4; ++k) {
      std::vector<double> x = systems[k].b;
      const bool ok = ReferenceFactorSolve(systems[k].a, n, &x);
      ASSERT_EQ(((mask >> k) & 1u) != 0, ok) << "lane " << k;
      if (!ok) continue;
      for (size_t i = 0; i < n; ++i) {
        EXPECT_TRUE(BitEqual(b[i * 4 + k], x[i]))
            << "lane " << k << " entry " << i << ": " << b[i * 4 + k] << " vs " << x[i];
      }
    }
  }
};

TEST_P(CholeskyLanesTest, FourRandomSystemsMatchTheScalarLoops) {
  ExpectLanesMatchReference({RandomSystem(n(), 41), RandomSystem(n(), 43),
                             RandomSystem(n(), 47), RandomSystem(n(), 53)},
                            0xF);
}

TEST_P(CholeskyLanesTest, NotPositiveDefiniteLaneFailsAlone) {
  // Lane 2's last pivot goes negative; its neighbours still solve.
  System bad = RandomSystem(n(), 59);
  bad.a[(n() - 1) * n() + (n() - 1)] = -1e6;
  ExpectLanesMatchReference(
      {RandomSystem(n(), 61), RandomSystem(n(), 67), bad, RandomSystem(n(), 71)},
      0xB);
}

TEST_P(CholeskyLanesTest, SignedZerosInfinitiesAndNaNStayInTheirLanes) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const size_t n = this->n();
  // Lane 0: a diagonal system with ±0 off the diagonal and in b.
  System zeros = RandomSystem(n, 73);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < i; ++j) zeros.a[i * n + j] = (i + j) % 2 == 0 ? 0.0 : -0.0;
    zeros.a[i * n + i] = 1.0 + static_cast<double>(i);
    zeros.b[i] = i % 2 == 0 ? -0.0 : 0.0;
  }
  // Lane 1: +inf on the last row; lane 3: NaN there; lane 2: a -0.0
  // pivot (sum <= 0 fails) for rank 1, -inf elsewhere.
  System with_inf = RandomSystem(n, 79);
  with_inf.a[(n - 1) * n] = inf;
  System with_nan = RandomSystem(n, 83);
  with_nan.a[(n - 1) * n + (n - 1)] = nan;
  System negative = RandomSystem(n, 89);
  negative.a[(n - 1) * n] = n == 1 ? -0.0 : -inf;
  ExpectLanesMatchReference({zeros, with_inf, negative, with_nan}, 0x1);
}

INSTANTIATE_TEST_SUITE_P(
    RanksAndBuilds, CholeskyLanesTest,
    ::testing::Combine(::testing::Values(size_t{1}, size_t{3}, size_t{10}, size_t{17}),
                       ::testing::Values(KernelIsa::kPortable, KernelIsa::kAvx2)));

}  // namespace
}  // namespace velox
