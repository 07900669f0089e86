#include "linalg/sherman_morrison.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/random.h"
#include "linalg/cholesky.h"
#include "linalg/ridge.h"

namespace velox {
namespace {

TEST(ShermanMorrisonTest, InitialInverseIsScaledIdentity) {
  ShermanMorrisonSolver sm(3, 0.5);
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = 0; j < 3; ++j) {
      EXPECT_DOUBLE_EQ(sm.a_inverse().At(i, j), i == j ? 2.0 : 0.0);
    }
  }
  EXPECT_EQ(sm.num_examples(), 0);
  EXPECT_DOUBLE_EQ(sm.Weights().Norm2(), 0.0);
}

TEST(ShermanMorrisonTest, SingleExampleMatchesClosedForm) {
  // After one example f with label y, A = lambda I + f f^T and
  // w = A^{-1} (y f).
  double lambda = 0.3;
  ShermanMorrisonSolver sm(2, lambda);
  DenseVector f = {1.0, 2.0};
  sm.AddExample(f, 3.0);

  DenseMatrix a(2, 2);
  a.AddDiagonal(lambda);
  a.Ger(1.0, f, f);
  DenseVector b = f;
  b.Scale(3.0);
  auto expected = CholeskySolve(a, b);
  ASSERT_TRUE(expected.ok());
  EXPECT_LT(MaxAbsDiff(sm.Weights(), expected.value()), 1e-10);
}

// The core equivalence property (the paper's claim that Eq. 2 "can be
// maintained in time quadratic in d using the Sherman-Morrison
// formula"): after any number of rank-one updates, the incremental
// weights equal the O(d^3) normal-equation solve. Parameterized over
// dimensions.
class SmEquivalenceTest : public ::testing::TestWithParam<size_t> {};

TEST_P(SmEquivalenceTest, MatchesNaiveNormalEquations) {
  const size_t d = GetParam();
  const double lambda = 0.2;
  ShermanMorrisonSolver sm(d, lambda);
  RidgeAccumulator acc(d);
  Rng rng(100 + d);
  for (int n = 0; n < 60; ++n) {
    DenseVector f(d);
    for (size_t i = 0; i < d; ++i) f[i] = rng.Gaussian();
    double y = rng.Gaussian();
    sm.AddExample(f, y);
    acc.AddExample(f, y);
  }
  auto naive = acc.Solve(lambda);
  ASSERT_TRUE(naive.ok());
  EXPECT_LT(MaxAbsDiff(sm.Weights(), naive.value()), 1e-7);
}

INSTANTIATE_TEST_SUITE_P(Dims, SmEquivalenceTest,
                         ::testing::Values(1, 2, 3, 5, 8, 16, 32, 64));

TEST(ShermanMorrisonTest, InverseTracksTrueInverse) {
  const size_t d = 4;
  const double lambda = 0.5;
  ShermanMorrisonSolver sm(d, lambda);
  DenseMatrix a(d, d);
  a.AddDiagonal(lambda);
  Rng rng(77);
  for (int n = 0; n < 25; ++n) {
    DenseVector f(d);
    for (size_t i = 0; i < d; ++i) f[i] = rng.Gaussian();
    sm.AddExample(f, 1.0);
    a.Ger(1.0, f, f);
  }
  auto true_inv = SpdInverse(a);
  ASSERT_TRUE(true_inv.ok());
  EXPECT_LT(MaxAbsDiff(sm.a_inverse(), true_inv.value()), 1e-8);
}

TEST(ShermanMorrisonTest, UncertaintyShrinksAlongObservedDirection) {
  ShermanMorrisonSolver sm(2, 1.0);
  DenseVector e1 = {1.0, 0.0};
  DenseVector e2 = {0.0, 1.0};
  double before = sm.Uncertainty(e1);
  for (int i = 0; i < 10; ++i) sm.AddExample(e1, 1.0);
  double after = sm.Uncertainty(e1);
  EXPECT_LT(after, before / 2.0);
  // The orthogonal direction is untouched.
  EXPECT_NEAR(sm.Uncertainty(e2), 1.0, 1e-9);
}

TEST(ShermanMorrisonTest, UncertaintyMatchesQuadraticForm) {
  const size_t d = 3;
  ShermanMorrisonSolver sm(d, 0.7);
  Rng rng(41);
  for (int n = 0; n < 15; ++n) {
    DenseVector f(d);
    for (size_t i = 0; i < d; ++i) f[i] = rng.Gaussian();
    sm.AddExample(f, rng.Gaussian());
  }
  DenseVector probe = {0.3, -0.5, 1.1};
  double direct = sm.Uncertainty(probe);
  DenseVector ainv_f = sm.a_inverse().Gemv(probe);
  EXPECT_NEAR(direct * direct, Dot(probe, ainv_f), 1e-10);
}

TEST(ShermanMorrisonTest, LearnsNoiselessLinearModel) {
  const size_t d = 4;
  ShermanMorrisonSolver sm(d, 1e-6);
  DenseVector truth = {1.0, -2.0, 0.5, 3.0};
  Rng rng(55);
  for (int n = 0; n < 200; ++n) {
    DenseVector f(d);
    for (size_t i = 0; i < d; ++i) f[i] = rng.Gaussian();
    sm.AddExample(f, Dot(truth, f));
  }
  EXPECT_LT(MaxAbsDiff(sm.Weights(), truth), 1e-3);
}

TEST(ShermanMorrisonTest, ZeroFeatureVectorIsHarmless) {
  ShermanMorrisonSolver sm(3, 1.0);
  DenseVector zero(3);
  sm.AddExample(zero, 5.0);
  EXPECT_EQ(sm.num_examples(), 1);
  EXPECT_DOUBLE_EQ(sm.Weights().Norm2(), 0.0);
  EXPECT_DOUBLE_EQ(sm.Uncertainty(zero), 0.0);
}

TEST(ShermanMorrisonTest, LongRunNumericalStability) {
  // 20k rank-one updates: the incrementally maintained inverse must not
  // drift measurably from the ground-truth solve — floating-point error
  // accumulation stays bounded for SPD updates.
  const size_t d = 8;
  const double lambda = 0.3;
  ShermanMorrisonSolver sm(d, lambda);
  RidgeAccumulator acc(d);
  Rng rng(123);
  for (int n = 0; n < 20000; ++n) {
    DenseVector f(d);
    for (size_t i = 0; i < d; ++i) f[i] = rng.Gaussian();
    double y = rng.Gaussian();
    sm.AddExample(f, y);
    acc.AddExample(f, y);
  }
  auto truth = acc.Solve(lambda);
  ASSERT_TRUE(truth.ok());
  // Relative tolerance: weights shrink as n grows, compare normalized.
  double scale = std::max(truth.value().Norm2(), 1e-12);
  EXPECT_LT(MaxAbsDiff(sm.Weights(), truth.value()) / scale, 1e-6);
}

TEST(ShermanMorrisonTest, PriorMeanMakesWeightsStartThere) {
  ShermanMorrisonSolver sm(3, 0.7);
  DenseVector prior = {1.0, -2.0, 0.5};
  sm.SetPriorMean(prior);
  EXPECT_LT(MaxAbsDiff(sm.Weights(), prior), 1e-12);
  // And the posterior matches the closed-form prior-centered ridge.
  Rng rng(9);
  RidgeAccumulator acc(3);
  for (int n = 0; n < 25; ++n) {
    DenseVector f = {rng.Gaussian(), rng.Gaussian(), rng.Gaussian()};
    double y = rng.Gaussian();
    sm.AddExample(f, y);
    acc.AddExample(f, y);
  }
  auto truth = acc.SolveWithPrior(0.7, prior);
  ASSERT_TRUE(truth.ok());
  EXPECT_LT(MaxAbsDiff(sm.Weights(), truth.value()), 1e-9);
}

// --- The four-rows-per-vector products against the scalar loops ---

// out[r] = Σ_c m[r][c]·x[c], summed from +0.0 in column order: the
// loop the solver's two matrix–vector products used to run.
std::vector<double> ScalarGemv(const std::vector<double>& m, size_t rows, size_t cols,
                               const std::vector<double>& x) {
  std::vector<double> out(rows);
  for (size_t r = 0; r < rows; ++r) {
    double s = 0.0;
    for (size_t c = 0; c < cols; ++c) s += m[r * cols + c] * x[c];
    out[r] = s;
  }
  return out;
}

bool BitEqual(const std::vector<double>& a, const double* b) {
  return std::memcmp(a.data(), b, a.size() * sizeof(double)) == 0;
}

TEST(GemvRowsTest, EachBuildMatchesTheScalarLoopBitForBit) {
  const double inf = std::numeric_limits<double>::infinity();
  Rng rng(11);
  for (size_t rows : {1, 3, 4, 5, 8, 10, 17}) {
    for (size_t cols : {1, 3, 10, 17}) {
      std::vector<double> m(rows * cols);
      std::vector<double> x(cols);
      for (double& v : m) v = rng.Gaussian();
      for (double& v : x) v = rng.Gaussian();
      // Signed zeros everywhere in row 0 (whose sum must stay +0.0 or
      // -0.0 exactly as the scalar loop leaves it), an infinity in the
      // last row and a NaN in x for the widest case.
      for (size_t c = 0; c < cols; ++c) m[c] = c % 2 == 0 ? -0.0 : 0.0;
      m[(rows - 1) * cols] = rows > 1 ? inf : m[(rows - 1) * cols];
      if (cols == 17) x[16] = std::numeric_limits<double>::quiet_NaN();
      const std::vector<double> expected = ScalarGemv(m, rows, cols, x);
      for (KernelIsa isa : {KernelIsa::kPortable, KernelIsa::kAvx2}) {
        if (isa == KernelIsa::kAvx2 && BestKernelIsa() != KernelIsa::kAvx2) continue;
        std::vector<double> out(rows, 7.0);
        GemvRowsInto(m.data(), rows, cols, x.data(), out.data(), isa);
        EXPECT_TRUE(BitEqual(expected, out.data())) << rows << "x" << cols;
      }
    }
  }
}

TEST(ShermanMorrisonTest, VectorProductsMatchTheScalarLoopsBitForBit) {
  // A scalar Sherman–Morrison alongside the solver: u = A⁻¹f and
  // w = A⁻¹b by the scalar loop, the same update arithmetic otherwise.
  for (size_t d : {1, 3, 10, 17}) {
    const double lambda = 0.4;
    ShermanMorrisonSolver sm(d, lambda);
    std::vector<double> a_inv(d * d, 0.0);
    for (size_t i = 0; i < d; ++i) a_inv[i * d + i] = 1.0 / lambda;
    std::vector<double> b(d, 0.0);
    Rng rng(d);
    for (int step = 0; step < 25; ++step) {
      DenseVector f(d);
      for (size_t i = 0; i < d; ++i) f[i] = step % 5 == 0 && i % 2 == 1 ? -0.0 : rng.Gaussian();
      const double y = rng.Gaussian();
      sm.AddExample(f, y);

      const std::vector<double> u = ScalarGemv(a_inv, d, d, f.values());
      double quad = 0.0;
      {
        DenseVector uv(u);
        quad = Dot(f, uv);
      }
      const double alpha = -1.0 / (1.0 + quad);
      for (size_t r = 0; r < d; ++r) {
        const double ax = alpha * u[r];
        if (ax == 0.0) continue;
        for (size_t c = 0; c < d; ++c) a_inv[r * d + c] += ax * u[c];
      }
      for (size_t i = 0; i < d; ++i) b[i] += y * f[i];

      ASSERT_TRUE(BitEqual(a_inv, sm.a_inverse().RowPtr(0))) << "d " << d;
      DenseVector w(d);
      sm.WeightsInto(w.data());
      ASSERT_TRUE(BitEqual(ScalarGemv(a_inv, d, d, b), w.data())) << "d " << d;
    }
  }
}

TEST(ShermanMorrisonDeathTest, PriorAfterDataAborts) {
  ShermanMorrisonSolver sm(2, 1.0);
  sm.AddExample(DenseVector{1.0, 0.0}, 1.0);
  EXPECT_DEATH(sm.SetPriorMean(DenseVector{1.0, 1.0}), "Check failed");
}

TEST(ShermanMorrisonDeathTest, DimensionMismatchAborts) {
  ShermanMorrisonSolver sm(2, 1.0);
  EXPECT_DEATH(sm.AddExample(DenseVector(3), 1.0), "Check failed");
}

}  // namespace
}  // namespace velox
