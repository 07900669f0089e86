#include "ml/als.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "batch/dataset.h"
#include "batch/executor.h"
#include "common/random.h"
#include "linalg/cholesky.h"
#include "linalg/ridge.h"

namespace velox {
namespace {

// Ratings from a planted rank-r model, optionally noisy.
std::vector<Observation> PlantedRatings(int64_t users, int64_t items, size_t rank,
                                        double noise, uint64_t seed,
                                        FactorMap* true_w = nullptr,
                                        FactorMap* true_x = nullptr) {
  Rng rng(seed);
  FactorMap w;
  FactorMap x;
  double scale = 1.0 / std::sqrt(static_cast<double>(rank));
  for (int64_t u = 0; u < users; ++u) {
    w[static_cast<uint64_t>(u)] = InitFactor(rank, scale, seed ^ 1, static_cast<uint64_t>(u));
  }
  for (int64_t i = 0; i < items; ++i) {
    x[static_cast<uint64_t>(i)] = InitFactor(rank, scale, seed ^ 2, static_cast<uint64_t>(i));
  }
  std::vector<Observation> ratings;
  int64_t ts = 0;
  for (int64_t u = 0; u < users; ++u) {
    for (int64_t i = 0; i < items; ++i) {
      // Dense observation grid keeps the test deterministic and small.
      Observation obs;
      obs.uid = static_cast<uint64_t>(u);
      obs.item_id = static_cast<uint64_t>(i);
      obs.label = Dot(w[obs.uid], x[obs.item_id]) + rng.Gaussian(0.0, noise);
      obs.timestamp = ts++;
      ratings.push_back(obs);
    }
  }
  if (true_w != nullptr) *true_w = std::move(w);
  if (true_x != nullptr) *true_x = std::move(x);
  return ratings;
}

class AlsTest : public ::testing::Test {
 protected:
  BatchExecutor executor_{2};
};

TEST_F(AlsTest, RejectsBadInputs) {
  AlsConfig config;
  AlsTrainer trainer(config);
  EXPECT_TRUE(trainer.Train(&executor_, {}).status().IsInvalidArgument());
  EXPECT_TRUE(trainer.Train(nullptr, PlantedRatings(2, 2, 2, 0.0, 1))
                  .status()
                  .IsInvalidArgument());
}

TEST_F(AlsTest, FitsNoiselessLowRankDataToNearZeroRmse) {
  auto ratings = PlantedRatings(30, 40, 3, 0.0, 17);
  AlsConfig config;
  config.rank = 3;
  config.lambda = 1e-4;
  config.iterations = 20;
  config.seed = 5;
  AlsTrainer trainer(config);
  auto model = trainer.Train(&executor_, ratings);
  ASSERT_TRUE(model.ok());
  EXPECT_LT(MfTrainRmse(model.value(), ratings), 0.02);
}

TEST_F(AlsTest, ProducesFactorsForEveryEntity) {
  auto ratings = PlantedRatings(10, 12, 2, 0.1, 23);
  AlsConfig config;
  config.rank = 2;
  config.iterations = 3;
  AlsTrainer trainer(config);
  auto model = trainer.Train(&executor_, ratings);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model->user_factors.size(), 10u);
  EXPECT_EQ(model->item_factors.size(), 12u);
  for (const auto& [id, f] : model->user_factors) EXPECT_EQ(f.dim(), 2u);
}

TEST_F(AlsTest, RmseDecreasesWithIterations) {
  auto ratings = PlantedRatings(25, 30, 4, 0.1, 29);
  AlsConfig one;
  one.rank = 4;
  one.iterations = 1;
  AlsConfig many = one;
  many.iterations = 15;
  auto m1 = AlsTrainer(one).Train(&executor_, ratings);
  auto m15 = AlsTrainer(many).Train(&executor_, ratings);
  ASSERT_TRUE(m1.ok());
  ASSERT_TRUE(m15.ok());
  EXPECT_LE(MfTrainRmse(m15.value(), ratings), MfTrainRmse(m1.value(), ratings) + 1e-9);
}

TEST_F(AlsTest, DeterministicAcrossRuns) {
  auto ratings = PlantedRatings(12, 15, 2, 0.2, 31);
  AlsConfig config;
  config.rank = 2;
  config.iterations = 5;
  config.seed = 77;
  auto a = AlsTrainer(config).Train(&executor_, ratings);
  auto b = AlsTrainer(config).Train(&executor_, ratings);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (const auto& [uid, w] : a->user_factors) {
    EXPECT_LT(MaxAbsDiff(w, b->user_factors.at(uid)), 1e-12);
  }
}

TEST_F(AlsTest, WarmStartConvergesFasterThanColdSingleIteration) {
  auto ratings = PlantedRatings(25, 30, 3, 0.05, 37);
  AlsConfig full;
  full.rank = 3;
  full.iterations = 12;
  auto converged = AlsTrainer(full).Train(&executor_, ratings);
  ASSERT_TRUE(converged.ok());

  AlsConfig one_iter = full;
  one_iter.iterations = 1;
  auto cold = AlsTrainer(one_iter).Train(&executor_, ratings);
  auto warm = AlsTrainer(one_iter).TrainWarmStart(&executor_, ratings,
                                                  converged.value());
  ASSERT_TRUE(cold.ok());
  ASSERT_TRUE(warm.ok());
  EXPECT_LT(MfTrainRmse(warm.value(), ratings), MfTrainRmse(cold.value(), ratings));
}

TEST_F(AlsTest, WarmStartRankMismatchRejected) {
  auto ratings = PlantedRatings(5, 5, 2, 0.0, 41);
  AlsConfig config;
  config.rank = 3;
  MfModel wrong;
  wrong.rank = 2;
  wrong.user_factors[0] = DenseVector(2);
  auto r = AlsTrainer(config).TrainWarmStart(&executor_, ratings, wrong);
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

TEST_F(AlsTest, GeneralizesOnHeldOutCells) {
  FactorMap true_w;
  FactorMap true_x;
  auto all = PlantedRatings(30, 30, 2, 0.02, 43, &true_w, &true_x);
  // Hold out every 7th rating.
  std::vector<Observation> train;
  std::vector<Observation> test;
  for (size_t i = 0; i < all.size(); ++i) {
    (i % 7 == 0 ? test : train).push_back(all[i]);
  }
  AlsConfig config;
  config.rank = 2;
  config.lambda = 0.05;
  config.iterations = 15;
  auto model = AlsTrainer(config).Train(&executor_, train);
  ASSERT_TRUE(model.ok());
  double test_rmse = MfTrainRmse(model.value(), test);
  // Noise floor is 0.02; allow generalization slack.
  EXPECT_LT(test_rmse, 0.2);
}

TEST_F(AlsTest, WeightedRegularizationImprovesGeneralization) {
  // Sparse per-user data at a too-large rank: plain ALS overfits; the
  // ALS-WR variant (lambda * n_u) generalizes better on held-out cells.
  Rng rng(53);
  FactorMap w;
  FactorMap x;
  for (uint64_t u = 0; u < 60; ++u) w[u] = InitFactor(3, 0.6, 1, u);
  for (uint64_t i = 0; i < 80; ++i) x[i] = InitFactor(3, 0.6, 2, i);
  std::vector<Observation> train;
  std::vector<Observation> test;
  for (uint64_t u = 0; u < 60; ++u) {
    // Only 10 ratings per user, rank-8 model: an overfitting trap.
    for (int j = 0; j < 13; ++j) {
      uint64_t i = rng.UniformU64(80);
      Observation obs{u, i, Dot(w[u], x[i]) + rng.Gaussian(0.0, 0.3), 0};
      (j < 10 ? train : test).push_back(obs);
    }
  }
  AlsConfig plain;
  plain.rank = 8;
  plain.lambda = 0.05;
  plain.iterations = 10;
  AlsConfig wr = plain;
  wr.weighted_regularization = true;
  auto m_plain = AlsTrainer(plain).Train(&executor_, train);
  auto m_wr = AlsTrainer(wr).Train(&executor_, train);
  ASSERT_TRUE(m_plain.ok());
  ASSERT_TRUE(m_wr.ok());
  EXPECT_LT(MfTrainRmse(m_wr.value(), test), MfTrainRmse(m_plain.value(), test));
}

// --- bit-identity pins against the grouped, map-based trainer ---

// Textbook Cholesky solve with a separate factor matrix, independent of
// the in-place kernel the trainer uses.
Result<DenseVector> ReferenceCholeskySolve(const DenseMatrix& a, const DenseVector& b) {
  const size_t n = a.rows();
  DenseMatrix l(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j <= i; ++j) {
      double sum = a.At(i, j);
      for (size_t k = 0; k < j; ++k) sum -= l.At(i, k) * l.At(j, k);
      if (i == j) {
        if (sum <= 0.0 || !std::isfinite(sum)) {
          return Status::InvalidArgument("not positive definite");
        }
        l.At(i, j) = std::sqrt(sum);
      } else {
        l.At(i, j) = sum / l.At(j, j);
      }
    }
  }
  DenseVector y(n);
  for (size_t i = 0; i < n; ++i) {
    double sum = b[i];
    for (size_t k = 0; k < i; ++k) sum -= l.At(i, k) * y[k];
    y[i] = sum / l.At(i, i);
  }
  DenseVector x(n);
  for (size_t ii = n; ii-- > 0;) {
    double sum = y[ii];
    for (size_t k = ii + 1; k < n; ++k) sum -= l.At(k, ii) * x[k];
    x[ii] = sum / l.At(ii, ii);
  }
  return x;
}

// The trainer as first built on the batch substrate: Parallelize +
// GroupBy, then one RidgeAccumulator per entity over its group, solved
// by Cholesky, with hash-map factors on both sides.
MfModel ReferenceTrain(BatchExecutor* executor, const AlsConfig& config,
                       const std::vector<Observation>& ratings, const MfModel& init) {
  MfModel model;
  model.rank = config.rank;
  model.lambda = config.lambda;
  model.user_factors = init.user_factors;
  model.item_factors = init.item_factors;
  auto data = Dataset<Observation>::Parallelize(executor, ratings, config.num_partitions);
  auto by_user = data.GroupBy<uint64_t>([](const Observation& o) { return o.uid; });
  auto by_item = data.GroupBy<uint64_t>([](const Observation& o) { return o.item_id; });
  for (size_t p = 0; p < by_item.num_partitions(); ++p) {
    for (const auto& [item_id, group] : by_item.partition(p)) {
      if (model.item_factors.count(item_id) == 0) {
        model.item_factors[item_id] =
            InitFactor(config.rank, config.init_stddev, config.seed, item_id);
      }
    }
  }
  auto solve_side = [&](const Dataset<std::pair<uint64_t, std::vector<Observation>>>& groups,
                        const FactorMap& fixed, bool other_is_item) {
    FactorMap out;
    for (size_t p = 0; p < groups.num_partitions(); ++p) {
      for (const auto& [entity_id, group] : groups.partition(p)) {
        RidgeAccumulator acc(config.rank);
        for (const Observation& obs : group) {
          uint64_t other = other_is_item ? obs.item_id : obs.uid;
          auto it = fixed.find(other);
          acc.AddExample(it != fixed.end() ? it->second
                                           : InitFactor(config.rank, config.init_stddev,
                                                        config.seed, other),
                         obs.label);
        }
        double reg = config.weighted_regularization
                         ? config.lambda * static_cast<double>(acc.num_examples())
                         : config.lambda;
        DenseMatrix a = acc.ftf();
        a.AddDiagonal(reg);
        auto solved = ReferenceCholeskySolve(a, acc.fty());
        out[entity_id] = solved.ok() ? std::move(solved).value()
                                     : InitFactor(config.rank, config.init_stddev,
                                                  config.seed, entity_id);
      }
    }
    return out;
  };
  for (int iter = 0; iter < config.iterations; ++iter) {
    model.user_factors = solve_side(by_user, model.item_factors, /*other_is_item=*/true);
    model.item_factors = solve_side(by_item, model.user_factors, /*other_is_item=*/false);
  }
  return model;
}

bool BitEqual(const FactorMap& a, const FactorMap& b) {
  if (a.size() != b.size()) return false;
  for (const auto& [id, v] : a) {
    auto it = b.find(id);
    if (it == b.end() || v.dim() != it->second.dim() ||
        std::memcmp(v.data(), it->second.data(), v.dim() * sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

// Sparse ratings in shuffled order, with repeated (user, item) pairs,
// and one user and one item that appear exactly once.
std::vector<Observation> SparseRatings(uint64_t seed) {
  Rng rng(seed);
  std::vector<Observation> ratings;
  for (int n = 0; n < 900; ++n) {
    Observation obs;
    obs.uid = rng.UniformU64(70);
    obs.item_id = rng.UniformU64(90);
    obs.label = rng.UniformDouble(1.0, 5.0);
    obs.timestamp = n;
    ratings.push_back(obs);
  }
  ratings.push_back(ratings[17]);  // a repeated rating
  Observation lone_user{1000, 3, 4.5, 900};
  Observation lone_item{5, 2000, 1.5, 901};
  ratings.insert(ratings.begin() + 311, lone_user);
  ratings.insert(ratings.begin() + 512, lone_item);
  return ratings;
}

class AlsPinTest : public ::testing::TestWithParam<std::tuple<size_t, bool>> {
 protected:
  AlsConfig Config() const {
    AlsConfig config;
    config.rank = 5;
    config.lambda = 0.08;
    config.iterations = 4;
    config.seed = 99;
    config.num_partitions = std::get<0>(GetParam());
    config.weighted_regularization = std::get<1>(GetParam());
    return config;
  }
  BatchExecutor executor_{2};
};

TEST_P(AlsPinTest, ColdStartMatchesGroupedTrainerBitForBit) {
  auto ratings = SparseRatings(7);
  AlsConfig config = Config();
  MfModel empty;
  empty.rank = config.rank;
  auto model = AlsTrainer(config).Train(&executor_, ratings);
  ASSERT_TRUE(model.ok());
  MfModel reference = ReferenceTrain(&executor_, config, ratings, empty);
  EXPECT_EQ(model->user_factors.count(1000), 1u);
  EXPECT_EQ(model->item_factors.count(2000), 1u);
  EXPECT_TRUE(BitEqual(model->user_factors, reference.user_factors));
  EXPECT_TRUE(BitEqual(model->item_factors, reference.item_factors));
  EXPECT_EQ(MfTrainRmse(*model, ratings), MfTrainRmse(reference, ratings));
}

TEST_P(AlsPinTest, WarmStartFromItemFactorsMatchesBitForBit) {
  auto ratings = SparseRatings(8);
  AlsConfig config = Config();
  // Warm items for part of the catalog plus items the ratings never
  // name; the rest start from seeded factors.
  MfModel init;
  init.rank = config.rank;
  for (uint64_t i = 0; i < 120; i += 2) {
    init.item_factors[i] = InitFactor(config.rank, 0.3, 5, i);
  }
  auto model = AlsTrainer(config).TrainWarmStart(&executor_, ratings, init);
  ASSERT_TRUE(model.ok());
  MfModel reference = ReferenceTrain(&executor_, config, ratings, init);
  EXPECT_TRUE(BitEqual(model->user_factors, reference.user_factors));
  EXPECT_TRUE(BitEqual(model->item_factors, reference.item_factors));
}

TEST_P(AlsPinTest, WarmUserFactorsAloneEqualColdStart) {
  auto ratings = SparseRatings(9);
  AlsConfig config = Config();
  // Users are solved first, so warm user factors never reach the
  // result — including those of users with no ratings at all.
  MfModel init;
  init.rank = config.rank;
  for (uint64_t u = 0; u < 200; ++u) {
    init.user_factors[u] = InitFactor(config.rank, 0.4, 6, u);
  }
  auto warm = AlsTrainer(config).TrainWarmStart(&executor_, ratings, init);
  auto cold = AlsTrainer(config).Train(&executor_, ratings);
  ASSERT_TRUE(warm.ok());
  ASSERT_TRUE(cold.ok());
  MfModel reference = ReferenceTrain(&executor_, config, ratings, init);
  EXPECT_TRUE(BitEqual(warm->user_factors, cold->user_factors));
  EXPECT_TRUE(BitEqual(warm->item_factors, cold->item_factors));
  EXPECT_TRUE(BitEqual(warm->user_factors, reference.user_factors));
  EXPECT_TRUE(BitEqual(warm->item_factors, reference.item_factors));
}

TEST_P(AlsPinTest, SingleRatingEntitiesMatchBitForBit) {
  // Every entity has exactly one rating: each solve is a rank-one Gram
  // matrix plus the regularizer.
  std::vector<Observation> ratings;
  for (uint64_t k = 0; k < 40; ++k) {
    ratings.push_back(Observation{k, 100 + k, 1.0 + 0.1 * static_cast<double>(k),
                                  static_cast<int64_t>(k)});
  }
  AlsConfig config = Config();
  MfModel empty;
  empty.rank = config.rank;
  auto model = AlsTrainer(config).Train(&executor_, ratings);
  ASSERT_TRUE(model.ok());
  MfModel reference = ReferenceTrain(&executor_, config, ratings, empty);
  EXPECT_TRUE(BitEqual(model->user_factors, reference.user_factors));
  EXPECT_TRUE(BitEqual(model->item_factors, reference.item_factors));
}

INSTANTIATE_TEST_SUITE_P(PartitionsAndRegularization, AlsPinTest,
                         ::testing::Combine(::testing::Values(size_t{1}, size_t{3},
                                                              size_t{8}),
                                            ::testing::Bool()));

// --- SolveRidgeRows: the vector kernels against the scalar loop ---

// The half-step as a scalar loop per row — RidgeAccumulator::AddExample's
// arithmetic on the Gram matrix's lower triangle (zero f[i] skipped),
// then the in-place Cholesky — kept here as the reference the blocked
// accumulation and the lane solve must reproduce bit for bit.
void ReferenceSolveRows(const RatingCsr& csr, const std::vector<double>& fixed,
                        size_t rank, double lambda, bool weighted_regularization,
                        std::vector<double>* out, std::vector<uint8_t>* solved) {
  out->assign(csr.rows() * rank, 0.0);
  solved->assign(csr.rows(), 1);
  std::vector<double> gram(rank * rank);
  for (size_t r = 0; r < csr.rows(); ++r) {
    std::fill(gram.begin(), gram.end(), 0.0);
    double* x = out->data() + r * rank;
    for (size_t e = csr.offsets[r]; e < csr.offsets[r + 1]; ++e) {
      const double* f = fixed.data() + static_cast<size_t>(csr.other[e]) * rank;
      for (size_t i = 0; i < rank; ++i) {
        const double fi = f[i];
        if (fi == 0.0) continue;
        for (size_t j = 0; j <= i; ++j) gram[i * rank + j] += fi * f[j];
      }
      for (size_t i = 0; i < rank; ++i) x[i] += csr.labels[e] * f[i];
    }
    const size_t count = csr.offsets[r + 1] - csr.offsets[r];
    const double reg =
        weighted_regularization ? lambda * static_cast<double>(count) : lambda;
    for (size_t i = 0; i < rank; ++i) gram[i * rank + i] += reg;
    if (!CholeskyFactorInPlace(gram.data(), rank)) {
      (*solved)[r] = 0;
      continue;
    }
    CholeskySolveInPlace(gram.data(), rank, x);
  }
}

// Fixed-side factors: Gaussian rows, then special rows — all +0.0, -0.0
// entries, and one row each holding +inf, -inf and NaN.
constexpr size_t kFixedRows = 40;
constexpr uint32_t kZeroRow = 35, kNegZeroRow = 36, kInfRow = 37, kNegInfRow = 38,
                   kNanRow = 39;

std::vector<double> FixedFactors(size_t rank) {
  Rng rng(rank * 7 + 1);
  std::vector<double> fixed(kFixedRows * rank);
  for (double& v : fixed) v = rng.Gaussian();
  for (size_t i = 0; i < rank; ++i) {
    fixed[kZeroRow * rank + i] = 0.0;
    fixed[kNegZeroRow * rank + i] = i % 2 == 0 ? -0.0 : fixed[kNegZeroRow * rank + i];
  }
  fixed[kInfRow * rank + rank / 2] = std::numeric_limits<double>::infinity();
  fixed[kNegInfRow * rank] = -std::numeric_limits<double>::infinity();
  fixed[kNanRow * rank + rank - 1] = std::numeric_limits<double>::quiet_NaN();
  return fixed;
}

// Row 0 holds over half the ratings; then 41 light rows of 1–6 ratings,
// some against the special factor rows; the last row has none.
RatingCsr SkewedCsr() {
  Rng rng(5);
  RatingCsr csr;
  auto add = [&](uint32_t other) {
    csr.other.push_back(other);
    csr.labels.push_back(rng.UniformDouble(1.0, 5.0));
  };
  for (int e = 0; e < 400; ++e) add(static_cast<uint32_t>(rng.UniformU64(kZeroRow)));
  csr.offsets.push_back(csr.other.size());
  const uint32_t special[] = {kZeroRow, kNegZeroRow, kInfRow, kNegInfRow, kNanRow};
  for (uint32_t r = 1; r <= 41; ++r) {
    const size_t count = 1 + r % 6;
    for (size_t e = 0; e < count; ++e) {
      add(e == 0 && r % 4 == 0 ? special[(r / 4) % 5]
                               : static_cast<uint32_t>(rng.UniformU64(kZeroRow)));
    }
    csr.offsets.push_back(csr.other.size());
  }
  csr.offsets.push_back(csr.other.size());  // an empty last row
  return csr;
}

class SolveRidgeRowsTest : public ::testing::TestWithParam<size_t> {
 protected:
  // Solved flags equal; every solved row's factor equal bit for bit.
  static void ExpectSameSolution(const std::vector<double>& out,
                                 const std::vector<uint8_t>& solved,
                                 const std::vector<double>& ref_out,
                                 const std::vector<uint8_t>& ref_solved, size_t rank) {
    ASSERT_EQ(solved, ref_solved);
    for (size_t r = 0; r < solved.size(); ++r) {
      if (solved[r] == 0) continue;
      EXPECT_EQ(std::memcmp(out.data() + r * rank, ref_out.data() + r * rank,
                            rank * sizeof(double)),
                0)
          << "row " << r;
    }
  }
  BatchExecutor executor_{2};
};

TEST_P(SolveRidgeRowsTest, EachBuildMatchesTheScalarLoop) {
  const size_t rank = GetParam();
  const RatingCsr csr = SkewedCsr();
  const std::vector<double> fixed = FixedFactors(rank);
  for (bool weighted : {false, true}) {
    std::vector<double> ref_out;
    std::vector<uint8_t> ref_solved;
    ReferenceSolveRows(csr, fixed, rank, 0.3, weighted, &ref_out, &ref_solved);
    // The special factor rows sink some systems; the rest solve.
    ASSERT_GT(std::count(ref_solved.begin(), ref_solved.end(), 0), 0);
    ASSERT_GT(std::count(ref_solved.begin(), ref_solved.end(), 1), 30);
    for (KernelIsa isa : {KernelIsa::kPortable, KernelIsa::kAvx2}) {
      if (isa == KernelIsa::kAvx2 && BestKernelIsa() != KernelIsa::kAvx2) continue;
      std::vector<double> out(csr.rows() * rank);
      std::vector<uint8_t> solved(csr.rows(), 7);
      SolveRidgeRowRange(csr, fixed.data(), rank, 0.3, weighted, 0, csr.rows(), isa,
                         out.data(), solved.data());
      ExpectSameSolution(out, solved, ref_out, ref_solved, rank);
    }
  }
}

TEST_P(SolveRidgeRowsTest, RatingBalancedTasksMatchTheScalarLoop) {
  const size_t rank = GetParam();
  const RatingCsr csr = SkewedCsr();
  const std::vector<double> fixed = FixedFactors(rank);
  std::vector<double> ref_out;
  std::vector<uint8_t> ref_solved;
  ReferenceSolveRows(csr, fixed, rank, 0.3, false, &ref_out, &ref_solved);
  for (size_t tasks : {1, 2, 8}) {
    std::vector<double> out(csr.rows() * rank);
    std::vector<uint8_t> solved;
    ASSERT_TRUE(SolveRidgeRows(&executor_, "pin", csr, fixed.data(), rank, 0.3, false,
                               tasks, out.data(), &solved)
                    .ok());
    ExpectSameSolution(out, solved, ref_out, ref_solved, rank);
    // Row 0 (400 of 546 ratings) makes the first task alone; with 8
    // tasks it spans the first five shares, so four tasks stay empty
    // and are left out of the stage.
    const std::vector<StageInfo> history = executor_.stage_history();
    EXPECT_EQ(history.back().num_tasks, tasks == 8 ? 4u : tasks) << tasks << " tasks";
  }
}

INSTANTIATE_TEST_SUITE_P(Ranks, SolveRidgeRowsTest,
                         ::testing::Values(size_t{1}, size_t{3}, size_t{10}, size_t{17}));

TEST(MfModelTest, PredictOrFallsBackForUnknowns) {
  MfModel model;
  model.rank = 2;
  model.user_factors[1] = DenseVector{1.0, 0.0};
  model.item_factors[2] = DenseVector{0.0, 1.0};
  EXPECT_DOUBLE_EQ(model.PredictOr(1, 2, -9.0), 0.0);
  EXPECT_DOUBLE_EQ(model.PredictOr(99, 2, -9.0), -9.0);
  EXPECT_DOUBLE_EQ(model.PredictOr(1, 99, -9.0), -9.0);
}

TEST(MfModelTest, MeanUserFactor) {
  MfModel model;
  model.rank = 2;
  model.user_factors[1] = DenseVector{1.0, 3.0};
  model.user_factors[2] = DenseVector{3.0, 5.0};
  DenseVector mean = model.MeanUserFactor();
  EXPECT_DOUBLE_EQ(mean[0], 2.0);
  EXPECT_DOUBLE_EQ(mean[1], 4.0);
  MfModel empty;
  empty.rank = 2;
  EXPECT_DOUBLE_EQ(empty.MeanUserFactor().Norm2(), 0.0);
}

TEST(InitFactorTest, DeterministicPerEntity) {
  DenseVector a = InitFactor(4, 0.1, 7, 100);
  DenseVector b = InitFactor(4, 0.1, 7, 100);
  DenseVector c = InitFactor(4, 0.1, 7, 101);
  EXPECT_EQ(a, b);
  EXPECT_GT(MaxAbsDiff(a, c), 0.0);
}

}  // namespace
}  // namespace velox
