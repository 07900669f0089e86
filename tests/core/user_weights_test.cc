#include "core/user_weights.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/random.h"
#include "storage/snapshot.h"

namespace velox {
namespace {

UserWeightStoreOptions Opts(UpdateStrategy strategy, size_t dim = 3,
                            double lambda = 0.5) {
  UserWeightStoreOptions opts;
  opts.dim = dim;
  opts.lambda = lambda;
  opts.strategy = strategy;
  opts.num_stripes = 8;
  return opts;
}

TEST(UserWeightStoreTest, UnknownUserIsNotFound) {
  UserWeightStore store(Opts(UpdateStrategy::kShermanMorrison), nullptr);
  EXPECT_TRUE(store.GetWeights(1).status().IsNotFound());
  EXPECT_FALSE(store.HasUser(1));
  EXPECT_EQ(store.Epoch(1), 0u);
  EXPECT_EQ(store.NumObservations(1), 0);
  EXPECT_EQ(store.num_users(), 0u);
}

TEST(UserWeightStoreTest, BootstrapCreatesUserWithGivenWeights) {
  UserWeightStore store(Opts(UpdateStrategy::kShermanMorrison), nullptr);
  DenseVector boot = {1.0, 2.0, 3.0};
  DenseVector w = store.GetOrBootstrapWeights(42, boot);
  EXPECT_EQ(w, boot);
  EXPECT_TRUE(store.HasUser(42));
  // Second call returns the stored weights, not the new bootstrap.
  DenseVector other = {9.0, 9.0, 9.0};
  EXPECT_EQ(store.GetOrBootstrapWeights(42, other), boot);
}

// The epoch comes from the same locked read as the weights: a created
// user reports 0, and after an update both move together.
TEST(UserWeightStoreTest, GetOrBootstrapWeightsReportsEpochOfTheSameRead) {
  UserWeightStore store(Opts(UpdateStrategy::kShermanMorrison), nullptr);
  DenseVector boot = {1.0, 2.0, 3.0};
  uint64_t epoch = 99;
  EXPECT_EQ(store.GetOrBootstrapWeights(5, boot, &epoch), boot);
  EXPECT_EQ(epoch, 0u);

  store.SeedUser(1, DenseVector{1.0, 0.0, 0.0}, 1);
  store.SeedUser(1, DenseVector{0.0, 1.0, 0.0}, 2);
  auto updated = store.ApplyObservation(1, DenseVector{1.0, 1.0, 0.0}, 3.0);
  ASSERT_TRUE(updated.ok());
  DenseVector w = store.GetOrBootstrapWeights(1, boot, &epoch);
  EXPECT_EQ(w, updated->new_weights);
  EXPECT_EQ(epoch, updated->new_epoch);
  EXPECT_EQ(epoch, store.Epoch(1));
  EXPECT_EQ(epoch, 2u);  // one replace + one observation
}

// The batched form against each branch's own arithmetic: an unknown
// user, a user with no observations yet, a user with solver state (a
// replica solver fed the same examples), and the naive strategy's
// count proxy — bit for bit, for every item of the batch.
TEST(UserWeightStoreTest, UncertaintiesMatchEachBranchBitForBit) {
  const double lambda = 0.5;
  for (UpdateStrategy strategy :
       {UpdateStrategy::kShermanMorrison, UpdateStrategy::kNaiveNormalEquations}) {
    UserWeightStore store(Opts(strategy, 3, lambda), nullptr);
    store.SeedUser(1, DenseVector{0.5, -0.25, 1.0}, 1);  // no observations
    ShermanMorrisonSolver replica(3, lambda);
    replica.SetPriorMean(DenseVector(3));  // observe-first, no bootstrapper
    Rng rng(17);
    constexpr int kObservations = 7;
    for (int i = 0; i < kObservations; ++i) {
      DenseVector f = {rng.Gaussian(), rng.Gaussian(), rng.Gaussian()};
      double y = rng.Gaussian();
      ASSERT_TRUE(store.ApplyObservation(2, f, y).ok());
      replica.AddExample(f, y);
    }
    std::vector<DenseVector> feats;
    for (int i = 0; i < 9; ++i) {
      feats.push_back(DenseVector{rng.Gaussian(), rng.Gaussian(), rng.Gaussian()});
    }
    std::vector<const DenseVector*> ptrs;
    for (const DenseVector& f : feats) ptrs.push_back(&f);
    const bool sm = strategy == UpdateStrategy::kShermanMorrison;
    for (uint64_t uid : {1u, 2u, 404u}) {
      std::vector<double> batch(ptrs.size(), -1.0);
      store.Uncertainties(uid, ptrs, batch.data());
      for (size_t i = 0; i < feats.size(); ++i) {
        double expected = 1.0;  // unknown user, or naive with no data
        if (uid == 1 && sm) expected = feats[i].Norm2() / std::sqrt(lambda);
        if (uid == 2) {
          expected = sm ? replica.Uncertainty(feats[i])
                        : 1.0 / std::sqrt(1.0 + static_cast<double>(kObservations));
        }
        EXPECT_EQ(batch[i], expected)
            << UpdateStrategyName(strategy) << " uid " << uid << " item " << i;
        EXPECT_EQ(store.Uncertainty(uid, feats[i]), expected);
      }
    }
  }
}

TEST(UserWeightStoreTest, SeedUserInstallsWeightsAndBumpsEpochOnReplace) {
  UserWeightStore store(Opts(UpdateStrategy::kShermanMorrison), nullptr);
  store.SeedUser(1, DenseVector{1.0, 0.0, 0.0}, 1);
  uint64_t e1 = store.Epoch(1);
  store.SeedUser(1, DenseVector{0.0, 1.0, 0.0}, 2);
  EXPECT_GT(store.Epoch(1), e1);
  EXPECT_EQ(store.GetWeights(1).value(), (DenseVector{0.0, 1.0, 0.0}));
}

TEST(UserWeightStoreTest, ApplyObservationUpdatesWeightsAndCounters) {
  UserWeightStore store(Opts(UpdateStrategy::kShermanMorrison), nullptr);
  DenseVector f = {1.0, 0.0, 0.0};
  auto r1 = store.ApplyObservation(7, f, 2.0);
  ASSERT_TRUE(r1.ok());
  EXPECT_DOUBLE_EQ(r1->prediction_before, 0.0);  // fresh user predicts 0
  EXPECT_EQ(r1->num_observations, 1);
  EXPECT_GT(r1->new_weights.Norm2(), 0.0);
  EXPECT_EQ(store.NumObservations(7), 1);
  uint64_t e1 = store.Epoch(7);
  auto r2 = store.ApplyObservation(7, f, 2.0);
  ASSERT_TRUE(r2.ok());
  EXPECT_GT(store.Epoch(7), e1);
  // Second prediction uses post-first-update weights.
  EXPECT_GT(r2->prediction_before, 0.0);
}

TEST(UserWeightStoreTest, DimensionMismatchRejected) {
  UserWeightStore store(Opts(UpdateStrategy::kShermanMorrison), nullptr);
  EXPECT_TRUE(
      store.ApplyObservation(1, DenseVector(4), 1.0).status().IsInvalidArgument());
}

// Property: both strategies implement the same Eq. 2 — their weights
// must agree on any observation stream.
class StrategyEquivalenceTest : public ::testing::TestWithParam<size_t> {};

TEST_P(StrategyEquivalenceTest, NaiveAndShermanMorrisonAgree) {
  const size_t d = GetParam();
  UserWeightStore naive(Opts(UpdateStrategy::kNaiveNormalEquations, d), nullptr);
  UserWeightStore sm(Opts(UpdateStrategy::kShermanMorrison, d), nullptr);
  Rng rng(900 + d);
  for (int n = 0; n < 40; ++n) {
    DenseVector f(d);
    for (size_t i = 0; i < d; ++i) f[i] = rng.Gaussian();
    double y = rng.Gaussian();
    auto rn = naive.ApplyObservation(5, f, y);
    auto rs = sm.ApplyObservation(5, f, y);
    ASSERT_TRUE(rn.ok());
    ASSERT_TRUE(rs.ok());
    EXPECT_LT(MaxAbsDiff(rn->new_weights, rs->new_weights), 1e-7)
        << "dim " << d << " step " << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, StrategyEquivalenceTest,
                         ::testing::Values(1, 2, 4, 8, 16));

TEST(UserWeightStoreTest, OnlineLearningConvergesToTrueWeights) {
  const size_t d = 4;
  auto opts = Opts(UpdateStrategy::kShermanMorrison, d, 1e-4);
  UserWeightStore store(opts, nullptr);
  DenseVector truth = {2.0, -1.0, 0.5, 1.5};
  Rng rng(33);
  for (int n = 0; n < 300; ++n) {
    DenseVector f(d);
    for (size_t i = 0; i < d; ++i) f[i] = rng.Gaussian();
    ASSERT_TRUE(store.ApplyObservation(1, f, Dot(truth, f)).ok());
  }
  EXPECT_LT(MaxAbsDiff(store.GetWeights(1).value(), truth), 1e-2);
}

TEST(UserWeightStoreTest, UncertaintyDecreasesWithObservations) {
  UserWeightStore store(Opts(UpdateStrategy::kShermanMorrison), nullptr);
  DenseVector f = {1.0, 1.0, 1.0};
  store.GetOrBootstrapWeights(1, DenseVector(3));
  double before = store.Uncertainty(1, f);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(store.ApplyObservation(1, f, 1.0).ok());
  }
  EXPECT_LT(store.Uncertainty(1, f), before / 2.0);
}

TEST(UserWeightStoreTest, NaiveStrategyUsesCountProxyUncertainty) {
  UserWeightStore store(Opts(UpdateStrategy::kNaiveNormalEquations), nullptr);
  DenseVector f = {1.0, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(store.Uncertainty(99, f), 1.0);  // unknown user
  ASSERT_TRUE(store.ApplyObservation(1, f, 1.0).ok());
  ASSERT_TRUE(store.ApplyObservation(1, f, 1.0).ok());
  ASSERT_TRUE(store.ApplyObservation(1, f, 1.0).ok());
  EXPECT_NEAR(store.Uncertainty(1, f), 0.5, 1e-12);  // 1/sqrt(1+3)
}

// Regression: an observe-first cold start must seed from the same
// bootstrap source as a predict-first cold start (GetOrBootstrapWeights
// uses the bootstrap mean; ApplyObservation used to seed from zero,
// giving observe-first users a different prior and a meaningless
// prediction_before).
TEST(UserWeightStoreTest, ObserveFirstAndPredictFirstColdStartsMatch) {
  const DenseVector f = {1.0, 0.0};
  const double label = 3.0;

  // Two stores with identical non-trivial bootstrap state.
  auto make_store = [](Bootstrapper* bootstrapper) {
    UserWeightStoreOptions opts;
    opts.dim = 2;
    opts.lambda = 0.5;
    auto store = std::make_unique<UserWeightStore>(opts, bootstrapper);
    store->SeedUser(1, DenseVector{2.0, 0.0}, 1);
    store->SeedUser(2, DenseVector{0.0, 4.0}, 1);
    return store;
  };
  Bootstrapper boot_a(2);
  Bootstrapper boot_b(2);
  auto observe_first = make_store(&boot_a);
  auto predict_first = make_store(&boot_b);
  const DenseVector mean = boot_a.MeanWeights();  // [1, 2]
  ASSERT_GT(mean.Norm2(), 0.0);

  // Path A: user 99's first contact is an observation.
  auto observed = observe_first->ApplyObservation(99, f, label);
  ASSERT_TRUE(observed.ok());
  // The pre-update prediction comes from the bootstrap mean, not zero.
  EXPECT_DOUBLE_EQ(observed->prediction_before, Dot(mean, f));

  // Path B: user 99 predicts first (bootstraps), then observes.
  DenseVector initial = predict_first->GetOrBootstrapWeights(99, mean);
  EXPECT_EQ(initial, mean);
  auto after_predict = predict_first->ApplyObservation(99, f, label);
  ASSERT_TRUE(after_predict.ok());

  // Identical initial weights => identical posterior weights.
  EXPECT_DOUBLE_EQ(after_predict->prediction_before, observed->prediction_before);
  EXPECT_LT(MaxAbsDiff(observed->new_weights, after_predict->new_weights), 1e-12);
}

// The null-bootstrapper fallback stays zero-seeded (pure solver tests
// rely on it).
TEST(UserWeightStoreTest, ObserveFirstWithoutBootstrapperSeedsZero) {
  UserWeightStore store(Opts(UpdateStrategy::kShermanMorrison), nullptr);
  auto r = store.ApplyObservation(5, DenseVector{1.0, 0.0, 0.0}, 2.0);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->prediction_before, 0.0);
}

TEST(UserWeightStoreTest, BootstrapperTracksMeanAcrossUpdates) {
  Bootstrapper bootstrapper(2);
  UserWeightStoreOptions opts;
  opts.dim = 2;
  opts.lambda = 0.5;
  UserWeightStore store(opts, &bootstrapper);
  store.SeedUser(1, DenseVector{2.0, 0.0}, 1);
  store.SeedUser(2, DenseVector{0.0, 4.0}, 1);
  DenseVector mean = bootstrapper.MeanWeights();
  EXPECT_DOUBLE_EQ(mean[0], 1.0);
  EXPECT_DOUBLE_EQ(mean[1], 2.0);
  // An update keeps the running mean exact.
  ASSERT_TRUE(store.ApplyObservation(1, DenseVector{1.0, 0.0}, 10.0).ok());
  DenseVector expected = store.GetWeights(1).value();
  expected.Axpy(1.0, store.GetWeights(2).value());
  expected.Scale(0.5);
  EXPECT_LT(MaxAbsDiff(bootstrapper.MeanWeights(), expected), 1e-10);
}

TEST(UserWeightStoreTest, ResetForNewVersionReplacesPopulation) {
  Bootstrapper bootstrapper(2);
  UserWeightStoreOptions opts;
  opts.dim = 2;
  opts.lambda = 0.5;
  UserWeightStore store(opts, &bootstrapper);
  store.SeedUser(1, DenseVector{1.0, 1.0}, 1);
  ASSERT_TRUE(store.ApplyObservation(1, DenseVector{1.0, 0.0}, 3.0).ok());

  FactorMap trained;
  trained[2] = DenseVector{5.0, 5.0};
  trained[3] = DenseVector{7.0, 7.0};
  store.ResetForNewVersion(trained, 2);
  EXPECT_FALSE(store.HasUser(1));
  EXPECT_TRUE(store.HasUser(2));
  EXPECT_TRUE(store.HasUser(3));
  EXPECT_EQ(store.num_users(), 2u);
  // Online statistics were reset.
  EXPECT_EQ(store.NumObservations(2), 0);
  // Bootstrapper mean reflects the new population.
  EXPECT_DOUBLE_EQ(bootstrapper.MeanWeights()[0], 6.0);
}

TEST(UserWeightStoreTest, ResetSkipsIncompatibleDimensions) {
  UserWeightStore store(Opts(UpdateStrategy::kShermanMorrison, 3), nullptr);
  FactorMap trained;
  trained[1] = DenseVector(3);
  trained[2] = DenseVector(5);  // wrong dim — must be skipped, not crash
  store.ResetForNewVersion(trained, 1);
  EXPECT_TRUE(store.HasUser(1));
  EXPECT_FALSE(store.HasUser(2));
}

TEST(UserWeightStoreTest, ExportWeightsRoundTrips) {
  UserWeightStore store(Opts(UpdateStrategy::kShermanMorrison, 2), nullptr);
  store.SeedUser(10, DenseVector{1.0, 2.0}, 1);
  store.SeedUser(20, DenseVector{3.0, 4.0}, 1);
  FactorMap exported = store.ExportWeights();
  ASSERT_EQ(exported.size(), 2u);
  EXPECT_EQ(exported.at(10), (DenseVector{1.0, 2.0}));
  EXPECT_EQ(exported.at(20), (DenseVector{3.0, 4.0}));
}

TEST(UserWeightStoreTest, ConcurrentUpdatesToDistinctUsersAreConflictFree) {
  UserWeightStore store(Opts(UpdateStrategy::kShermanMorrison, 2), nullptr);
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&store, t] {
      Rng rng(static_cast<uint64_t>(t) + 1);
      for (int i = 0; i < 500; ++i) {
        uint64_t uid = static_cast<uint64_t>(t) * 1000 + (i % 50);
        DenseVector f = {rng.Gaussian(), rng.Gaussian()};
        ASSERT_TRUE(store.ApplyObservation(uid, f, rng.Gaussian()).ok());
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(store.num_users(), 200u);
  // Every user saw exactly 10 observations (500 / 50).
  for (uint64_t t = 0; t < 4; ++t) {
    for (uint64_t i = 0; i < 50; ++i) {
      EXPECT_EQ(store.NumObservations(t * 1000 + i), 10);
    }
  }
}

// --- ApplyObservationRun: one entry per run, the bits of one per example ---

struct ReplayOutcome {
  std::vector<uint8_t> state;
  DenseVector mean;
  std::vector<uint8_t> wal;
  size_t failed = 0;
};

std::vector<uint8_t> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
}

class ObservationRunTest
    : public ::testing::TestWithParam<std::tuple<UpdateStrategy, bool>> {
 protected:
  static constexpr size_t kDim = 4;

  // A user-grouped log like an install replay's: runs for seeded and
  // absent users, a wrong-dimension example leading one run and inside
  // another, and (naive strategy only) a NaN example whose solve fails.
  void SetUp() override {
    Rng rng(17);
    for (size_t i = 0; i < 60; ++i) {
      DenseVector f(kDim);
      for (size_t k = 0; k < kDim; ++k) f[k] = rng.Gaussian();
      factors_.push_back(std::move(f));
    }
    wrong_dim_ = DenseVector(kDim + 1);
    nan_ = DenseVector(kDim);
    nan_[1] = std::numeric_limits<double>::quiet_NaN();
    const bool naive = std::get<0>(GetParam()) == UpdateStrategy::kNaiveNormalEquations;
    for (uint64_t uid : {3, 8, 8, 11, 5, 3, 20, 21}) {  // 8 and 3 recur as runs
      const size_t length = 1 + rng.UniformU64(7);
      for (size_t e = 0; e < length; ++e) {
        const DenseVector* f = &factors_[rng.UniformU64(factors_.size())];
        if (uid == 11 && e == 0) f = &wrong_dim_;
        if (uid == 5 && e == 1) f = &wrong_dim_;
        if (uid == 21 && e == 2 && naive) f = &nan_;
        log_.push_back({uid, {f, rng.UniformDouble(1.0, 5.0)}});
      }
    }
  }

  // Seeds users 3, 5 and 8, then replays the log per example or per run.
  ReplayOutcome Replay(bool runs, const std::string& name) {
    ReplayOutcome outcome;
    const std::string wal_path = ::testing::TempDir() + "/" + name + ".wal";
    std::remove(wal_path.c_str());
    {
      std::unique_ptr<UserWeightJournal> journal;
      if (std::get<1>(GetParam())) {
        UserWeightJournalOptions jopts;
        jopts.wal_path = wal_path;
        auto opened = UserWeightJournal::Open(jopts);
        EXPECT_TRUE(opened.ok());
        journal = std::move(opened).value();
      }
      Bootstrapper boot(kDim);
      UserWeightStore store(Opts(std::get<0>(GetParam()), kDim), &boot);
      if (journal != nullptr) store.AttachJournal(journal.get());
      for (uint64_t uid : {3, 5, 8}) store.SeedUser(uid, factors_[uid], 1);
      if (runs) {
        std::vector<UserWeightStore::LoggedExample> examples;
        for (const auto& [uid, example] : log_) examples.push_back(example);
        for (size_t begin = 0, end = 0; begin < log_.size(); begin = end) {
          end = begin + 1;
          while (end < log_.size() && log_[end].first == log_[begin].first) ++end;
          outcome.failed += store.ApplyObservationRun(
              log_[begin].first,
              std::span<const UserWeightStore::LoggedExample>(examples)
                  .subspan(begin, end - begin));
        }
      } else {
        for (const auto& [uid, example] : log_) {
          if (!store.ApplyObservation(uid, *example.features, example.label).ok()) {
            ++outcome.failed;
          }
        }
      }
      outcome.state = store.SerializeState();
      outcome.mean = boot.MeanWeights();
    }
    if (std::get<1>(GetParam())) outcome.wal = ReadFileBytes(wal_path);
    return outcome;
  }

  std::vector<DenseVector> factors_;
  DenseVector wrong_dim_;
  DenseVector nan_;
  std::vector<std::pair<uint64_t, UserWeightStore::LoggedExample>> log_;
};

TEST_P(ObservationRunTest, RunsEqualPerObservationApplies) {
  const ReplayOutcome each = Replay(/*runs=*/false, "per_observation");
  const ReplayOutcome runs = Replay(/*runs=*/true, "per_run");
  EXPECT_GE(each.failed, 2u);
  EXPECT_EQ(runs.failed, each.failed);
  EXPECT_EQ(runs.state, each.state);
  ASSERT_EQ(runs.mean.dim(), each.mean.dim());
  EXPECT_EQ(std::memcmp(runs.mean.data(), each.mean.data(), kDim * sizeof(double)), 0);
  EXPECT_EQ(runs.wal, each.wal);
  if (std::get<1>(GetParam())) {
    EXPECT_GT(each.wal.size(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    StrategiesAndJournal, ObservationRunTest,
    ::testing::Combine(::testing::Values(UpdateStrategy::kShermanMorrison,
                                         UpdateStrategy::kNaiveNormalEquations),
                       ::testing::Bool()));

TEST(UpdateStrategyNameTest, Names) {
  EXPECT_STREQ(UpdateStrategyName(UpdateStrategy::kNaiveNormalEquations),
               "naive_normal_equations");
  EXPECT_STREQ(UpdateStrategyName(UpdateStrategy::kShermanMorrison),
               "sherman_morrison");
}

}  // namespace
}  // namespace velox
