// RetrainScheduler: staleness-triggered retraining, version swap with
// cache invalidation + warming, and rollback — exercised through a
// full single-node VeloxServer (the scheduler's natural habitat).
#include "core/retrain_scheduler.h"

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "ml/feature_function.h"
#include "storage/snapshot.h"
#include "storage/wal.h"

#include "core/velox_server.h"
#include "data/movielens.h"

namespace velox {
namespace {

VeloxServerConfig SmallServerConfig() {
  VeloxServerConfig config;
  config.num_nodes = 1;
  config.dim = 4;
  config.lambda = 0.1;
  config.bandit_policy = "";  // greedy, deterministic
  config.evaluator.min_observations = 20;
  config.evaluator.ewma_alpha = 0.3;
  config.evaluator.staleness_threshold_ratio = 1.5;
  config.updater.cross_validation_every = 1;
  config.batch_workers = 2;
  return config;
}

std::unique_ptr<VeloxModel> SmallModel() {
  AlsConfig als;
  als.rank = 4;
  als.lambda = 0.1;
  als.iterations = 8;
  return std::make_unique<MatrixFactorizationModel>("songs", als);
}

SyntheticDataset SmallData(uint64_t seed = 11) {
  SyntheticMovieLensConfig config;
  config.num_users = 60;
  config.num_items = 80;
  config.latent_rank = 4;
  config.min_ratings_per_user = 8;
  config.max_ratings_per_user = 16;
  config.seed = seed;
  auto ds = GenerateSyntheticMovieLens(config);
  VELOX_CHECK_OK(ds.status());
  return std::move(ds).value();
}

Item MakeItem(uint64_t id) {
  Item item;
  item.id = id;
  return item;
}

// Delegates to an inner MF model but, from the second retrain on,
// corrupts one item's factor in the produced θ with a wrong-dimension
// vector — modeling a corrupt row in the batch job's output. The first
// (bootstrap) train stays clean so the server starts healthy.
class PoisonedModel final : public VeloxModel {
 public:
  PoisonedModel(std::unique_ptr<VeloxModel> inner, uint64_t poisoned_item)
      : inner_(std::move(inner)), poisoned_item_(poisoned_item) {}

  std::string name() const override { return inner_->name(); }
  size_t dim() const override { return inner_->dim(); }
  std::shared_ptr<const FeatureFunction> features() const override {
    return inner_->features();
  }

  Result<RetrainOutput> Retrain(BatchExecutor* executor,
                                const std::vector<Observation>& observations,
                                const FactorMap& current_user_weights) const override {
    VELOX_ASSIGN_OR_RETURN(
        RetrainOutput out,
        inner_->Retrain(executor, observations, current_user_weights));
    if (++retrains_ < 2) return out;
    const auto* materialized =
        dynamic_cast<const MaterializedFeatureFunction*>(out.features.get());
    VELOX_CHECK(materialized != nullptr);
    auto table = std::make_shared<MaterializedFeatureFunction::FactorTable>(
        materialized->table());
    (*table)[poisoned_item_] = DenseVector(inner_->dim() + 1);
    out.features =
        std::make_shared<MaterializedFeatureFunction>(std::move(table), inner_->dim());
    return out;
  }

 private:
  std::unique_ptr<VeloxModel> inner_;
  uint64_t poisoned_item_;
  mutable int retrains_ = 0;
};

// Delegates to an inner MF model, answering ReadsWarmUserWeights as
// told and recording how many warm user weights each retrain received.
class WarmWeightsProbeModel final : public VeloxModel {
 public:
  WarmWeightsProbeModel(std::unique_ptr<VeloxModel> inner, bool reads_warm,
                        std::vector<size_t>* received)
      : inner_(std::move(inner)), reads_warm_(reads_warm), received_(received) {}

  std::string name() const override { return inner_->name(); }
  size_t dim() const override { return inner_->dim(); }
  std::shared_ptr<const FeatureFunction> features() const override {
    return inner_->features();
  }
  bool ReadsWarmUserWeights() const override { return reads_warm_; }

  Result<RetrainOutput> Retrain(BatchExecutor* executor,
                                const std::vector<Observation>& observations,
                                const FactorMap& current_user_weights) const override {
    received_->push_back(current_user_weights.size());
    return inner_->Retrain(executor, observations, current_user_weights);
  }

 private:
  std::unique_ptr<VeloxModel> inner_;
  bool reads_warm_;
  std::vector<size_t>* received_;
};

TEST(RetrainSchedulerTest, ModelsSayWhetherRetrainReadsWarmUserWeights) {
  AlsConfig als;
  als.rank = 4;
  SgdConfig sgd;
  sgd.rank = 4;
  EXPECT_FALSE(MatrixFactorizationModel("als", als).ReadsWarmUserWeights());
  EXPECT_TRUE(MatrixFactorizationModel("sgd", sgd).ReadsWarmUserWeights());
  auto basis = std::make_shared<MaterializedFeatureFunction>(
      std::make_shared<const FactorMap>(), 4);
  auto catalog = std::make_shared<const std::unordered_map<uint64_t, Item>>();
  EXPECT_FALSE(ComputationalModel("basis", basis, catalog, 0.1).ReadsWarmUserWeights());
}

TEST(RetrainSchedulerTest, FullRetrainExportsLiveWeightsOnlyForModelsThatReadThem) {
  auto data = SmallData();
  for (bool reads_warm : {false, true}) {
    std::vector<size_t> received;
    VeloxServer server(SmallServerConfig(),
                       std::make_unique<WarmWeightsProbeModel>(SmallModel(), reads_warm,
                                                               &received));
    ASSERT_TRUE(server.Bootstrap(data.ratings).ok());
    ASSERT_TRUE(server.RetrainNow().ok());
    ASSERT_EQ(received.size(), 2u);
    // The bootstrap train has no live users yet; the retrain sees every
    // live user only when the model reads them.
    EXPECT_EQ(received[0], 0u);
    EXPECT_EQ(received[1], reads_warm ? server.user_weights(0)->num_users() : 0u)
        << "reads_warm " << reads_warm;
    if (reads_warm) {
      EXPECT_GT(received[1], 0u);
    }
  }
}

TEST(RetrainSchedulerTest, RetrainWithoutObservationsFails) {
  VeloxServer server(SmallServerConfig(), SmallModel());
  EXPECT_TRUE(server.RetrainNow().status().IsFailedPrecondition());
}

TEST(RetrainSchedulerTest, BootstrapInstallsVersionOne) {
  VeloxServer server(SmallServerConfig(), SmallModel());
  auto data = SmallData();
  ASSERT_TRUE(server.Bootstrap(data.ratings).ok());
  EXPECT_EQ(server.current_version(), 1);
  EXPECT_GT(server.TotalUsers(), 0u);
  auto history = server.VersionHistory();
  ASSERT_EQ(history.size(), 1u);
  EXPECT_TRUE(history[0].is_current);
  EXPECT_GT(history[0].training_rmse, 0.0);
}

TEST(RetrainSchedulerTest, RetrainNowBumpsVersionAndReport) {
  VeloxServer server(SmallServerConfig(), SmallModel());
  auto data = SmallData();
  ASSERT_TRUE(server.Bootstrap(data.ratings).ok());
  auto report = server.RetrainNow();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->new_version, 2);
  EXPECT_EQ(report->observations_used, data.ratings.size());
  EXPECT_GT(report->training_rmse, 0.0);
  EXPECT_EQ(server.current_version(), 2);
}

TEST(RetrainSchedulerTest, MaybeRetrainIdleWhenFresh) {
  VeloxServer server(SmallServerConfig(), SmallModel());
  auto data = SmallData();
  ASSERT_TRUE(server.Bootstrap(data.ratings).ok());
  auto retrained = server.MaybeRetrain();
  ASSERT_TRUE(retrained.ok());
  EXPECT_FALSE(retrained.value());
  EXPECT_EQ(server.current_version(), 1);
}

TEST(RetrainSchedulerTest, DriftTriggersAutoRetrain) {
  VeloxServer server(SmallServerConfig(), SmallModel());
  auto data = SmallData();
  ASSERT_TRUE(server.Bootstrap(data.ratings).ok());

  // Feed adversarial observations: labels opposite to predictions keep
  // held-out loss far above the baseline.
  for (int i = 0; i < 120; ++i) {
    uint64_t uid = static_cast<uint64_t>(i % 60);
    uint64_t item = static_cast<uint64_t>(i % 80);
    auto pred = server.Predict(uid, MakeItem(item));
    ASSERT_TRUE(pred.ok());
    double adversarial_label = pred->score > 2.75 ? 0.5 : 5.0;
    ASSERT_TRUE(server.Observe(uid, MakeItem(item), adversarial_label).ok());
  }
  EXPECT_TRUE(server.QualityReport().stale);
  auto retrained = server.MaybeRetrain();
  ASSERT_TRUE(retrained.ok());
  EXPECT_TRUE(retrained.value());
  EXPECT_EQ(server.current_version(), 2);
  // Baseline reset: no longer stale immediately after retrain.
  EXPECT_FALSE(server.QualityReport().stale);
}

TEST(RetrainSchedulerTest, SwapInvalidatesCaches) {
  VeloxServer server(SmallServerConfig(), SmallModel());
  auto data = SmallData();
  ASSERT_TRUE(server.Bootstrap(data.ratings).ok());
  // Warm caches with traffic.
  for (uint64_t i = 0; i < 40; ++i) {
    ASSERT_TRUE(server.Predict(i % 60, MakeItem(i % 80)).ok());
  }
  auto stats_before = server.AggregatedCacheStats();
  EXPECT_GT(stats_before.feature.entries, 0u);
  ASSERT_TRUE(server.RetrainNow().ok());
  auto stats_after = server.AggregatedCacheStats();
  EXPECT_GT(stats_after.feature.invalidations, 0u);
}

TEST(RetrainSchedulerTest, WarmingRepopulatesFeatureCache) {
  auto config = SmallServerConfig();
  config.retrain.warm_caches = true;
  VeloxServer server(config, SmallModel());
  auto data = SmallData();
  ASSERT_TRUE(server.Bootstrap(data.ratings).ok());
  for (uint64_t i = 0; i < 40; ++i) {
    ASSERT_TRUE(server.Predict(i % 60, MakeItem(i % 80)).ok());
  }
  auto report = server.RetrainNow();
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->warmed_features, 0u);
  EXPECT_GT(report->warmed_predictions, 0u);
  auto stats = server.AggregatedCacheStats();
  EXPECT_GT(stats.feature.entries, 0u);
}

TEST(RetrainSchedulerTest, WarmingCanBeDisabled) {
  auto config = SmallServerConfig();
  config.retrain.warm_caches = false;
  VeloxServer server(config, SmallModel());
  auto data = SmallData();
  ASSERT_TRUE(server.Bootstrap(data.ratings).ok());
  for (uint64_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(server.Predict(i % 60, MakeItem(i % 80)).ok());
  }
  auto report = server.RetrainNow();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->warmed_features, 0u);
  EXPECT_EQ(report->warmed_predictions, 0u);
}

TEST(RetrainSchedulerTest, RetrainImprovesFitOverDriftedData) {
  VeloxServer server(SmallServerConfig(), SmallModel());
  auto data = SmallData();
  ASSERT_TRUE(server.Bootstrap(data.ratings).ok());

  // A "new catalog trend": every user now loves item 0.
  for (uint64_t u = 0; u < 60; ++u) {
    ASSERT_TRUE(server.Observe(u, MakeItem(0), 5.0).ok());
  }
  ASSERT_TRUE(server.RetrainNow().ok());
  double total = 0.0;
  for (uint64_t u = 0; u < 60; ++u) {
    auto pred = server.Predict(u, MakeItem(0));
    ASSERT_TRUE(pred.ok());
    total += pred->score;
  }
  EXPECT_GT(total / 60.0, 3.5);
}

TEST(RetrainSchedulerTest, RollbackRestoresOldVersion) {
  VeloxServer server(SmallServerConfig(), SmallModel());
  auto data = SmallData();
  ASSERT_TRUE(server.Bootstrap(data.ratings).ok());
  ASSERT_TRUE(server.RetrainNow().ok());
  ASSERT_EQ(server.current_version(), 2);
  ASSERT_TRUE(server.Rollback(1).ok());
  EXPECT_EQ(server.current_version(), 1);
  // Serving still works after rollback.
  EXPECT_TRUE(server.Predict(1, MakeItem(1)).ok());
  // Unknown version rejected.
  EXPECT_TRUE(server.Rollback(99).IsNotFound());
}

TEST(RetrainSchedulerTest, WindowedRetrainForgetsContradictedHistory) {
  // Concept drift with conflicting labels for the same (user, item)
  // pairs: full-log retraining averages old and new labels; a windowed
  // retrain sees only the recent (drifted) window and fits it cleanly.
  auto run = [](int64_t window) {
    auto config = SmallServerConfig();
    config.retrain.max_observations = window;
    VeloxServer server(config, SmallModel());
    auto data = SmallData(/*seed=*/91);
    VELOX_CHECK_OK(server.Bootstrap(data.ratings));
    // Drifted stream: same pairs, inverted labels, larger than history.
    Rng rng(3);
    for (size_t i = 0; i < 2 * data.ratings.size(); ++i) {
      const Observation& obs = data.ratings[rng.UniformU64(data.ratings.size())];
      VELOX_CHECK_OK(
          server.Observe(obs.uid, MakeItem(obs.item_id), 5.5 - obs.label));
    }
    VELOX_CHECK_OK(server.RetrainNow().status());
    // Held-out fit against the *drifted* labels.
    double sq = 0.0;
    size_t n = 0;
    for (size_t i = 0; i < data.ratings.size(); i += 4) {
      const Observation& obs = data.ratings[i];
      auto pred = server.Predict(obs.uid, MakeItem(obs.item_id));
      if (!pred.ok()) continue;
      double e = pred->score - (5.5 - obs.label);
      sq += e * e;
      ++n;
    }
    return std::sqrt(sq / static_cast<double>(n));
  };
  double full_log_rmse = run(/*window=*/0);
  double windowed_rmse = run(/*window=*/800);
  EXPECT_LT(windowed_rmse, full_log_rmse);
}

TEST(RetrainSchedulerTest, WindowLargerThanLogIsFullLog) {
  auto config = SmallServerConfig();
  config.retrain.max_observations = 1'000'000;
  VeloxServer server(config, SmallModel());
  auto data = SmallData();
  ASSERT_TRUE(server.Bootstrap(data.ratings).ok());
  auto report = server.RetrainNow();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->observations_used, data.ratings.size());
}

TEST(RetrainSchedulerTest, WindowBoundsObservationsUsed) {
  auto config = SmallServerConfig();
  config.retrain.max_observations = 100;
  VeloxServer server(config, SmallModel());
  auto data = SmallData();
  ASSERT_TRUE(server.Bootstrap(data.ratings).ok());
  auto report = server.RetrainNow();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->observations_used, 100u);
}

TEST(RetrainSchedulerTest, PoisonedReplayObservationSkippedNotFatal) {
  // One corrupt entry in the retrained θ must not abort the install:
  // by replay time the caches are cleared and weights reseeded, so an
  // error would strand the server half-installed. The bad observations
  // are skipped and surfaced in the report instead.
  auto config = SmallServerConfig();
  config.retrain.warm_caches = false;  // warming would touch the bad item
  VeloxServer server(config, std::make_unique<PoisonedModel>(SmallModel(),
                                                             /*poisoned_item=*/0));
  auto data = SmallData();
  ASSERT_TRUE(server.Bootstrap(data.ratings).ok());
  // Guarantee the log holds observations of the to-be-poisoned item.
  for (uint64_t u = 0; u < 5; ++u) {
    ASSERT_TRUE(server.Observe(u, MakeItem(0), 4.0).ok());
  }
  auto report = server.RetrainNow();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->new_version, 2);
  EXPECT_EQ(server.current_version(), 2);
  EXPECT_GT(report->replay_skipped, 0u);
  EXPECT_LT(report->replay_skipped, report->observations_used);
  // Healthy items still serve after the install.
  EXPECT_TRUE(server.Predict(1, MakeItem(1)).ok());
}

TEST(RetrainSchedulerTest, WarmingKeepsHashCollidingPredictionPairs) {
  // Two distinct (uid, item) pairs engineered to collide under the
  // 64-bit mix h = uid * kMix ^ item that the warming dedup once keyed
  // on. Dedup must compare exact pairs, so both get warmed.
  constexpr uint64_t kMix = 0x9e3779b97f4a7c15ULL;
  const uint64_t uid_a = 1, uid_b = 2;
  const uint64_t item_a = 7;
  const uint64_t item_b = ((uid_a * kMix) ^ (uid_b * kMix)) ^ item_a;
  ASSERT_NE(item_a, item_b);
  ASSERT_EQ((uid_a * kMix) ^ item_a, (uid_b * kMix) ^ item_b);

  auto config = SmallServerConfig();
  config.retrain.warm_caches = true;
  VeloxServer server(config, SmallModel());
  // Both users rate both items so every retrain's θ covers both pairs.
  std::vector<Observation> ratings;
  for (int round = 0; round < 6; ++round) {
    for (uint64_t uid : {uid_a, uid_b}) {
      for (uint64_t item : {item_a, item_b}) {
        Observation obs;
        obs.uid = uid;
        obs.item_id = item;
        obs.label = uid == uid_a ? 4.0 : 2.0;
        ratings.push_back(obs);
      }
    }
  }
  ASSERT_TRUE(server.Bootstrap(ratings).ok());
  ASSERT_TRUE(server.Predict(uid_a, MakeItem(item_a)).ok());
  ASSERT_TRUE(server.Predict(uid_b, MakeItem(item_b)).ok());
  auto report = server.RetrainNow();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->warmed_predictions, 2u);
}

// --- the per-node install replay against a serial reference ---

// A fresh journal directory (fixed file names: stale files from an
// earlier run would be replayed as real state).
std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/" + name;
  ::mkdir(dir.c_str(), 0755);
  for (int n = 0; n < 4; ++n) {
    std::remove((dir + "/user_weights_node" + std::to_string(n) + ".wal").c_str());
    std::remove((dir + "/user_weights_node" + std::to_string(n) + ".snap").c_str());
  }
  return dir;
}

std::string NodeWal(const std::string& dir, int node) {
  return dir + "/user_weights_node" + std::to_string(node) + ".wal";
}

std::vector<uint8_t> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
}

UserWeightStoreOptions NodeStoreOptions(const VeloxServerConfig& config) {
  UserWeightStoreOptions options;
  options.dim = config.dim;
  options.lambda = config.lambda;
  options.strategy = config.update_strategy;
  return options;
}

// Each node's state image and WAL bytes after Bootstrap and after
// RetrainNow must equal those of a store driven serially through the
// public API: reseed from the version's W, then every observation the
// node owns, in log order, against the version's θ.
TEST(RetrainSchedulerTest, InstallReplayMatchesSerialReferenceBitForBit) {
  constexpr int kNodes = 3;
  auto config = SmallServerConfig();
  config.num_nodes = kNodes;
  config.durability.dir = FreshDir("install_replay_server");
  config.durability.wal.sync = WalSyncPolicy::kFlush;
  const std::string ref_dir = FreshDir("install_replay_reference");
  VeloxServer server(config, SmallModel());

  struct Reference {
    std::unique_ptr<UserWeightJournal> journal;
    std::unique_ptr<Bootstrapper> boot;
    std::unique_ptr<UserWeightStore> store;
  };
  std::vector<Reference> refs(kNodes);
  for (int n = 0; n < kNodes; ++n) {
    UserWeightJournalOptions jopts;
    jopts.wal_path = NodeWal(ref_dir, n);
    jopts.wal.sync = WalSyncPolicy::kFlush;
    auto journal = UserWeightJournal::Open(jopts);
    ASSERT_TRUE(journal.ok());
    refs[n].journal = std::move(journal).value();
    refs[n].boot = std::make_unique<Bootstrapper>(config.dim);
    refs[n].store =
        std::make_unique<UserWeightStore>(NodeStoreOptions(config), refs[n].boot.get());
    refs[n].store->AttachJournal(refs[n].journal.get());
  }
  auto owner = [&](uint64_t uid) {
    auto node = server.storage()->OwnerOf(uid);
    VELOX_CHECK_OK(node.status());
    return static_cast<size_t>(node.value());
  };
  auto replay_reference = [&] {
    auto version = server.registry()->Current();
    VELOX_CHECK_OK(version.status());
    std::vector<FactorMap> per_node(kNodes);
    for (const auto& [uid, w] : *(*version)->trained_user_weights) {
      per_node[owner(uid)][uid] = w;
    }
    for (int n = 0; n < kNodes; ++n) {
      refs[n].store->ResetForNewVersion(per_node[n], (*version)->version);
    }
    size_t replayed = 0;
    for (const Observation& obs : server.storage()->AllObservations()) {
      auto features = (*version)->features->Features(MakeItem(obs.item_id));
      VELOX_CHECK_OK(features.status());
      VELOX_CHECK_OK(refs[owner(obs.uid)]
                         .store->ApplyObservation(obs.uid, *features, obs.label)
                         .status());
      ++replayed;
    }
    return replayed;
  };
  auto expect_same = [&](const std::string& when) {
    for (int n = 0; n < kNodes; ++n) {
      EXPECT_EQ(server.user_weights(n)->SerializeState(), refs[n].store->SerializeState())
          << when << ", node " << n;
      EXPECT_EQ(ReadFileBytes(NodeWal(config.durability.dir, n)),
                ReadFileBytes(NodeWal(ref_dir, n)))
          << when << ", node " << n;
    }
  };

  auto data = SmallData();
  ASSERT_TRUE(server.Bootstrap(data.ratings).ok());
  EXPECT_EQ(replay_reference(), data.ratings.size());
  expect_same("after Bootstrap");

  auto report = server.RetrainNow();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->replay_skipped, 0u);
  replay_reference();
  expect_same("after RetrainNow");
  EXPECT_GT(server.StageData(Stage::kInstallReplay).count(), 0u);
}

// Replays a WAL from genesis into a fresh store.
std::vector<uint8_t> GenesisReplay(const std::string& wal_path,
                                   const UserWeightStoreOptions& options) {
  auto wal = WriteAheadLog::Open(wal_path);
  VELOX_CHECK_OK(wal.status());
  Bootstrapper boot(options.dim);
  UserWeightStore store(options, &boot);
  for (const auto& payload : (*wal)->TakeRecoveredPayloads()) {
    auto record = UserWeightWalRecord::Deserialize(payload);
    VELOX_CHECK_OK(record.status());
    VELOX_CHECK_OK(store.ApplyWalRecord(*record));
  }
  return store.SerializeState();
}

// The install's replay tasks journal on every node while observers
// mutate the same stores: each node's journal must still replay from
// genesis to its live image.
TEST(RetrainSchedulerTest, RetrainRacingObserversReplaysToTheLiveState) {
  constexpr int kNodes = 2;
  auto config = SmallServerConfig();
  config.num_nodes = kNodes;
  config.durability.dir = FreshDir("install_replay_race");
  config.durability.wal.sync = WalSyncPolicy::kFlush;
  auto server = std::make_unique<VeloxServer>(config, SmallModel());
  auto data = SmallData();
  ASSERT_TRUE(server->Bootstrap(data.ratings).ok());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> observed{0};
  std::vector<std::thread> observers;
  for (uint64_t t = 0; t < 2; ++t) {
    observers.emplace_back([&, t] {
      Rng rng(100 + t);
      while (!stop.load()) {
        uint64_t uid = rng.UniformU64(70);  // a few users outside the log
        uint64_t item = rng.UniformU64(80);
        VELOX_CHECK_OK(server->Observe(uid, MakeItem(item), rng.UniformDouble(1.0, 5.0)));
        observed.fetch_add(1);
      }
    });
  }
  while (observed.load() < 200) std::this_thread::yield();
  for (int r = 0; r < 3; ++r) ASSERT_TRUE(server->RetrainNow().ok());
  const uint64_t during = observed.load();
  while (observed.load() < during + 200) std::this_thread::yield();
  stop = true;
  for (auto& observer : observers) observer.join();

  std::vector<std::vector<uint8_t>> live;
  for (int n = 0; n < kNodes; ++n) live.push_back(server->user_weights(n)->SerializeState());
  server.reset();  // closes every journal
  for (int n = 0; n < kNodes; ++n) {
    EXPECT_EQ(GenesisReplay(NodeWal(config.durability.dir, n), NodeStoreOptions(config)),
              live[static_cast<size_t>(n)])
        << "node " << n;
  }
}

TEST(RetrainSchedulerTest, RetrainCountTracked) {
  VeloxServer server(SmallServerConfig(), SmallModel());
  auto data = SmallData();
  ASSERT_TRUE(server.Bootstrap(data.ratings).ok());
  ASSERT_TRUE(server.RetrainNow().ok());
  ASSERT_TRUE(server.RetrainNow().ok());
  EXPECT_EQ(server.VersionHistory().size(), 3u);
}

}  // namespace
}  // namespace velox
