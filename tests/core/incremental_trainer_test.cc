// Nearline incremental retraining: drift tracking + selection policy,
// the bit-identity contract (select-all incremental == full retrain,
// byte for byte), partial refreshes that leave unselected factors
// untouched, kAuto escalation, drift-epoch resets, and the pinned
// volatility contract (drift stats never survive a restart).
#include "core/incremental_trainer.h"

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <cstdio>
#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "batch/executor.h"
#include "linalg/ridge.h"
#include "ml/feature_function.h"

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

// Byte-level equality (catches even -0.0 vs 0.0, which == would not).
bool BitEqual(const DenseVector& a, const DenseVector& b) {
  return a.dim() == b.dim() &&
         std::memcmp(a.data(), b.data(), a.dim() * sizeof(double)) == 0;
}

bool BitEqual(const FactorMap& a, const FactorMap& b) {
  if (a.size() != b.size()) return false;
  for (const auto& [id, vec] : a) {
    auto it = b.find(id);
    if (it == b.end() || !BitEqual(vec, it->second)) return false;
  }
  return true;
}

const MaterializedFeatureFunction::FactorTable& VersionTable(
    const ModelVersion& version) {
  const auto* materialized =
      dynamic_cast<const MaterializedFeatureFunction*>(version.features.get());
  VELOX_CHECK(materialized != nullptr);
  return materialized->table();
}

// --- ItemDriftTracker ---

TEST(ItemDriftTrackerTest, AccumulatesPerItem) {
  ItemDriftTracker tracker;
  tracker.Record(7, 0.25);
  tracker.Record(7, 0.75);
  tracker.Record(3, 4.0);
  EXPECT_EQ(tracker.total_observations(), 3);
  auto stats = tracker.Snapshot();
  ASSERT_EQ(stats.size(), 2u);
  // Sorted ascending by item id.
  EXPECT_EQ(stats[0].item_id, 3u);
  EXPECT_EQ(stats[0].observations, 1);
  EXPECT_DOUBLE_EQ(stats[0].squared_error, 4.0);
  EXPECT_EQ(stats[1].item_id, 7u);
  EXPECT_EQ(stats[1].observations, 2);
  EXPECT_DOUBLE_EQ(stats[1].squared_error, 1.0);
  EXPECT_DOUBLE_EQ(stats[1].MeanSquaredError(), 0.5);
}

TEST(ItemDriftTrackerTest, ResetItemsForgetsOnlyListed) {
  ItemDriftTracker tracker;
  tracker.Record(1, 1.0);
  tracker.Record(2, 1.0);
  tracker.Record(2, 1.0);
  tracker.ResetItems({2, 99});  // 99 absent: no-op
  EXPECT_EQ(tracker.total_observations(), 1);
  auto stats = tracker.Snapshot();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].item_id, 1u);
  tracker.Clear();
  EXPECT_EQ(tracker.total_observations(), 0);
  EXPECT_TRUE(tracker.Snapshot().empty());
}

TEST(ItemDriftTrackerTest, MergeCombinesNodeSnapshots) {
  ItemDriftTracker a, b;
  a.Record(5, 1.0);
  a.Record(9, 2.0);
  b.Record(5, 3.0);
  b.Record(1, 0.5);
  auto merged = MergeDriftSnapshots({&a, &b});
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].item_id, 1u);
  EXPECT_EQ(merged[1].item_id, 5u);
  EXPECT_EQ(merged[1].observations, 2);
  EXPECT_DOUBLE_EQ(merged[1].squared_error, 4.0);
  EXPECT_EQ(merged[2].item_id, 9u);
}

// --- SelectDriftedItems ---

TEST(SelectDriftedItemsTest, VolumeAndErrorTriggers) {
  IncrementalPolicy policy;
  policy.min_observations = 4;
  policy.error_threshold = 2.0;
  policy.error_min_count = 2;
  std::vector<ItemDriftStat> stats = {
      {/*item_id=*/1, /*observations=*/4, /*squared_error=*/0.1},  // volume
      {/*item_id=*/2, /*observations=*/3, /*squared_error=*/9.0},  // mse 3.0
      {/*item_id=*/3, /*observations=*/1, /*squared_error=*/50.0},  // < min_count
      {/*item_id=*/4, /*observations=*/3, /*squared_error=*/0.3},  // neither
  };
  auto selection = SelectDriftedItems(stats, policy, /*catalog_items=*/10);
  EXPECT_EQ(selection.items, (std::vector<uint64_t>{1, 2}));
  EXPECT_EQ(selection.candidates, 4u);
  EXPECT_EQ(selection.catalog_items, 10u);
  EXPECT_DOUBLE_EQ(selection.drift_fraction, 0.2);
  EXPECT_EQ(selection.drifted_observations, 7);
}

TEST(SelectDriftedItemsTest, ErrorTriggerDisabledByDefault) {
  IncrementalPolicy policy;  // error_threshold = 0 -> volume only
  std::vector<ItemDriftStat> stats = {
      {/*item_id=*/1, /*observations=*/2, /*squared_error=*/1000.0}};
  auto selection = SelectDriftedItems(stats, policy, 10);
  EXPECT_TRUE(selection.items.empty());
}

// --- the bit-identity contract ---

TEST(IncrementalRetrainTest, SelectAllIsBitIdenticalToFull) {
  auto data = SmallData();
  auto drive = [&](VeloxServer& server) {
    VELOX_CHECK_OK(server.Bootstrap(data.ratings));
    for (int i = 0; i < 90; ++i) {
      uint64_t uid = static_cast<uint64_t>(i % 60);
      uint64_t item = static_cast<uint64_t>((i * 7) % 80);
      VELOX_CHECK_OK(server.Observe(uid, MakeItem(item), 1.0 + (i % 9) * 0.5));
    }
  };
  VeloxServer full_server(SmallServerConfig(), SmallModel());
  VeloxServer incr_server(SmallServerConfig(), SmallModel());
  drive(full_server);
  drive(incr_server);

  auto full_report = full_server.RetrainNow();
  ASSERT_TRUE(full_report.ok());
  auto incr_report = incr_server.RetrainIncremental(/*refresh_all=*/true);
  ASSERT_TRUE(incr_report.ok()) << incr_report.status().ToString();
  EXPECT_EQ(incr_report->mode_used, RetrainMode::kIncremental);
  EXPECT_EQ(incr_report->observations_used, full_report->observations_used);

  auto full_version = full_server.registry()->Current();
  auto incr_version = incr_server.registry()->Current();
  ASSERT_TRUE(full_version.ok());
  ASSERT_TRUE(incr_version.ok());

  // θ byte-identical.
  const auto& full_table = VersionTable(**full_version);
  const auto& incr_table = VersionTable(**incr_version);
  ASSERT_EQ(full_table.size(), incr_table.size());
  for (const auto& [item, factor] : full_table) {
    auto it = incr_table.find(item);
    ASSERT_NE(it, incr_table.end()) << "item " << item;
    EXPECT_TRUE(BitEqual(factor, it->second)) << "item " << item;
  }
  // Trained W byte-identical, RMSE the same double.
  EXPECT_TRUE(BitEqual(*(*full_version)->trained_user_weights,
                       *(*incr_version)->trained_user_weights));
  EXPECT_EQ((*full_version)->training_rmse, (*incr_version)->training_rmse);
  EXPECT_EQ(full_report->training_rmse, incr_report->training_rmse);

  // And the serving surface agrees exactly.
  for (uint64_t u = 0; u < 60; u += 7) {
    auto a = full_server.Predict(u, MakeItem(u % 80));
    auto b = incr_server.Predict(u, MakeItem(u % 80));
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->score, b->score);
  }
}

// --- partial refresh ---

TEST(IncrementalRetrainTest, RefreshTouchesOnlyDriftedItems) {
  VeloxServer server(SmallServerConfig(), SmallModel());
  auto data = SmallData();
  ASSERT_TRUE(server.Bootstrap(data.ratings).ok());
  auto before = server.registry()->Current();
  ASSERT_TRUE(before.ok());

  // Concentrated drift: two items cross the default volume trigger (8),
  // everything else stays below it.
  for (uint64_t u = 0; u < 12; ++u) {
    ASSERT_TRUE(server.Observe(u, MakeItem(3), 5.0).ok());
    ASSERT_TRUE(server.Observe(u, MakeItem(17), 0.5).ok());
  }
  auto report = server.RetrainIncremental();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->mode_used, RetrainMode::kIncremental);
  EXPECT_EQ(report->items_refreshed, 2u);
  EXPECT_FALSE(report->escalated);
  EXPECT_EQ(server.current_version(), 2);

  auto after = server.registry()->Current();
  ASSERT_TRUE(after.ok());
  const auto& old_table = VersionTable(**before);
  const auto& new_table = VersionTable(**after);
  EXPECT_EQ(old_table.size(), new_table.size());
  size_t unchanged = 0;
  for (const auto& [item, factor] : old_table) {
    auto it = new_table.find(item);
    ASSERT_NE(it, new_table.end());
    if (item == 3 || item == 17) continue;
    EXPECT_TRUE(BitEqual(factor, it->second)) << "item " << item;
    ++unchanged;
  }
  EXPECT_GT(unchanged, 0u);
  // The refreshed items moved toward the new labels.
  EXPECT_FALSE(BitEqual(old_table.at(3), new_table.at(3)));
  EXPECT_FALSE(BitEqual(old_table.at(17), new_table.at(17)));

  auto stats = server.RetrainStats();
  EXPECT_EQ(stats.incremental_retrains, 1u);
  EXPECT_EQ(stats.full_retrains, 1u);  // the bootstrap train
  EXPECT_EQ(stats.items_refreshed, 2u);
}

TEST(IncrementalRetrainTest, RefreshImprovesFitOnDriftedItems) {
  VeloxServer server(SmallServerConfig(), SmallModel());
  auto data = SmallData();
  ASSERT_TRUE(server.Bootstrap(data.ratings).ok());
  // Every user now loves item 0 — drift concentrated on one item.
  for (uint64_t u = 0; u < 60; ++u) {
    ASSERT_TRUE(server.Observe(u, MakeItem(0), 5.0).ok());
  }
  ASSERT_TRUE(server.RetrainIncremental().ok());
  double total = 0.0;
  for (uint64_t u = 0; u < 60; ++u) {
    auto pred = server.Predict(u, MakeItem(0));
    ASSERT_TRUE(pred.ok());
    total += pred->score;
  }
  EXPECT_GT(total / 60.0, 3.5);
}

// The frozen-basis refresh runs on ALS's half-step kernel; it must
// reproduce, bit for bit, a per-item RidgeAccumulator fed the item's
// observations in log order against the same basis rows.
TEST(IncrementalRetrainTest, PartialRefreshMatchesPerItemRidgeLoop) {
  VeloxServer server(SmallServerConfig(), SmallModel());
  auto data = SmallData();
  ASSERT_TRUE(server.Bootstrap(data.ratings).ok());
  auto previous = server.registry()->Current();
  ASSERT_TRUE(previous.ok());
  const FactorMap& prior = *(*previous)->trained_user_weights;

  // The log plus observations by users 5000-5003, who have no basis row.
  std::vector<Observation> log = data.ratings;
  for (uint64_t k = 0; k < 40; ++k) {
    log.push_back(Observation{5000 + k % 4, k % 12, 1.0 + 0.1 * static_cast<double>(k),
                              static_cast<int64_t>(10000 + k)});
  }
  // Live weights for every third user (nudged off the prior), the
  // trained prior for the rest, and one wrong-dimension live weight,
  // which leaves its user without a row rather than falling back.
  FactorMap warm;
  for (const auto& [uid, w] : prior) {
    if (uid % 3 != 0) continue;
    DenseVector nudged = w;
    nudged.Scale(1.1);
    warm[uid] = nudged;
  }
  warm[1] = DenseVector(3);
  const std::vector<uint64_t> refresh = {0, 1, 2, 3, 5, 8, 11, 13, 21, 34, 55, 79};

  for (bool weighted : {false, true}) {
    AlsConfig als;
    als.rank = 4;
    als.lambda = 0.1;
    als.num_partitions = 3;
    als.weighted_regularization = weighted;
    MatrixFactorizationModel model("songs", als);
    BatchExecutor executor(2);
    auto out = IncrementalTrainer(&model).Refresh(&executor, log, warm, **previous,
                                                  refresh);
    ASSERT_TRUE(out.ok()) << out.status().ToString();

    std::map<uint64_t, RidgeAccumulator> per_item;
    for (const Observation& obs : log) {
      if (std::find(refresh.begin(), refresh.end(), obs.item_id) == refresh.end()) {
        continue;
      }
      const DenseVector* w = nullptr;
      if (auto it = warm.find(obs.uid); it != warm.end()) {
        w = &it->second;
      } else if (auto it = prior.find(obs.uid); it != prior.end()) {
        w = &it->second;
      }
      if (w == nullptr || w->dim() != 4) continue;
      per_item.try_emplace(obs.item_id, 4).first->second.AddExample(*w, obs.label);
    }
    ASSERT_FALSE(per_item.empty());

    const auto& old_table = VersionTable(**previous);
    const auto* merged =
        dynamic_cast<const MaterializedFeatureFunction*>(out->features.get());
    ASSERT_NE(merged, nullptr);
    EXPECT_EQ(merged->table().size(), old_table.size());
    for (const auto& [item, factor] : merged->table()) {
      auto acc = per_item.find(item);
      if (acc == per_item.end()) {
        EXPECT_TRUE(BitEqual(factor, old_table.at(item))) << "item " << item;
        continue;
      }
      double reg = weighted ? 0.1 * static_cast<double>(acc->second.num_examples()) : 0.1;
      auto expected = acc->second.Solve(reg);
      ASSERT_TRUE(expected.ok());
      EXPECT_TRUE(BitEqual(factor, *expected)) << "item " << item;
    }
    EXPECT_TRUE(BitEqual(out->user_weights, prior));
  }
}

// --- preconditions / kAuto ---

TEST(IncrementalRetrainTest, IncrementalWithoutVersionFails) {
  VeloxServer server(SmallServerConfig(), SmallModel());
  EXPECT_TRUE(server.RetrainIncremental().status().IsFailedPrecondition());
}

TEST(IncrementalRetrainTest, IncrementalWithoutDriftFails) {
  VeloxServer server(SmallServerConfig(), SmallModel());
  auto data = SmallData();
  ASSERT_TRUE(server.Bootstrap(data.ratings).ok());
  // No observations since bootstrap -> nothing qualified.
  EXPECT_TRUE(server.RetrainIncremental().status().IsFailedPrecondition());
  EXPECT_EQ(server.current_version(), 1);
}

TEST(IncrementalRetrainTest, AutoEscalatesOnWideDrift) {
  auto config = SmallServerConfig();
  config.retrain.incremental.min_observations = 1;  // every item qualifies fast
  VeloxServer server(config, SmallModel());
  auto data = SmallData();
  ASSERT_TRUE(server.Bootstrap(data.ratings).ok());
  // Touch most of the catalog: qualified fraction >> auto_full_fraction.
  for (uint64_t item = 0; item < 60; ++item) {
    ASSERT_TRUE(server.Observe(item % 60, MakeItem(item), 3.0).ok());
  }
  auto report = server.Retrain(RetrainMode::kAuto);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->mode_used, RetrainMode::kFull);
  EXPECT_TRUE(report->escalated);
  EXPECT_GT(report->drift_fraction, config.retrain.incremental.auto_full_fraction);
  EXPECT_EQ(server.RetrainStats().auto_escalations, 1u);
}

TEST(IncrementalRetrainTest, AutoStaysIncrementalOnNarrowDrift) {
  VeloxServer server(SmallServerConfig(), SmallModel());
  auto data = SmallData();
  ASSERT_TRUE(server.Bootstrap(data.ratings).ok());
  for (uint64_t u = 0; u < 10; ++u) {
    ASSERT_TRUE(server.Observe(u, MakeItem(5), 4.5).ok());
  }
  auto report = server.Retrain(RetrainMode::kAuto);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->mode_used, RetrainMode::kIncremental);
  EXPECT_FALSE(report->escalated);
  EXPECT_EQ(report->items_refreshed, 1u);
}

TEST(IncrementalRetrainTest, AutoWithNoDriftEscalatesToFull) {
  VeloxServer server(SmallServerConfig(), SmallModel());
  auto data = SmallData();
  ASSERT_TRUE(server.Bootstrap(data.ratings).ok());
  auto report = server.Retrain(RetrainMode::kAuto);
  // No drift at all -> kAuto escalates to full rather than failing.
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->mode_used, RetrainMode::kFull);
  EXPECT_TRUE(report->escalated);
}

// --- drift-epoch resets ---

TEST(IncrementalRetrainTest, FullRetrainClearsAllDriftStats) {
  VeloxServer server(SmallServerConfig(), SmallModel());
  auto data = SmallData();
  ASSERT_TRUE(server.Bootstrap(data.ratings).ok());
  for (uint64_t u = 0; u < 6; ++u) {
    ASSERT_TRUE(server.Observe(u, MakeItem(2), 3.0).ok());
  }
  ASSERT_GT(server.drift_tracker(0)->total_observations(), 0);
  ASSERT_TRUE(server.RetrainNow().ok());
  EXPECT_EQ(server.drift_tracker(0)->total_observations(), 0);
}

TEST(IncrementalRetrainTest, IncrementalResetsOnlyRefreshedItems) {
  VeloxServer server(SmallServerConfig(), SmallModel());
  auto data = SmallData();
  ASSERT_TRUE(server.Bootstrap(data.ratings).ok());
  // Item 3 crosses the trigger; item 9 accumulates but stays below it.
  for (uint64_t u = 0; u < 10; ++u) {
    ASSERT_TRUE(server.Observe(u, MakeItem(3), 4.0).ok());
  }
  for (uint64_t u = 0; u < 3; ++u) {
    ASSERT_TRUE(server.Observe(u, MakeItem(9), 2.0).ok());
  }
  auto report = server.RetrainIncremental();
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->items_refreshed, 1u);
  // Item 9's accumulation survives the refresh and keeps counting
  // toward its own trigger; item 3 starts a fresh epoch.
  auto stats = server.drift_tracker(0)->Snapshot();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].item_id, 9u);
  EXPECT_EQ(stats[0].observations, 3);
}

TEST(IncrementalRetrainTest, RollbackClearsDriftStats) {
  VeloxServer server(SmallServerConfig(), SmallModel());
  auto data = SmallData();
  ASSERT_TRUE(server.Bootstrap(data.ratings).ok());
  ASSERT_TRUE(server.RetrainNow().ok());
  for (uint64_t u = 0; u < 5; ++u) {
    ASSERT_TRUE(server.Observe(u, MakeItem(1), 2.0).ok());
  }
  ASSERT_GT(server.drift_tracker(0)->total_observations(), 0);
  ASSERT_TRUE(server.Rollback(1).ok());
  // The stats described drift against the now-abandoned version.
  EXPECT_EQ(server.drift_tracker(0)->total_observations(), 0);
}

// --- the pinned volatility contract ---

TEST(IncrementalRetrainTest, DriftStatsAreVolatileAcrossRestart) {
  std::string dir = ::testing::TempDir() + "/drift_volatile";
  ::mkdir(dir.c_str(), 0755);
  for (int n = 0; n < 4; ++n) {
    std::remove((dir + "/user_weights_node" + std::to_string(n) + ".wal").c_str());
    std::remove((dir + "/user_weights_node" + std::to_string(n) + ".snap").c_str());
  }
  auto config = SmallServerConfig();
  config.durability.dir = dir;
  config.durability.recover_on_start = false;
  auto data = SmallData();
  {
    VeloxServer server(config, SmallModel());
    VELOX_CHECK_OK(server.Bootstrap(data.ratings));
    ASSERT_TRUE(server.RecoverDurability().ok());
    for (uint64_t u = 0; u < 10; ++u) {
      ASSERT_TRUE(server.Observe(u, MakeItem(4), 4.0).ok());
    }
    ASSERT_GT(server.drift_tracker(0)->total_observations(), 0);
  }  // "kill"

  VeloxServer restarted(config, SmallModel());
  ASSERT_TRUE(restarted.Bootstrap(data.ratings).ok());
  ASSERT_TRUE(restarted.RecoverDurability().ok());
  // Weights were journaled and recovered; drift stats were NOT — they
  // are a scheduling hint, deliberately never written to the WAL
  // (core/incremental_trainer.h). Pinned: a restart starts drift-blind.
  EXPECT_EQ(restarted.drift_tracker(0)->total_observations(), 0);
  EXPECT_TRUE(restarted.drift_tracker(0)->Snapshot().empty());
  EXPECT_TRUE(restarted.RetrainIncremental().status().IsFailedPrecondition());
}

// --- multi-node ---

TEST(IncrementalRetrainTest, MultiNodeIncrementalMergesNodeDrift) {
  auto config = SmallServerConfig();
  config.num_nodes = 3;
  config.distribute_item_features = true;
  VeloxServer server(config, SmallModel());
  auto data = SmallData();
  ASSERT_TRUE(server.Bootstrap(data.ratings).ok());
  // Users spread across nodes by ownership; two items cross the trigger
  // from observations landing on different nodes' trackers.
  for (uint64_t u = 0; u < 24; ++u) {
    ASSERT_TRUE(server.Observe(u % 60, MakeItem(11), 4.0).ok());
    ASSERT_TRUE(server.Observe(u % 60, MakeItem(42), 1.0).ok());
  }
  int64_t pending = 0;
  for (int32_t n = 0; n < 3; ++n) {
    pending += server.drift_tracker(n)->total_observations();
  }
  EXPECT_EQ(pending, 48);
  auto report = server.RetrainIncremental();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->mode_used, RetrainMode::kIncremental);
  EXPECT_EQ(report->items_refreshed, 2u);
  EXPECT_EQ(server.current_version(), 2);
  // Serving still healthy on every node's items after the partial swap.
  for (uint64_t u = 0; u < 12; ++u) {
    EXPECT_TRUE(server.Predict(u, MakeItem(11)).ok());
    EXPECT_TRUE(server.Predict(u, MakeItem(42)).ok());
  }
}

}  // namespace
}  // namespace velox
