// End-to-end VeloxServer behaviour: serving API, multi-node routing
// locality (§5), distributed item features, and cache accounting.
#include "core/velox_server.h"

#include <gtest/gtest.h>

#include <cmath>

#include "data/movielens.h"

namespace velox {
namespace {

VeloxServerConfig BaseConfig(int32_t nodes) {
  VeloxServerConfig config;
  config.num_nodes = nodes;
  config.dim = 4;
  config.lambda = 0.1;
  config.bandit_policy = "";
  config.batch_workers = 2;
  config.evaluator.min_observations = 1000000;  // keep auto-staleness off
  return config;
}

std::unique_ptr<VeloxModel> SmallModel() {
  AlsConfig als;
  als.rank = 4;
  als.lambda = 0.1;
  als.iterations = 6;
  return std::make_unique<MatrixFactorizationModel>("songs", als);
}

SyntheticDataset SmallData(uint64_t seed = 21) {
  SyntheticMovieLensConfig config;
  config.num_users = 50;
  config.num_items = 60;
  config.latent_rank = 4;
  config.min_ratings_per_user = 6;
  config.max_ratings_per_user = 12;
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

TEST(VeloxServerTest, PredictBeforeBootstrapFails) {
  VeloxServer server(BaseConfig(1), SmallModel());
  EXPECT_TRUE(server.Predict(1, MakeItem(1)).status().IsFailedPrecondition());
}

TEST(VeloxServerTest, BootstrapRequiresData) {
  VeloxServer server(BaseConfig(1), SmallModel());
  EXPECT_TRUE(server.Bootstrap({}).IsInvalidArgument());
}

TEST(VeloxServerTest, ListingOneApiWorksEndToEnd) {
  VeloxServer server(BaseConfig(1), SmallModel());
  auto data = SmallData();
  ASSERT_TRUE(server.Bootstrap(data.ratings).ok());

  // predict
  auto pred = server.Predict(1, MakeItem(2));
  ASSERT_TRUE(pred.ok());
  EXPECT_EQ(pred->item_id, 2u);

  // topK
  std::vector<Item> candidates;
  for (uint64_t i = 0; i < 10; ++i) candidates.push_back(MakeItem(i));
  auto top = server.TopK(1, candidates, 3);
  ASSERT_TRUE(top.ok());
  ASSERT_EQ(top->items.size(), 3u);
  EXPECT_GE(top->items[0].score, top->items[1].score);

  // observe
  ASSERT_TRUE(server.Observe(1, MakeItem(2), 5.0).ok());
  EXPECT_GT(server.QualityReport().observations_since_baseline, 0);
}

TEST(VeloxServerTest, PredictionsApproximatePlantedScores) {
  VeloxServer server(BaseConfig(1), SmallModel());
  auto data = SmallData();
  ASSERT_TRUE(server.Bootstrap(data.ratings).ok());
  // Training-set predictions should correlate with labels: RMSE well
  // below the rating spread.
  double sq = 0.0;
  size_t n = 0;
  for (size_t i = 0; i < data.ratings.size(); i += 3) {
    const auto& obs = data.ratings[i];
    auto pred = server.Predict(obs.uid, MakeItem(obs.item_id));
    ASSERT_TRUE(pred.ok());
    double e = pred->score - obs.label;
    sq += e * e;
    ++n;
  }
  EXPECT_LT(std::sqrt(sq / static_cast<double>(n)), 1.0);
}

TEST(VeloxServerTest, ObserveMovesPredictionTowardLabel) {
  VeloxServer server(BaseConfig(1), SmallModel());
  auto data = SmallData();
  ASSERT_TRUE(server.Bootstrap(data.ratings).ok());
  uint64_t uid = 3;
  uint64_t item = 7;
  auto before = server.Predict(uid, MakeItem(item));
  ASSERT_TRUE(before.ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(server.Observe(uid, MakeItem(item), 5.0).ok());
  }
  auto after = server.Predict(uid, MakeItem(item));
  ASSERT_TRUE(after.ok());
  EXPECT_GT(after->score, before->score);
  EXPECT_NEAR(after->score, 5.0, 1.0);
}

TEST(VeloxServerTest, ColdStartUserGetsMeanPrediction) {
  VeloxServer server(BaseConfig(1), SmallModel());
  auto data = SmallData();
  ASSERT_TRUE(server.Bootstrap(data.ratings).ok());
  size_t users_before = server.TotalUsers();
  auto pred = server.Predict(999999, MakeItem(1));
  ASSERT_TRUE(pred.ok());
  EXPECT_EQ(server.TotalUsers(), users_before + 1);
  // The mean-user prediction lands inside the rating scale.
  EXPECT_GT(pred->score, -1.0);
  EXPECT_LT(pred->score, 7.0);
}

TEST(VeloxServerTest, UidRoutingKeepsWeightTrafficLocal) {
  auto config = BaseConfig(4);
  config.route_by_uid = true;
  VeloxServer server(config, SmallModel());
  auto data = SmallData();
  ASSERT_TRUE(server.Bootstrap(data.ratings).ok());
  server.ResetNetworkStats();
  // All predictions route to the user's home node; with in-process θ
  // there is no remote traffic at all. Query only items that appear in
  // the training data (others have no factor — NotFound by contract).
  for (size_t i = 0; i < 200; ++i) {
    const Observation& obs = data.ratings[i];
    ASSERT_TRUE(server.Predict(obs.uid, MakeItem(obs.item_id)).ok());
    ASSERT_TRUE(server.Observe(obs.uid, MakeItem(obs.item_id), 3.0).ok());
  }
  EXPECT_EQ(server.NetworkStatistics().remote_messages, 0u);
}

TEST(VeloxServerTest, DisablingRoutingCausesRemoteTraffic) {
  auto config = BaseConfig(4);
  config.route_by_uid = false;
  VeloxServer server(config, SmallModel());
  auto data = SmallData();
  ASSERT_TRUE(server.Bootstrap(data.ratings).ok());
  server.ResetNetworkStats();
  for (size_t i = 0; i < 200; ++i) {
    const Observation& obs = data.ratings[i];
    ASSERT_TRUE(server.Predict(obs.uid, MakeItem(obs.item_id)).ok());
  }
  EXPECT_GT(server.NetworkStatistics().remote_messages, 0u);
}

TEST(VeloxServerTest, UnratedItemIsNotFound) {
  // Items absent from every training rating have no latent factor; the
  // serving contract surfaces NotFound rather than a fabricated score.
  VeloxServer server(BaseConfig(1), SmallModel());
  auto data = SmallData();
  ASSERT_TRUE(server.Bootstrap(data.ratings).ok());
  EXPECT_TRUE(server.Predict(1, MakeItem(123456)).status().IsNotFound());
}

TEST(VeloxServerTest, DistributedItemFeaturesServeCorrectScores) {
  // Same data, one server with in-process θ and one fetching factors
  // from distributed storage: predictions must agree.
  auto data = SmallData();
  VeloxServer local(BaseConfig(1), SmallModel());
  ASSERT_TRUE(local.Bootstrap(data.ratings).ok());

  auto dist_config = BaseConfig(3);
  dist_config.distribute_item_features = true;
  VeloxServer distributed(dist_config, SmallModel());
  ASSERT_TRUE(distributed.Bootstrap(data.ratings).ok());

  for (uint64_t u = 0; u < 20; ++u) {
    auto a = local.Predict(u, MakeItem(u % 60));
    auto b = distributed.Predict(u, MakeItem(u % 60));
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_NEAR(a->score, b->score, 1e-9) << "user " << u;
  }
}

TEST(VeloxServerTest, DistributedFeaturesHitCacheOnRepeat) {
  auto config = BaseConfig(3);
  config.distribute_item_features = true;
  VeloxServer server(config, SmallModel());
  auto data = SmallData();
  ASSERT_TRUE(server.Bootstrap(data.ratings).ok());
  server.ResetCacheStats();
  server.ResetNetworkStats();
  // Two passes over the same items from the same users: second pass is
  // served by the prediction/feature caches.
  for (int pass = 0; pass < 2; ++pass) {
    for (uint64_t u = 0; u < 20; ++u) {
      ASSERT_TRUE(server.Predict(u, MakeItem(u % 10)).ok());
    }
  }
  auto stats = server.AggregatedCacheStats();
  EXPECT_GT(stats.prediction.hits, 0u);
}

TEST(VeloxServerTest, TopKWithBanditPolicyRuns) {
  auto config = BaseConfig(1);
  config.bandit_policy = "linucb:1.0";
  VeloxServer server(config, SmallModel());
  auto data = SmallData();
  ASSERT_TRUE(server.Bootstrap(data.ratings).ok());
  std::vector<Item> candidates;
  for (uint64_t i = 0; i < 15; ++i) candidates.push_back(MakeItem(i));
  auto top = server.TopK(1, candidates, 5);
  ASSERT_TRUE(top.ok());
  EXPECT_EQ(top->items.size(), 5u);
  // LinUCB exposes uncertainties.
  EXPECT_GT(top->items[0].uncertainty + top->items[1].uncertainty, 0.0);
}

TEST(VeloxServerTest, ExploratoryObservationFeedsValidationPool) {
  auto config = BaseConfig(1);
  config.bandit_policy = "linucb:100.0";  // exploration-heavy
  VeloxServer server(config, SmallModel());
  auto data = SmallData();
  ASSERT_TRUE(server.Bootstrap(data.ratings).ok());
  std::vector<Item> candidates;
  for (uint64_t i = 0; i < 10; ++i) candidates.push_back(MakeItem(i));
  size_t explored = 0;
  for (uint64_t u = 0; u < 30; ++u) {
    auto top = server.TopK(u, candidates, 1);
    ASSERT_TRUE(top.ok());
    ASSERT_TRUE(server
                    .ObserveWithProvenance(u, MakeItem(top->items[0].item_id), 4.0,
                                           top->top_is_exploratory)
                    .ok());
    if (top->top_is_exploratory) ++explored;
  }
  if (explored > 0) {
    EXPECT_EQ(server.QualityReport().validation_pool_size, explored);
  }
}

TEST(VeloxServerTest, InstallVersionDirectly) {
  VeloxServer server(BaseConfig(1), SmallModel());
  RetrainOutput output;
  auto table = std::make_shared<MaterializedFeatureFunction::FactorTable>();
  (*table)[1] = DenseVector{1.0, 0.0, 0.0, 0.0};
  output.features = std::make_shared<MaterializedFeatureFunction>(
      std::shared_ptr<const MaterializedFeatureFunction::FactorTable>(table), 4);
  output.user_weights[7] = DenseVector{2.0, 0.0, 0.0, 0.0};
  output.training_rmse = 0.5;
  auto version = server.InstallVersion(output);
  ASSERT_TRUE(version.ok());
  EXPECT_EQ(version.value(), 1);
  auto pred = server.Predict(7, MakeItem(1));
  ASSERT_TRUE(pred.ok());
  EXPECT_DOUBLE_EQ(pred->score, 2.0);
}

TEST(VeloxServerTest, AutoRetrainCadenceFiresWithoutPolling) {
  auto config = BaseConfig(1);
  config.auto_retrain_check_every = 25;
  config.evaluator.min_observations = 30;
  config.evaluator.ewma_alpha = 0.3;
  config.evaluator.staleness_threshold_ratio = 1.5;
  config.updater.cross_validation_every = 1;
  VeloxServer server(config, SmallModel());
  auto data = SmallData();
  ASSERT_TRUE(server.Bootstrap(data.ratings).ok());
  // Stream drifted observations; no MaybeRetrain polling anywhere.
  for (int i = 0; i < 200 && server.current_version() == 1; ++i) {
    const Observation& obs = data.ratings[static_cast<size_t>(i) % data.ratings.size()];
    ASSERT_TRUE(server.Observe(obs.uid, MakeItem(obs.item_id), 5.5 - obs.label).ok());
  }
  EXPECT_GT(server.current_version(), 1);
}

TEST(VeloxServerTest, AutoRetrainDisabledByDefault) {
  auto config = BaseConfig(1);
  config.evaluator.min_observations = 10;
  config.evaluator.ewma_alpha = 0.5;
  config.updater.cross_validation_every = 1;
  VeloxServer server(config, SmallModel());
  auto data = SmallData();
  ASSERT_TRUE(server.Bootstrap(data.ratings).ok());
  for (int i = 0; i < 100; ++i) {
    const Observation& obs = data.ratings[static_cast<size_t>(i) % data.ratings.size()];
    ASSERT_TRUE(server.Observe(obs.uid, MakeItem(obs.item_id), 5.5 - obs.label).ok());
  }
  EXPECT_EQ(server.current_version(), 1);  // nothing retrained on its own
}

TEST(VeloxServerTest, MetricsReportPublishesKeySeries) {
  VeloxServer server(BaseConfig(1), SmallModel());
  auto data = SmallData();
  ASSERT_TRUE(server.Bootstrap(data.ratings).ok());
  for (size_t i = 0; i < 50; ++i) {
    const Observation& obs = data.ratings[i];
    ASSERT_TRUE(server.Predict(obs.uid, MakeItem(obs.item_id)).ok());
    ASSERT_TRUE(server.Observe(obs.uid, MakeItem(obs.item_id), obs.label).ok());
  }
  MetricsRegistry registry;
  std::string report = server.MetricsReport(&registry);
  EXPECT_NE(report.find("velox.songs.feature_cache.hit_rate"), std::string::npos);
  EXPECT_NE(report.find("velox.songs.quality.mean_online_loss"), std::string::npos);
  EXPECT_NE(report.find("velox.songs.model.version 1"), std::string::npos);
  EXPECT_GT(registry.GetGauge("velox.songs.users.total")->value(), 0.0);
  // Report-only mode works without an external registry.
  EXPECT_FALSE(server.MetricsReport().empty());
}

TEST(VeloxServerTest, StageBreakdownExportedAfterTraffic) {
  VeloxServer server(BaseConfig(2), SmallModel());
  auto data = SmallData();
  ASSERT_TRUE(server.Bootstrap(data.ratings).ok());
  ASSERT_EQ(server.StageBreakdownJson(), "{}");  // no traffic yet
  for (size_t i = 0; i < 30; ++i) {
    const Observation& obs = data.ratings[i];
    ASSERT_TRUE(server.Predict(obs.uid, MakeItem(obs.item_id)).ok());
    ASSERT_TRUE(server.Observe(obs.uid, MakeItem(obs.item_id), obs.label).ok());
  }
  // Cluster-merged per-stage histograms: every predict touches the
  // weight lookup, every observe runs the solver.
  EXPECT_GE(server.StageData(Stage::kUserWeightLookup).count(), 30u);
  EXPECT_GE(server.StageData(Stage::kOnlineSolve).count(), 30u);

  MetricsRegistry registry;
  std::string report = server.MetricsReport(&registry);
  EXPECT_NE(report.find("velox.songs.stage.user_weight_lookup.count"),
            std::string::npos);
  EXPECT_NE(report.find("velox.songs.stage.online_solve.p99_us"),
            std::string::npos);
  EXPECT_GT(registry.GetGauge("velox.songs.stage.kernel_score.count")->value(),
            0.0);

  std::string human = server.StageReport();
  EXPECT_NE(human.find("user_weight_lookup"), std::string::npos);
  std::string json = server.StageBreakdownJson();
  EXPECT_NE(json.find("\"kernel_score\""), std::string::npos);
  EXPECT_NE(json.find("\"p99_us\""), std::string::npos);

  server.ResetStageStats();
  EXPECT_EQ(server.StageBreakdownJson(), "{}");
  EXPECT_NE(server.StageReport().find("no traced requests yet"),
            std::string::npos);
}

TEST(VeloxServerTest, AnnServingSurfacesCountersStagesAndMetrics) {
  auto config = BaseConfig(1);
  // Force the candidate path on the tiny test catalog: build an index
  // for any plane and route kAuto through it from the first row.
  config.ann.min_items = 1;
  config.topk_auto_ann_min_rows = 1;
  VeloxServer server(config, SmallModel());
  auto data = SmallData();
  ASSERT_TRUE(server.Bootstrap(data.ratings).ok());

  auto exact = server.TopKAll(data.ratings[0].uid, 5, nullptr,
                              PredictionService::TopKAllMode::kExact);
  auto ann = server.TopKAll(data.ratings[0].uid, 5);  // kAuto -> ANN
  ASSERT_TRUE(exact.ok());
  ASSERT_TRUE(ann.ok());
  ASSERT_FALSE(ann->items.empty());

  VeloxServer::AnnServeStats stats = server.AggregatedAnnStats();
  EXPECT_EQ(stats.queries, 1u);
  EXPECT_GT(stats.probes, 0u);
  EXPECT_GT(stats.rescored, 0u);

  // The candidate path reports its stages and counters everywhere the
  // exact path reports its own: stage histograms, the human report
  // behind the shell's `stages` command, and the metrics registry.
  EXPECT_GT(server.StageData(Stage::kAnnCandidateProbe).count(), 0u);
  EXPECT_GT(server.StageData(Stage::kAnnRescore).count(), 0u);
  std::string human = server.StageReport();
  EXPECT_NE(human.find("ann_candidate_probe"), std::string::npos);
  EXPECT_NE(human.find("ann: queries=1"), std::string::npos);

  MetricsRegistry registry;
  server.MetricsReport(&registry);
  EXPECT_EQ(registry.GetCounter("velox.songs.ann.queries")->value(), 1u);
  EXPECT_GT(registry.GetCounter("velox.songs.ann.rescored")->value(), 0u);
  EXPECT_EQ(registry.GetGauge("velox.songs.ann.recall_mode")->value(), 1.0);
}

// Property: caching and feature distribution are pure optimizations —
// every configuration must serve identical scores.
struct CacheConfigCase {
  bool use_feature_cache;
  bool use_prediction_cache;
  bool distribute_item_features;
  int32_t nodes;
};

class CacheConfigEquivalenceTest : public ::testing::TestWithParam<CacheConfigCase> {};

TEST_P(CacheConfigEquivalenceTest, ScoresMatchBaseline) {
  const CacheConfigCase& test_case = GetParam();
  auto data = SmallData(/*seed=*/33);

  VeloxServer baseline(BaseConfig(1), SmallModel());
  ASSERT_TRUE(baseline.Bootstrap(data.ratings).ok());

  auto config = BaseConfig(test_case.nodes);
  config.use_feature_cache = test_case.use_feature_cache;
  config.use_prediction_cache = test_case.use_prediction_cache;
  config.distribute_item_features = test_case.distribute_item_features;
  VeloxServer variant(config, SmallModel());
  ASSERT_TRUE(variant.Bootstrap(data.ratings).ok());

  for (size_t i = 0; i < 150; ++i) {
    const Observation& obs = data.ratings[i % data.ratings.size()];
    auto a = baseline.Predict(obs.uid, MakeItem(obs.item_id));
    auto b = variant.Predict(obs.uid, MakeItem(obs.item_id));
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_NEAR(a->score, b->score, 1e-9) << "observation " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, CacheConfigEquivalenceTest,
    ::testing::Values(CacheConfigCase{false, false, false, 1},
                      CacheConfigCase{true, false, false, 1},
                      CacheConfigCase{false, true, false, 1},
                      CacheConfigCase{true, true, true, 1},
                      CacheConfigCase{true, true, false, 3},
                      CacheConfigCase{false, false, true, 3},
                      CacheConfigCase{true, true, true, 4}));

TEST(VeloxServerDeathTest, DimMismatchWithModelAborts) {
  auto config = BaseConfig(1);
  config.dim = 7;  // model rank is 4
  EXPECT_DEATH(VeloxServer(config, SmallModel()), "Check failed");
}

}  // namespace
}  // namespace velox
