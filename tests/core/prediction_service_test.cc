#include "core/prediction_service.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <thread>
#include <vector>

namespace velox {
namespace {

// Fixture: 3 items with known 2-d factors, 2 seeded users, local
// materialized resolver.
class PredictionServiceTest : public ::testing::Test {
 protected:
  PredictionServiceTest()
      : registry_("test_model"),
        bootstrapper_(2),
        weights_(MakeWeightOptions(), &bootstrapper_),
        feature_cache_(64),
        prediction_cache_(64),
        service_(PredictionServiceOptions{}, &registry_, &weights_, &bootstrapper_,
                 &feature_cache_, &prediction_cache_, FeatureResolver()) {
    auto table = std::make_shared<MaterializedFeatureFunction::FactorTable>();
    (*table)[10] = DenseVector{1.0, 0.0};
    (*table)[20] = DenseVector{0.0, 1.0};
    (*table)[30] = DenseVector{1.0, 1.0};
    auto features = std::make_shared<MaterializedFeatureFunction>(table, 2);
    registry_.Register(features, nullptr, 0.0);
    weights_.SeedUser(1, DenseVector{2.0, 3.0}, 1);
    weights_.SeedUser(2, DenseVector{-1.0, 1.0}, 1);
  }

  static UserWeightStoreOptions MakeWeightOptions() {
    UserWeightStoreOptions opts;
    opts.dim = 2;
    opts.lambda = 0.5;
    return opts;
  }

  Item MakeItem(uint64_t id) {
    Item item;
    item.id = id;
    return item;
  }

  ModelRegistry registry_;
  Bootstrapper bootstrapper_;
  UserWeightStore weights_;
  FeatureCache feature_cache_;
  PredictionCache prediction_cache_;
  PredictionService service_;
};

TEST_F(PredictionServiceTest, PredictComputesDotProduct) {
  auto r = service_.Predict(1, MakeItem(10));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->item_id, 10u);
  EXPECT_DOUBLE_EQ(r->score, 2.0);  // [2,3].[1,0]
  auto r2 = service_.Predict(1, MakeItem(30));
  ASSERT_TRUE(r2.ok());
  EXPECT_DOUBLE_EQ(r2->score, 5.0);  // [2,3].[1,1]
}

TEST_F(PredictionServiceTest, PredictIsPerUser) {
  auto u1 = service_.Predict(1, MakeItem(20));
  auto u2 = service_.Predict(2, MakeItem(20));
  ASSERT_TRUE(u1.ok());
  ASSERT_TRUE(u2.ok());
  EXPECT_DOUBLE_EQ(u1->score, 3.0);
  EXPECT_DOUBLE_EQ(u2->score, 1.0);
}

TEST_F(PredictionServiceTest, UnknownItemIsNotFound) {
  EXPECT_TRUE(service_.Predict(1, MakeItem(999)).status().IsNotFound());
}

TEST_F(PredictionServiceTest, NewUserBootstrapsFromMeanWeights) {
  // Mean of seeded users: [0.5, 2.0]. New user 42 predicts with it.
  auto r = service_.Predict(42, MakeItem(10));
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->score, 0.5);
  EXPECT_TRUE(weights_.HasUser(42));
}

TEST_F(PredictionServiceTest, NoModelVersionFailsPrecondition) {
  ModelRegistry empty_registry("empty");
  PredictionService service(PredictionServiceOptions{}, &empty_registry, &weights_,
                            &bootstrapper_, &feature_cache_, &prediction_cache_,
                            FeatureResolver());
  EXPECT_TRUE(service.Predict(1, MakeItem(10)).status().IsFailedPrecondition());
}

TEST_F(PredictionServiceTest, FeatureCachePopulatedOnFirstUse) {
  ASSERT_TRUE(service_.Predict(1, MakeItem(10)).ok());
  auto stats = feature_cache_.stats();
  EXPECT_EQ(stats.misses, 1u);
  ASSERT_TRUE(service_.Predict(2, MakeItem(10)).ok());
  stats = feature_cache_.stats();
  EXPECT_EQ(stats.hits, 1u);
}

TEST_F(PredictionServiceTest, PredictionCacheHitsOnRepeat) {
  ASSERT_TRUE(service_.Predict(1, MakeItem(10)).ok());
  auto before = prediction_cache_.stats();
  EXPECT_EQ(before.hits, 0u);
  ASSERT_TRUE(service_.Predict(1, MakeItem(10)).ok());
  auto after = prediction_cache_.stats();
  EXPECT_EQ(after.hits, 1u);
}

TEST_F(PredictionServiceTest, CachedScoreMatchesFreshScore) {
  auto fresh = service_.Predict(1, MakeItem(30));
  auto cached = service_.Predict(1, MakeItem(30));
  ASSERT_TRUE(fresh.ok());
  ASSERT_TRUE(cached.ok());
  EXPECT_DOUBLE_EQ(fresh->score, cached->score);
}

TEST_F(PredictionServiceTest, CachesCanBeDisabled) {
  PredictionServiceOptions opts;
  opts.use_feature_cache = false;
  opts.use_prediction_cache = false;
  PredictionService service(opts, &registry_, &weights_, &bootstrapper_,
                            &feature_cache_, &prediction_cache_, FeatureResolver());
  ASSERT_TRUE(service.Predict(1, MakeItem(10)).ok());
  ASSERT_TRUE(service.Predict(1, MakeItem(10)).ok());
  EXPECT_EQ(feature_cache_.stats().hits + feature_cache_.stats().misses, 0u);
  EXPECT_EQ(prediction_cache_.stats().hits + prediction_cache_.stats().misses, 0u);
}

TEST_F(PredictionServiceTest, WeightUpdateInvalidatesCachedPrediction) {
  auto before = service_.Predict(1, MakeItem(10));
  ASSERT_TRUE(before.ok());
  // Online update changes the user's weights (and epoch).
  ASSERT_TRUE(weights_.ApplyObservation(1, DenseVector{1.0, 0.0}, 5.0).ok());
  auto after = service_.Predict(1, MakeItem(10));
  ASSERT_TRUE(after.ok());
  EXPECT_NE(before->score, after->score);
}

TEST_F(PredictionServiceTest, TopKReturnsBestFirst) {
  std::vector<Item> candidates = {MakeItem(10), MakeItem(20), MakeItem(30)};
  auto r = service_.TopK(1, candidates, 3, nullptr, nullptr);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->items.size(), 3u);
  // User 1 = [2,3]: scores 2, 3, 5 -> order 30, 20, 10.
  EXPECT_EQ(r->items[0].item_id, 30u);
  EXPECT_EQ(r->items[1].item_id, 20u);
  EXPECT_EQ(r->items[2].item_id, 10u);
  EXPECT_FALSE(r->top_is_exploratory);
  EXPECT_EQ(r->model_version, 1);
}

TEST_F(PredictionServiceTest, TopKTruncatesToK) {
  std::vector<Item> candidates = {MakeItem(10), MakeItem(20), MakeItem(30)};
  auto r = service_.TopK(1, candidates, 2, nullptr, nullptr);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->items.size(), 2u);
}

TEST_F(PredictionServiceTest, TopKValidatesArguments) {
  EXPECT_TRUE(service_.TopK(1, {}, 3, nullptr, nullptr).status().IsInvalidArgument());
  EXPECT_TRUE(service_.TopK(1, {MakeItem(10)}, 0, nullptr, nullptr)
                  .status()
                  .IsInvalidArgument());
}

TEST_F(PredictionServiceTest, TopKWithLinUcbUsesUncertainty) {
  // Give user 3 many high-label observations of item 10's direction so
  // its uncertainty collapses while its point score rises well above
  // item 20's (which starts near the bootstrap-mean prior of 2.0);
  // direction [0,1] stays uncertain.
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(weights_.ApplyObservation(3, DenseVector{1.0, 0.0}, 5.0).ok());
  }
  LinUcbPolicy policy(5.0);
  Rng rng(1);
  std::vector<Item> candidates = {MakeItem(10), MakeItem(20)};
  auto r = service_.TopK(3, candidates, 2, &policy, &rng);
  ASSERT_TRUE(r.ok());
  // Item 20 ([0,1] direction) has much higher uncertainty; with a large
  // alpha it must rank first even though its point score is lower.
  EXPECT_EQ(r->items[0].item_id, 20u);
  EXPECT_GT(r->items[0].uncertainty, r->items[1].uncertainty);
  EXPECT_TRUE(r->top_is_exploratory);
}

TEST_F(PredictionServiceTest, ExploratoryFlagFalseForGreedyPolicy) {
  GreedyPolicy greedy;
  Rng rng(2);
  std::vector<Item> candidates = {MakeItem(10), MakeItem(30)};
  auto r = service_.TopK(1, candidates, 1, &greedy, &rng);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->top_is_exploratory);
}

// One observe racing a predict loop on one (uid, item) pair, per round.
// Predict reads the user's weights and epoch in one locked read, so a
// score it caches is keyed by the epoch of the weights that produced
// it. Were they two reads, an observe landing between them would cache
// the old weights' score under the new epoch, and the round's final
// predict (a cache hit at that epoch) would serve it.
TEST_F(PredictionServiceTest, ObserveRacingPredictsNeverLeavesAStaleCachedScore) {
  constexpr int kRounds = 400;
  const DenseVector f = {1.0, 0.0};  // item 10
  int stale_rounds = 0;
  for (int round = 0; round < kRounds; ++round) {
    std::atomic<bool> observed{false};
    std::thread observer([&] {
      EXPECT_TRUE(weights_.ApplyObservation(1, f, static_cast<double>(round % 5)).ok());
      observed.store(true);
    });
    bool predicts_ok = true;
    while (!observed.load() && predicts_ok) {
      predicts_ok = service_.Predict(1, MakeItem(10)).ok();
    }
    observer.join();
    ASSERT_TRUE(predicts_ok);
    auto final_predict = service_.Predict(1, MakeItem(10));
    ASSERT_TRUE(final_predict.ok());
    if (final_predict->score != Dot(weights_.GetWeights(1).value(), f)) ++stale_rounds;
  }
  EXPECT_EQ(stale_rounds, 0) << stale_rounds << " of " << kRounds
                             << " rounds served a score of superseded weights";
}

// More (uid, item) pairs than the stale board has slots, so some slots
// now hold a later pair. A shed answer is the pair's own last score or
// the bootstrap mean — never the score of the pair that took its slot.
TEST_F(PredictionServiceTest, StaleBoardNeverAnswersWithAnotherPairsScore) {
  constexpr uint64_t kFirstUid = 100;
  constexpr uint64_t kUsers = 25'000;  // x 3 items = 75,000 pairs
  static_assert(3 * kUsers > StaleScoreBoard::kSlots);
  // Distinct scores for every pair: item 10 scores 1e8 + u, item 20
  // scores u + 0.5, item 30 scores 1e8 + 2u + 0.5.
  std::vector<Item> items = {MakeItem(10), MakeItem(20), MakeItem(30)};
  std::vector<std::array<double, 3>> own(kUsers);
  for (uint64_t u = 0; u < kUsers; ++u) {
    const double x = static_cast<double>(u);
    weights_.SeedUser(kFirstUid + u, DenseVector{1e8 + x, x + 0.5}, 1);
    auto scored = service_.PredictBatch(kFirstUid + u, items);
    ASSERT_TRUE(scored.ok());
    for (size_t i = 0; i < items.size(); ++i) own[u][i] = scored.value()[i].score;
  }
  const double mean = service_.fallback_score();
  size_t own_answers = 0;
  size_t mean_answers = 0;
  for (uint64_t u = 0; u < kUsers; ++u) {
    for (size_t i = 0; i < items.size(); ++i) {
      ScoredItem shed = service_.ShedAnswer(kFirstUid + u, items[i].id);
      ASSERT_TRUE(shed.degraded);
      if (shed.score == own[u][i]) {
        ++own_answers;
      } else {
        ASSERT_EQ(shed.score, mean) << "uid " << kFirstUid + u << " item " << items[i].id;
        ++mean_answers;
      }
    }
  }
  EXPECT_GT(own_answers, 0u);
  EXPECT_LE(own_answers, StaleScoreBoard::kSlots);
  EXPECT_EQ(own_answers + mean_answers, 3 * kUsers);
  EXPECT_EQ(service_.degraded_stale_count(), own_answers);
  EXPECT_EQ(service_.degraded_mean_count(), mean_answers);
}

TEST_F(PredictionServiceTest, TopKAllScansWholeCatalog) {
  // User 1 = [2,3]: catalog scores are 10 -> 2, 20 -> 3, 30 -> 5.
  auto r = service_.TopKAll(1, 2);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->items.size(), 2u);
  EXPECT_EQ(r->items[0].item_id, 30u);
  EXPECT_DOUBLE_EQ(r->items[0].score, 5.0);
  EXPECT_EQ(r->items[1].item_id, 20u);
  EXPECT_DOUBLE_EQ(r->items[1].score, 3.0);
}

TEST_F(PredictionServiceTest, TopKAllKLargerThanCatalogReturnsAll) {
  auto r = service_.TopKAll(1, 100);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->items.size(), 3u);
  // Still best-first.
  EXPECT_GE(r->items[0].score, r->items[1].score);
  EXPECT_GE(r->items[1].score, r->items[2].score);
}

TEST_F(PredictionServiceTest, TopKAllAgreesWithExhaustiveTopK) {
  std::vector<Item> all = {MakeItem(10), MakeItem(20), MakeItem(30)};
  auto exhaustive = service_.TopK(2, all, 3, nullptr, nullptr);
  auto scanned = service_.TopKAll(2, 3);
  ASSERT_TRUE(exhaustive.ok());
  ASSERT_TRUE(scanned.ok());
  ASSERT_EQ(exhaustive->items.size(), scanned->items.size());
  for (size_t i = 0; i < scanned->items.size(); ++i) {
    EXPECT_EQ(scanned->items[i].item_id, exhaustive->items[i].item_id);
    EXPECT_DOUBLE_EQ(scanned->items[i].score, exhaustive->items[i].score);
  }
}

TEST_F(PredictionServiceTest, TopKAllHonorsPreFilter) {
  // Application policy excludes the best item (30): the scan must
  // return the best *admissible* items.
  auto r = service_.TopKAll(1, 2, [](uint64_t item_id) { return item_id != 30; });
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->items.size(), 2u);
  EXPECT_EQ(r->items[0].item_id, 20u);
  EXPECT_EQ(r->items[1].item_id, 10u);
}

TEST_F(PredictionServiceTest, TopKAllFilterCanEmptyTheCatalog) {
  auto r = service_.TopKAll(1, 3, [](uint64_t) { return false; });
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->items.empty());
}

TEST_F(PredictionServiceTest, TopKAllValidatesArguments) {
  EXPECT_TRUE(service_.TopKAll(1, 0).status().IsInvalidArgument());
}

TEST_F(PredictionServiceTest, TopKAllRequiresMaterializedFeatures) {
  ModelRegistry computational_registry("comp");
  computational_registry.Register(std::make_shared<IdentityFeatureFunction>(2),
                                  nullptr, 0.0);
  PredictionService service(PredictionServiceOptions{}, &computational_registry,
                            &weights_, &bootstrapper_, &feature_cache_,
                            &prediction_cache_, FeatureResolver());
  EXPECT_TRUE(service.TopKAll(1, 3).status().IsFailedPrecondition());
}

TEST(FeatureResolverCodecTest, EncodeDecodeRoundTrip) {
  DenseVector v = {1.5, -2.5, 0.0};
  auto decoded = DecodeFactor(EncodeFactor(v));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), v);
}

TEST(FeatureResolverCodecTest, DecodeGarbageFails) {
  Value garbage = {1, 2};
  EXPECT_FALSE(DecodeFactor(garbage).ok());
}

TEST(FeatureResolverTest, TableNameEmbedsVersion) {
  StorageClusterOptions opts;
  opts.num_nodes = 1;
  StorageCluster cluster(opts);
  StorageClient client(&cluster, 0);
  FeatureResolver resolver(&client, "item_features");
  EXPECT_EQ(resolver.TableForVersion(3), "item_features_v3");
  EXPECT_TRUE(resolver.is_distributed());
}

TEST(FeatureResolverTest, DistributedResolveFetchesFromStorage) {
  StorageClusterOptions opts;
  opts.num_nodes = 2;
  StorageCluster cluster(opts);
  ASSERT_TRUE(cluster.CreateTable("feat_v1").ok());
  StorageClient writer(&cluster, 0);
  ASSERT_TRUE(writer.Put("feat_v1", 7, EncodeFactor(DenseVector{4.0, 5.0})).ok());

  StorageClient reader(&cluster, 1);
  FeatureResolver resolver(&reader, "feat");
  ModelVersion version;
  version.version = 1;
  Item present;
  present.id = 7;
  Item missing;
  missing.id = 99;
  auto features = resolver.ResolveBatch(version, {present, missing});
  ASSERT_EQ(features.size(), 2u);
  ASSERT_TRUE(features[0].ok());
  EXPECT_EQ(features[0].value(), (DenseVector{4.0, 5.0}));
  // Missing item -> NotFound.
  EXPECT_TRUE(features[1].status().IsNotFound());
}

}  // namespace
}  // namespace velox
