// Tier-1 coverage for the plane-based full-catalog top-K scan: the
// exact scan sharded across a scan pool must return exactly the same
// items, scores, and order as the same scan on a service without a
// pool (one shard) and as the generic TopK over the whole catalog —
// including on tie-heavy factor tables, k > catalog, under ItemFilter
// pre-filtering, and on both the mixed-precision and pure-double scans.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/thread_pool.h"
#include "core/prediction_service.h"

namespace velox {
namespace {

using Mode = PredictionService::TopKAllMode;

class TopKScanTest : public ::testing::Test {
 protected:
  static constexpr size_t kDim = 7;
  static constexpr size_t kCatalog = 1000;

  TopKScanTest()
      : registry_("scan_model"),
        bootstrapper_(kDim),
        weights_(MakeWeightOptions(), &bootstrapper_),
        feature_cache_(4 * kCatalog),
        prediction_cache_(4 * kCatalog),
        pool_(4),
        service_(MakeServiceOptions(), &registry_, &weights_, &bootstrapper_,
                 &feature_cache_, &prediction_cache_, FeatureResolver()),
        no_pool_(MakeServiceOptions(), &registry_, &weights_, &bootstrapper_,
                 &feature_cache_, &prediction_cache_, FeatureResolver()) {
    // Tie-heavy catalog: factors depend only on id % 5, so scores
    // collapse onto 5 distinct values and tie-breaking is load-bearing.
    auto table = std::make_shared<MaterializedFeatureFunction::FactorTable>();
    for (uint64_t id = 0; id < kCatalog; ++id) {
      DenseVector f(kDim);
      for (size_t c = 0; c < kDim; ++c) {
        f[c] = static_cast<double>((id % 5) + 1) * (c + 1) * 0.125;
      }
      (*table)[id] = std::move(f);
    }
    registry_.Register(std::make_shared<MaterializedFeatureFunction>(table, kDim),
                       nullptr, 0.0);
    DenseVector w(kDim);
    for (size_t c = 0; c < kDim; ++c) w[c] = (c % 2 == 0 ? 1.0 : -0.5) * (c + 1);
    weights_.SeedUser(1, w, 1);
    service_.SetScanPool(&pool_);
  }

  static UserWeightStoreOptions MakeWeightOptions() {
    UserWeightStoreOptions opts;
    opts.dim = kDim;
    opts.lambda = 0.5;
    return opts;
  }

  static PredictionServiceOptions MakeServiceOptions() {
    PredictionServiceOptions opts;
    // Low shard floor so the 4-thread pool actually shards this small
    // catalog (1000 / 64 = 15 > 4 shards -> one shard per thread).
    opts.topk_min_shard_rows = 64;
    return opts;
  }

  std::vector<Item> AllItems() {
    std::vector<Item> items;
    items.reserve(kCatalog);
    for (uint64_t id = 0; id < kCatalog; ++id) {
      Item item;
      item.id = id;
      items.push_back(item);
    }
    return items;
  }

  static void ExpectSame(const TopKResult& a, const TopKResult& b) {
    ASSERT_EQ(a.items.size(), b.items.size());
    for (size_t i = 0; i < a.items.size(); ++i) {
      EXPECT_EQ(a.items[i].item_id, b.items[i].item_id) << "rank " << i;
      // Bit-identical, not just close: every path shares the kernels
      // and the (score desc, item_id asc) total order.
      EXPECT_EQ(a.items[i].score, b.items[i].score) << "rank " << i;
    }
  }

  ModelRegistry registry_;
  Bootstrapper bootstrapper_;
  UserWeightStore weights_;
  FeatureCache feature_cache_;
  PredictionCache prediction_cache_;
  ThreadPool pool_;
  // Sharded across pool_ (see MakeServiceOptions) ...
  PredictionService service_;
  // ... and the same scan without a pool: always one shard.
  PredictionService no_pool_;
};

TEST_F(TopKScanTest, PooledScanPlansShardsAndNoPoolPlansOne) {
  auto version = registry_.Current();
  ASSERT_TRUE(version.ok());
  ASSERT_NE(version.value()->item_plane, nullptr);
  const ItemFactorPlane& plane = *version.value()->item_plane;
  // 1000 rows / 64-row floor = 15 shards, capped at the 4 pool threads.
  EXPECT_EQ(service_.PlannedScanShards(plane, nullptr), 4u);
  EXPECT_EQ(no_pool_.PlannedScanShards(plane, nullptr), 1u);
}

TEST_F(TopKScanTest, PooledMatchesNoPoolAndGenericOnTieHeavyCatalog) {
  const size_t k = 37;
  auto pooled = service_.TopKAll(1, k, nullptr, Mode::kExact);
  auto no_pool = no_pool_.TopKAll(1, k, nullptr, Mode::kExact);
  auto generic = service_.TopK(1, AllItems(), k, nullptr, nullptr);
  ASSERT_TRUE(pooled.ok());
  ASSERT_TRUE(no_pool.ok());
  ASSERT_TRUE(generic.ok());
  ASSERT_EQ(pooled->items.size(), k);
  ExpectSame(*no_pool, *pooled);
  ExpectSame(*generic, *pooled);
  // Ties resolve to ascending item id at equal scores.
  for (size_t i = 1; i < pooled->items.size(); ++i) {
    if (pooled->items[i - 1].score == pooled->items[i].score) {
      EXPECT_LT(pooled->items[i - 1].item_id, pooled->items[i].item_id);
    }
  }
}

TEST_F(TopKScanTest, PureDoubleScanMatchesAcrossShardCounts) {
  PredictionServiceOptions opts = MakeServiceOptions();
  opts.topk_mixed_precision = false;
  PredictionService pooled_double(opts, &registry_, &weights_, &bootstrapper_,
                                  &feature_cache_, &prediction_cache_,
                                  FeatureResolver());
  pooled_double.SetScanPool(&pool_);
  PredictionService serial_double(opts, &registry_, &weights_, &bootstrapper_,
                                  &feature_cache_, &prediction_cache_,
                                  FeatureResolver());
  for (size_t k : {size_t{1}, size_t{37}, kCatalog + 5}) {
    auto pooled = pooled_double.TopKAll(1, k, nullptr, Mode::kExact);
    auto serial = serial_double.TopKAll(1, k, nullptr, Mode::kExact);
    auto mixed = service_.TopKAll(1, k, nullptr, Mode::kExact);
    ASSERT_TRUE(pooled.ok());
    ASSERT_TRUE(serial.ok());
    ASSERT_TRUE(mixed.ok());
    ExpectSame(*serial, *pooled);
    ExpectSame(*mixed, *pooled);
  }
}

TEST_F(TopKScanTest, KLargerThanCatalogReturnsWholeCatalogInIdenticalOrder) {
  auto pooled = service_.TopKAll(1, kCatalog + 50, nullptr, Mode::kExact);
  auto no_pool = no_pool_.TopKAll(1, kCatalog + 50, nullptr, Mode::kExact);
  ASSERT_TRUE(pooled.ok());
  ASSERT_TRUE(no_pool.ok());
  EXPECT_EQ(pooled->items.size(), kCatalog);
  ExpectSame(*no_pool, *pooled);
}

TEST_F(TopKScanTest, FilterInteractsIdenticallyAcrossPaths) {
  // Drop two of the five score classes, including the best one.
  auto filter = [](uint64_t item_id) { return item_id % 5 != 4 && item_id % 5 != 1; };
  auto pooled = service_.TopKAll(1, 20, filter, Mode::kExact);
  auto no_pool = no_pool_.TopKAll(1, 20, filter, Mode::kExact);
  std::vector<Item> kept;
  for (const Item& item : AllItems()) {
    if (filter(item.id)) kept.push_back(item);
  }
  auto generic = service_.TopK(1, kept, 20, nullptr, nullptr);
  ASSERT_TRUE(pooled.ok());
  ASSERT_TRUE(no_pool.ok());
  ASSERT_TRUE(generic.ok());
  ASSERT_EQ(pooled->items.size(), 20u);
  for (const ScoredItem& item : pooled->items) {
    EXPECT_TRUE(filter(item.item_id)) << item.item_id;
  }
  ExpectSame(*no_pool, *pooled);
  ExpectSame(*generic, *pooled);
}

TEST_F(TopKScanTest, AutoModeUsesExactScanWithoutIndex) {
  auto auto_mode = service_.TopKAll(1, 10);
  auto exact = service_.TopKAll(1, 10, nullptr, Mode::kExact);
  ASSERT_TRUE(auto_mode.ok());
  ASSERT_TRUE(exact.ok());
  ExpectSame(*exact, *auto_mode);
  EXPECT_EQ(service_.ann_queries(), 0u);
}

TEST_F(TopKScanTest, BatchMatchesPerUserCallsAndAmortizesLookup) {
  // Mix of seeded and bootstrap-on-first-touch users.
  std::vector<uint64_t> uids = {1, 42, 7, 1};
  auto batch = service_.TopKAllBatch(uids, 12);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->size(), uids.size());
  for (size_t i = 0; i < uids.size(); ++i) {
    auto single = service_.TopKAll(uids[i], 12);
    ASSERT_TRUE(single.ok());
    ExpectSame(*single, (*batch)[i]);
    EXPECT_EQ((*batch)[i].model_version, 1);
  }
}

TEST_F(TopKScanTest, BatchValidatesArgumentsAndPreconditions) {
  EXPECT_TRUE(service_.TopKAllBatch({1}, 0).status().IsInvalidArgument());
  auto empty = service_.TopKAllBatch({}, 5);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());

  ModelRegistry computational("comp");
  computational.Register(std::make_shared<IdentityFeatureFunction>(kDim), nullptr,
                         0.0);
  PredictionService service(MakeServiceOptions(), &computational, &weights_,
                            &bootstrapper_, &feature_cache_, &prediction_cache_,
                            FeatureResolver());
  EXPECT_TRUE(service.TopKAllBatch({1}, 5).status().IsFailedPrecondition());
}

TEST_F(TopKScanTest, RepeatedPooledScansAreDeterministic) {
  auto first = service_.TopKAll(1, 33, nullptr, Mode::kExact);
  ASSERT_TRUE(first.ok());
  for (int trial = 0; trial < 10; ++trial) {
    auto again = service_.TopKAll(1, 33, nullptr, Mode::kExact);
    ASSERT_TRUE(again.ok());
    ExpectSame(*first, *again);
  }
}

// All factors identical -> every item ties; output must be the first k
// item ids in ascending order with and without the pool.
TEST(TopKScanAllTiesTest, FullTieCatalogOrdersByItemId) {
  const size_t dim = 3, catalog = 300;
  ModelRegistry registry("ties");
  Bootstrapper bootstrapper(dim);
  UserWeightStoreOptions wopts;
  wopts.dim = dim;
  UserWeightStore weights(wopts, &bootstrapper);
  FeatureCache feature_cache(1024);
  PredictionCache prediction_cache(1024);
  ThreadPool pool(4);
  PredictionServiceOptions opts;
  opts.topk_min_shard_rows = 16;
  PredictionService pooled(opts, &registry, &weights, &bootstrapper, &feature_cache,
                           &prediction_cache, FeatureResolver());
  pooled.SetScanPool(&pool);
  PredictionService no_pool(opts, &registry, &weights, &bootstrapper, &feature_cache,
                            &prediction_cache, FeatureResolver());

  auto table = std::make_shared<MaterializedFeatureFunction::FactorTable>();
  for (uint64_t id = 0; id < catalog; ++id) {
    (*table)[id] = DenseVector{1.0, 2.0, 3.0};
  }
  registry.Register(std::make_shared<MaterializedFeatureFunction>(table, dim),
                    nullptr, 0.0);
  weights.SeedUser(9, DenseVector{0.5, -1.0, 2.0}, 1);

  for (PredictionService* service : {&pooled, &no_pool}) {
    auto r = service->TopKAll(9, 25, nullptr, Mode::kExact);
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r->items.size(), 25u);
    for (size_t i = 0; i < r->items.size(); ++i) {
      EXPECT_EQ(r->items[i].item_id, i) << (service == &pooled ? "pooled" : "no pool");
    }
  }
}

}  // namespace
}  // namespace velox
