// Tier-1 coverage for approximate candidate generation (src/ann):
//  * build determinism — same seed => byte-identical centroids, list
//    offsets, list rows, and PQ codes, with or without a thread pool;
//  * structural invariants of the CSR inverted lists;
//  * recall@10 >= 0.95 at the default nprobe on a clustered catalog,
//    for both kIvf and kIvfPq;
//  * rescore bit-identity — every item an ANN mode returns carries
//    exactly the score the exact scan gives that item;
//  * filter handling, kAuto mode switching (including the
//    filter-adjusted threshold), and the PlannedScanShards fan-out
//    regression (shards follow eligible rows, not raw plane rows).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "ann/ivf_index.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "core/prediction_service.h"

namespace velox {
namespace {

using Mode = PredictionService::TopKAllMode;

constexpr size_t kDim = 16;
constexpr size_t kClusters = 64;
constexpr size_t kCatalog = 20000;

// Mixture-of-Gaussians factors: items concentrate around kClusters
// centers, the regime IVF is built for (and the synthetic catalog the
// recall bound is specified against).
std::shared_ptr<MaterializedFeatureFunction::FactorTable> ClusteredTable(
    uint64_t seed, std::vector<DenseVector>* centers_out) {
  Rng rng(seed);
  std::vector<DenseVector> centers;
  for (size_t c = 0; c < kClusters; ++c) {
    DenseVector center(kDim);
    for (size_t d = 0; d < kDim; ++d) center[d] = rng.Gaussian();
    centers.push_back(std::move(center));
  }
  auto table = std::make_shared<MaterializedFeatureFunction::FactorTable>();
  for (uint64_t id = 0; id < kCatalog; ++id) {
    const DenseVector& center = centers[id % kClusters];
    DenseVector f(kDim);
    for (size_t d = 0; d < kDim; ++d) f[d] = center[d] + 0.15 * rng.Gaussian();
    (*table)[id] = std::move(f);
  }
  if (centers_out != nullptr) *centers_out = std::move(centers);
  return table;
}

std::shared_ptr<const ItemFactorPlane> ClusteredPlane(uint64_t seed) {
  return std::make_shared<const ItemFactorPlane>(*ClusteredTable(seed, nullptr),
                                                 kDim);
}

TEST(IvfIndexBuildTest, SameSeedRebuildsByteIdentical) {
  auto plane = ClusteredPlane(7);
  AnnIndexOptions opts;
  auto a = IvfIndex::Build(plane, opts, nullptr);
  auto b = IvfIndex::Build(plane, opts, nullptr);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->centroids(), b->centroids());
  EXPECT_EQ(a->list_offsets(), b->list_offsets());
  EXPECT_EQ(a->list_rows(), b->list_rows());
  EXPECT_EQ(a->codes(), b->codes());

  AnnIndexOptions other = opts;
  other.seed = opts.seed + 1;
  auto c = IvfIndex::Build(plane, other, nullptr);
  ASSERT_NE(c, nullptr);
  EXPECT_NE(a->centroids(), c->centroids());
}

TEST(IvfIndexBuildTest, PoolPresenceDoesNotChangeTheIndex) {
  auto plane = ClusteredPlane(11);
  AnnIndexOptions opts;
  ThreadPool pool(4);
  auto serial = IvfIndex::Build(plane, opts, nullptr);
  auto pooled = IvfIndex::Build(plane, opts, &pool);
  ASSERT_NE(serial, nullptr);
  ASSERT_NE(pooled, nullptr);
  EXPECT_EQ(serial->centroids(), pooled->centroids());
  EXPECT_EQ(serial->list_offsets(), pooled->list_offsets());
  EXPECT_EQ(serial->list_rows(), pooled->list_rows());
  EXPECT_EQ(serial->codes(), pooled->codes());
}

TEST(IvfIndexBuildTest, InvertedListsPartitionThePlane) {
  auto plane = ClusteredPlane(13);
  auto index = IvfIndex::Build(plane, AnnIndexOptions{}, nullptr);
  ASSERT_NE(index, nullptr);
  const auto& offsets = index->list_offsets();
  const auto& rows = index->list_rows();
  ASSERT_EQ(offsets.size(), index->nlist() + 1);
  EXPECT_EQ(offsets.front(), 0u);
  EXPECT_EQ(offsets.back(), kCatalog);
  std::vector<bool> seen(kCatalog, false);
  for (size_t c = 0; c < index->nlist(); ++c) {
    ASSERT_LE(offsets[c], offsets[c + 1]);
    for (uint32_t pos = offsets[c]; pos < offsets[c + 1]; ++pos) {
      ASSERT_LT(rows[pos], kCatalog);
      EXPECT_FALSE(seen[rows[pos]]) << "row in two lists";
      seen[rows[pos]] = true;
      if (pos > offsets[c]) {
        EXPECT_LT(rows[pos - 1], rows[pos]);  // ascending within the list
      }
    }
  }
  // PQ mirror covers every row with one code per subvector.
  ASSERT_TRUE(index->has_pq());
  EXPECT_EQ(index->codes().size(), kCatalog * index->pq_m());
}

TEST(IvfIndexBuildTest, EmptyPlaneYieldsNoIndex) {
  MaterializedFeatureFunction::FactorTable empty;
  auto plane = std::make_shared<const ItemFactorPlane>(empty, kDim);
  EXPECT_EQ(IvfIndex::Build(plane, AnnIndexOptions{}, nullptr), nullptr);
}

// Serving-path fixture: clustered catalog behind a PredictionService
// whose registry builds the ANN index at install time.
class AnnServeTest : public ::testing::Test {
 protected:
  AnnServeTest()
      : registry_("ann_model"),
        bootstrapper_(kDim),
        weights_(MakeWeightOptions(), &bootstrapper_),
        feature_cache_(1024),
        prediction_cache_(1024),
        pool_(4),
        service_(MakeServiceOptions(), &registry_, &weights_, &bootstrapper_,
                 &feature_cache_, &prediction_cache_, FeatureResolver()) {
    AnnBuildPolicy policy;
    policy.min_items = 1;  // unit-test-sized catalog still gets an index
    registry_.SetAnnBuild(policy, &pool_);
    table_ = ClusteredTable(42, &centers_);
    registry_.Register(std::make_shared<MaterializedFeatureFunction>(table_, kDim),
                       nullptr, 0.0);
    service_.SetScanPool(&pool_);
    // Queries that look like the catalog: perturbed cluster centers.
    Rng rng(99);
    for (uint64_t uid = 1; uid <= 40; ++uid) {
      DenseVector w(kDim);
      const DenseVector& center = centers_[uid % kClusters];
      for (size_t d = 0; d < kDim; ++d) w[d] = center[d] + 0.1 * rng.Gaussian();
      weights_.SeedUser(uid, w, 1);
    }
  }

  static UserWeightStoreOptions MakeWeightOptions() {
    UserWeightStoreOptions opts;
    opts.dim = kDim;
    opts.lambda = 0.5;
    return opts;
  }

  static PredictionServiceOptions MakeServiceOptions() {
    PredictionServiceOptions opts;
    opts.topk_min_shard_rows = 64;
    // Default threshold (100k) exceeds this 20k catalog, so kAuto stays
    // exact unless a test lowers it on its own service instance.
    return opts;
  }

  // Exact score of every item for `uid`, from the exact scan.
  std::unordered_map<uint64_t, double> ExactScores(uint64_t uid) {
    auto all = service_.TopKAll(uid, kCatalog, nullptr, Mode::kExact);
    EXPECT_TRUE(all.ok());
    std::unordered_map<uint64_t, double> scores;
    for (const ScoredItem& item : all->items) scores[item.item_id] = item.score;
    return scores;
  }

  double MeanRecallAt10(Mode mode) {
    double total = 0.0;
    size_t queries = 0;
    for (uint64_t uid = 1; uid <= 40; ++uid) {
      auto exact = service_.TopKAll(uid, 10, nullptr, Mode::kExact);
      auto approx = service_.TopKAll(uid, 10, nullptr, mode);
      EXPECT_TRUE(exact.ok());
      EXPECT_TRUE(approx.ok());
      std::unordered_set<uint64_t> truth;
      for (const ScoredItem& item : exact->items) truth.insert(item.item_id);
      size_t hit = 0;
      for (const ScoredItem& item : approx->items) hit += truth.count(item.item_id);
      total += static_cast<double>(hit) / static_cast<double>(truth.size());
      ++queries;
    }
    return total / static_cast<double>(queries);
  }

  std::shared_ptr<MaterializedFeatureFunction::FactorTable> table_;
  std::vector<DenseVector> centers_;
  ModelRegistry registry_;
  Bootstrapper bootstrapper_;
  UserWeightStore weights_;
  FeatureCache feature_cache_;
  PredictionCache prediction_cache_;
  ThreadPool pool_;
  PredictionService service_;
};

TEST_F(AnnServeTest, RecallAtTenMeetsBoundAtDefaultNprobe) {
  EXPECT_GE(MeanRecallAt10(Mode::kIvf), 0.95);
  EXPECT_GE(MeanRecallAt10(Mode::kIvfPq), 0.95);
}

TEST_F(AnnServeTest, AnnScoresAreBitIdenticalToExactForReturnedItems) {
  for (uint64_t uid : {1, 7, 23}) {
    std::unordered_map<uint64_t, double> exact = ExactScores(uid);
    for (Mode mode : {Mode::kIvf, Mode::kIvfPq}) {
      auto approx = service_.TopKAll(uid, 25, nullptr, mode);
      ASSERT_TRUE(approx.ok());
      ASSERT_FALSE(approx->items.empty());
      for (const ScoredItem& item : approx->items) {
        auto it = exact.find(item.item_id);
        ASSERT_NE(it, exact.end());
        // Bit-identical, not just close: the rescore runs the same
        // kernel over the same rows as the exact path.
        EXPECT_EQ(item.score, it->second)
            << "item " << item.item_id << " mode " << static_cast<int>(mode);
      }
      // Best-first under the shared (score desc, id asc) total order.
      for (size_t i = 1; i < approx->items.size(); ++i) {
        const ScoredItem& prev = approx->items[i - 1];
        const ScoredItem& cur = approx->items[i];
        EXPECT_TRUE(prev.score > cur.score ||
                    (prev.score == cur.score && prev.item_id < cur.item_id));
      }
    }
  }
}

TEST_F(AnnServeTest, FilterDropsItemsBeforeCandidateSelection) {
  auto filter = [](uint64_t item_id) { return item_id % 3 == 0; };
  for (Mode mode : {Mode::kIvf, Mode::kIvfPq}) {
    auto r = service_.TopKAll(5, 20, filter, mode);
    ASSERT_TRUE(r.ok());
    ASSERT_FALSE(r->items.empty());
    for (const ScoredItem& item : r->items) {
      EXPECT_EQ(item.item_id % 3, 0u) << "mode " << static_cast<int>(mode);
    }
  }
}

TEST_F(AnnServeTest, RepeatedAnnQueriesAreDeterministic) {
  for (Mode mode : {Mode::kIvf, Mode::kIvfPq}) {
    auto first = service_.TopKAll(9, 15, nullptr, mode);
    ASSERT_TRUE(first.ok());
    for (int trial = 0; trial < 5; ++trial) {
      auto again = service_.TopKAll(9, 15, nullptr, mode);
      ASSERT_TRUE(again.ok());
      ASSERT_EQ(again->items.size(), first->items.size());
      for (size_t i = 0; i < first->items.size(); ++i) {
        EXPECT_EQ(again->items[i].item_id, first->items[i].item_id);
        EXPECT_EQ(again->items[i].score, first->items[i].score);
      }
    }
  }
}

TEST_F(AnnServeTest, BatchAnnMatchesPerUserCalls) {
  std::vector<uint64_t> uids = {1, 12, 3, 1};
  auto batch = service_.TopKAllBatch(uids, 10, nullptr, Mode::kIvfPq);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->size(), uids.size());
  for (size_t i = 0; i < uids.size(); ++i) {
    auto single = service_.TopKAll(uids[i], 10, nullptr, Mode::kIvfPq);
    ASSERT_TRUE(single.ok());
    ASSERT_EQ((*batch)[i].items.size(), single->items.size());
    for (size_t j = 0; j < single->items.size(); ++j) {
      EXPECT_EQ((*batch)[i].items[j].item_id, single->items[j].item_id);
      EXPECT_EQ((*batch)[i].items[j].score, single->items[j].score);
    }
  }
}

TEST_F(AnnServeTest, AutoSwitchesOnFilterAdjustedCatalogSize) {
  // Threshold below the catalog: kAuto routes through the index.
  PredictionServiceOptions opts = MakeServiceOptions();
  opts.topk_auto_ann_min_rows = 1000;
  PredictionService low(opts, &registry_, &weights_, &bootstrapper_, &feature_cache_,
                        &prediction_cache_, FeatureResolver());
  low.SetScanPool(&pool_);
  ASSERT_TRUE(low.TopKAll(1, 10).ok());
  EXPECT_EQ(low.ann_queries(), 1u);

  // Same threshold, but a filter keeping ~0.1% of the catalog: the
  // eligible estimate (~20 rows) is far below it, so kAuto must stay
  // on the exact scan.
  auto sparse = [](uint64_t item_id) { return item_id % 1000 == 0; };
  ASSERT_TRUE(low.TopKAll(1, 10, sparse).ok());
  EXPECT_EQ(low.ann_queries(), 1u);

  // Threshold above the catalog: exact even unfiltered.
  ASSERT_TRUE(service_.TopKAll(1, 10).ok());
  EXPECT_EQ(service_.ann_queries(), 0u);
}

TEST_F(AnnServeTest, ExplicitAnnModeWithoutIndexFailsPrecondition) {
  ModelRegistry bare("no_ann");  // no SetAnnBuild
  bare.Register(std::make_shared<MaterializedFeatureFunction>(table_, kDim), nullptr,
                0.0);
  PredictionService service(MakeServiceOptions(), &bare, &weights_, &bootstrapper_,
                            &feature_cache_, &prediction_cache_, FeatureResolver());
  EXPECT_TRUE(service.TopKAll(1, 10, nullptr, Mode::kIvf).status().IsFailedPrecondition());
  EXPECT_TRUE(
      service.TopKAll(1, 10, nullptr, Mode::kIvfPq).status().IsFailedPrecondition());
  // kAuto degrades gracefully to the exact scan.
  EXPECT_TRUE(service.TopKAll(1, 10).ok());
}

TEST_F(AnnServeTest, AnnCountersTrackProbeAndRescoreVolume) {
  const uint64_t q0 = service_.ann_queries();
  auto r = service_.TopKAll(2, 10, nullptr, Mode::kIvfPq);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(service_.ann_queries(), q0 + 1);
  EXPECT_GT(service_.ann_probes(), 0u);
  EXPECT_GT(service_.ann_candidates(), 0u);
  EXPECT_GT(service_.ann_rescored(), 0u);
  // The PQ shortlist bounds rescoring well below the probed candidates.
  EXPECT_LE(service_.ann_rescored(), service_.ann_candidates());
}

// Satellite regression: fan-out follows the *filter-adjusted* row
// estimate. 4096 raw rows over a 4-thread pool with a 64-row floor
// would always plan 4 shards on raw counts; a 0.1%-keep filter leaves
// an estimated handful of eligible rows, under one shard's floor, so
// the plan must collapse to 1. Without a pool the plan is always 1.
TEST_F(AnnServeTest, PlannedScanShardsFollowEligibleRowsNotRawRows) {
  MaterializedFeatureFunction::FactorTable table;
  for (uint64_t id = 0; id < 4096; ++id) {
    DenseVector f(kDim);
    for (size_t d = 0; d < kDim; ++d) f[d] = static_cast<double>(d + id % 7);
    table[id] = std::move(f);
  }
  ItemFactorPlane plane(table, kDim);
  EXPECT_EQ(service_.PlannedScanShards(plane, nullptr), 4u);
  auto sparse = [](uint64_t item_id) { return item_id % 1000 == 0; };
  EXPECT_EQ(service_.PlannedScanShards(plane, sparse), 1u);
  PredictionService no_pool(MakeServiceOptions(), &registry_, &weights_, &bootstrapper_,
                            &feature_cache_, &prediction_cache_, FeatureResolver());
  EXPECT_EQ(no_pool.PlannedScanShards(plane, nullptr), 1u);
}

}  // namespace
}  // namespace velox
