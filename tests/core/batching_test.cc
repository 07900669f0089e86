// The serving-tier batched path: PredictBatch vs per-key Predict
// bit-identity, miss coalescing (duplicates merged, one MultiGet per
// batch), single-flight dedup of concurrent misses, per-key
// degradation when one storage node's sub-batch drops, and no
// feature-resolve stage sample for requests that never resolve one.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "core/velox_server.h"
#include "data/movielens.h"

namespace velox {
namespace {

VeloxServerConfig BatchingConfig() {
  VeloxServerConfig config;
  config.num_nodes = 4;
  config.dim = 4;
  config.bandit_policy = "";
  config.batch_workers = 2;
  config.evaluator.min_observations = 1000000;
  config.distribute_item_features = true;  // resolution goes via storage
  config.storage.replication_factor = 2;
  return config;
}

std::unique_ptr<VeloxModel> SmallModel() {
  AlsConfig als;
  als.rank = 4;
  als.iterations = 5;
  return std::make_unique<MatrixFactorizationModel>("songs", als);
}

SyntheticDataset SmallData() {
  SyntheticMovieLensConfig config;
  config.num_users = 50;
  config.num_items = 60;
  config.latent_rank = 4;
  config.seed = 21;
  auto ds = GenerateSyntheticMovieLens(config);
  VELOX_CHECK_OK(ds.status());
  return std::move(ds).value();
}

Item MakeItem(uint64_t id) {
  Item item;
  item.id = id;
  return item;
}

TEST(PredictBatchTest, BitIdenticalToPerKeyPredict) {
  // Two identically-built servers: one answers through the batched
  // path, one per key. Every score must match bit for bit — batching
  // changes the wire shape, never the arithmetic.
  SyntheticDataset data = SmallData();
  VeloxServer batched(BatchingConfig(), SmallModel());
  VeloxServer per_key(BatchingConfig(), SmallModel());
  ASSERT_TRUE(batched.Bootstrap(data.ratings).ok());
  ASSERT_TRUE(per_key.Bootstrap(data.ratings).ok());

  const uint64_t uid = data.ratings[0].uid;
  std::vector<Item> items;
  for (uint64_t id = 0; id < 20; ++id) items.push_back(MakeItem(id));
  items.push_back(MakeItem(3));  // duplicates ride along
  items.push_back(MakeItem(3));

  auto batch = batched.PredictBatch(uid, items);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch.value().size(), items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    auto single = per_key.Predict(uid, items[i]);
    ASSERT_TRUE(single.ok());
    EXPECT_EQ(batch.value()[i].item_id, items[i].id);
    EXPECT_EQ(batch.value()[i].score, single->score) << "item " << items[i].id;
    EXPECT_FALSE(batch.value()[i].degraded);
  }
  // The duplicates got the same answer as their first occurrence.
  EXPECT_EQ(batch.value()[20].score, batch.value()[3].score);
  EXPECT_EQ(batch.value()[21].score, batch.value()[3].score);
}

TEST(PredictBatchTest, DuplicateItemsFetchStorageOnce) {
  SyntheticDataset data = SmallData();
  VeloxServer server(BatchingConfig(), SmallModel());
  ASSERT_TRUE(server.Bootstrap(data.ratings).ok());

  const uint64_t uid = data.ratings[0].uid;
  NodeId home = server.storage()->OwnerOf(uid).value();
  PredictionService* ps = server.prediction_service(home);
  ASSERT_NE(ps, nullptr);

  // Bootstrap's log replay warmed the feature cache; flush it so the
  // batch actually misses.
  server.feature_cache(home)->Clear();
  const uint64_t item = data.ratings[0].item_id;
  uint64_t fetches_before = ps->coalesce_fetches();
  uint64_t merged_before = ps->coalesce_merged();
  auto batch = server.PredictBatch(uid, {MakeItem(item), MakeItem(item),
                                         MakeItem(item)});
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  // Three copies of an uncached item cost exactly one storage fetch;
  // the other two merged into it.
  EXPECT_EQ(ps->coalesce_fetches() - fetches_before, 1u);
  EXPECT_EQ(ps->coalesce_merged() - merged_before, 2u);
  EXPECT_EQ(batch.value()[1].score, batch.value()[0].score);
  EXPECT_EQ(batch.value()[2].score, batch.value()[0].score);
}

TEST(PredictBatchTest, ConcurrentMissesSingleFlightToStorage) {
  SyntheticDataset data = SmallData();
  VeloxServer server(BatchingConfig(), SmallModel());
  ASSERT_TRUE(server.Bootstrap(data.ratings).ok());

  // Two uids homed on the same node so both requests hit one
  // PredictionService (and its single-flight table).
  const uint64_t uid_a = data.ratings[0].uid;
  NodeId home = server.storage()->OwnerOf(uid_a).value();
  uint64_t uid_b = uid_a;
  for (const Observation& obs : data.ratings) {
    if (obs.uid != uid_a && server.storage()->OwnerOf(obs.uid).value() == home) {
      uid_b = obs.uid;
      break;
    }
  }
  ASSERT_NE(uid_b, uid_a);
  PredictionService* ps = server.prediction_service(home);
  server.feature_cache(home)->Clear();
  const uint64_t item = data.ratings[0].item_id;
  uint64_t fetches_before = ps->coalesce_fetches();

  // Whether the threads truly overlap (loser waits on the winner's
  // flight) or serialize (second is a cache hit), the item is fetched
  // from storage exactly once.
  std::atomic<int> ready{0};
  double score_a = 0.0;
  double score_b = 0.0;
  std::thread ta([&] {
    ready.fetch_add(1);
    while (ready.load() < 2) {
    }
    auto r = server.Predict(uid_a, MakeItem(item));
    ASSERT_TRUE(r.ok());
    score_a = r->score;
  });
  std::thread tb([&] {
    ready.fetch_add(1);
    while (ready.load() < 2) {
    }
    auto r = server.Predict(uid_b, MakeItem(item));
    ASSERT_TRUE(r.ok());
    score_b = r->score;
  });
  ta.join();
  tb.join();
  EXPECT_EQ(ps->coalesce_fetches() - fetches_before, 1u);

  // And each thread's answer matches a fresh recompute bit for bit.
  auto again_a = server.Predict(uid_a, MakeItem(item));
  auto again_b = server.Predict(uid_b, MakeItem(item));
  ASSERT_TRUE(again_a.ok());
  ASSERT_TRUE(again_b.ok());
  EXPECT_EQ(score_a, again_a->score);
  EXPECT_EQ(score_b, again_b->score);
}

TEST(PredictBatchTest, OneNodesDropDegradesOnlyItsKeys) {
  // Replication 1 so each item has exactly one owner: partitioning the
  // home node away from one storage node strands only that node's
  // sub-batch, and only its items degrade.
  VeloxServerConfig config = BatchingConfig();
  config.storage.replication_factor = 1;
  config.use_feature_cache = false;  // every item resolves via storage
  config.use_prediction_cache = false;
  SyntheticDataset data = SmallData();
  VeloxServer server(config, SmallModel());
  ASSERT_TRUE(server.Bootstrap(data.ratings).ok());

  const uint64_t uid = data.ratings[0].uid;
  NodeId home = server.storage()->OwnerOf(uid).value();
  NodeId dead = (home + 1) % 4;
  std::vector<Item> items;
  std::vector<bool> expect_degraded;
  for (uint64_t id = 0; id < 60 && items.size() < 12; ++id) {
    NodeId owner = server.storage()->OwnerOf(id).value();
    items.push_back(MakeItem(id));
    expect_degraded.push_back(owner == dead && owner != home);
  }
  ASSERT_GT(std::count(expect_degraded.begin(), expect_degraded.end(), true), 0);
  ASSERT_GT(std::count(expect_degraded.begin(), expect_degraded.end(), false), 0);

  server.storage()->network()->SetPartitioned(home, dead, true);
  auto batch = server.PredictBatch(uid, items);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  for (size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(batch.value()[i].degraded, expect_degraded[i])
        << "item " << items[i].id << " owner "
        << server.storage()->OwnerOf(items[i].id).value();
  }

  // Healing the partition heals the whole batch.
  server.storage()->network()->SetPartitioned(home, dead, false);
  auto healed = server.PredictBatch(uid, items);
  ASSERT_TRUE(healed.ok());
  for (size_t i = 0; i < items.size(); ++i) {
    EXPECT_FALSE(healed.value()[i].degraded) << "item " << items[i].id;
  }
}

// Requests whose items all hit the prediction cache never resolve a
// feature, so they must not record a (near-zero) feature_resolve_local
// sample — one would skew that stage's percentiles toward 0 for every
// cache-hit predict and topK.
TEST(PredictBatchTest, AllCacheHitsRecordNoFeatureResolveSample) {
  SyntheticDataset data = SmallData();
  VeloxServer server(BatchingConfig(), SmallModel());
  ASSERT_TRUE(server.Bootstrap(data.ratings).ok());

  const uint64_t uid = data.ratings[0].uid;
  std::vector<Item> items;
  for (uint64_t id = 0; id < 5; ++id) items.push_back(MakeItem(id));
  ASSERT_TRUE(server.PredictBatch(uid, items).ok());  // fills the cache
  server.ResetStageStats();

  constexpr int kCalls = 100;
  for (int i = 0; i < kCalls; ++i) {
    ASSERT_TRUE(server.PredictBatch(uid, items).ok());
    ASSERT_TRUE(server.Predict(uid, items[i % items.size()]).ok());
    ASSERT_TRUE(server.TopK(uid, items, 3).ok());
  }
  EXPECT_EQ(server.StageData(Stage::kPredictionCacheProbe).count(), 3u * kCalls);
  EXPECT_EQ(server.StageData(Stage::kFeatureResolveLocal).count(), 0u);
  EXPECT_EQ(server.StageData(Stage::kFeatureResolveRemote).count(), 0u);
}

}  // namespace
}  // namespace velox
