// The serving-tier batched path: PredictBatch vs per-key Predict
// bit-identity, miss coalescing (duplicates merged, one MultiGet per
// batch), single-flight dedup of concurrent misses, per-key
// degradation when one storage node's sub-batch drops, no
// feature-resolve stage sample for requests that never resolve one,
// and candidate topK's one-pass scoring pinned against PredictBatch,
// the store's uncertainty and the policy's own ranking.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <set>
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

// Candidate topK under LinUCB on a 4-node distributed-θ server (R = 2):
// every candidate's score is its PredictBatch score, its uncertainty is
// the store's Uncertainty(uid, f), the order is LinUcbPolicy::Rank over
// exactly those values, and a degraded candidate carries the ladder's
// score with zero uncertainty — with cold caches, warm caches, and
// under an injected drop of all remote traffic.
TEST(CandidateTopKTest, LinUcbPinsScoresUncertaintiesAndOrder) {
  VeloxServerConfig config = BatchingConfig();
  config.bandit_policy = "linucb:0.5";
  SyntheticDataset data = SmallData();
  VeloxServer server(config, SmallModel());
  ASSERT_TRUE(server.Bootstrap(data.ratings).ok());

  const uint64_t uid = data.ratings[0].uid;
  const NodeId home = server.storage()->OwnerOf(uid).value();
  std::set<uint64_t> rated;
  for (const Observation& obs : data.ratings) rated.insert(obs.item_id);
  std::vector<uint64_t> catalog(rated.begin(), rated.end());
  ASSERT_GE(catalog.size(), 40u);
  std::vector<Item> warm;
  for (size_t i = 0; i < 20; ++i) warm.push_back(MakeItem(catalog[i]));
  // Solver state for the user, so uncertainties differ across items.
  for (size_t i = 0; i < 5; ++i) ASSERT_TRUE(server.Observe(uid, warm[i], 4.5).ok());

  std::shared_ptr<const ModelVersion> version = server.registry()->Current().value();
  UserWeightStore* store = server.user_weights(home);
  PredictionService* service = server.prediction_service(home);
  const LinUcbPolicy linucb(0.5);

  // Pins `top` (all candidates, k = size) against the references.
  // `fallback` is the ladder score a degraded candidate must carry
  // (callers place degraded candidates first, before any score joins
  // the mean in that request).
  auto pin = [&](const std::vector<Item>& candidates, const TopKResult& top,
                 const std::vector<bool>& degraded, double fallback) {
    auto predicted = server.PredictBatch(uid, candidates);
    ASSERT_TRUE(predicted.ok()) << predicted.status().ToString();
    std::vector<BanditCandidate> expected(candidates.size());
    for (size_t i = 0; i < candidates.size(); ++i) {
      expected[i].item_id = candidates[i].id;
      if (degraded[i]) {
        expected[i].score = fallback;
        continue;
      }
      expected[i].score = predicted.value()[i].score;
      DenseVector f = version->features->Features(candidates[i]).value();
      expected[i].uncertainty = store->Uncertainty(uid, f);
    }
    std::vector<size_t> order = linucb.Rank(expected, nullptr);
    ASSERT_EQ(top.items.size(), candidates.size());
    for (size_t r = 0; r < order.size(); ++r) {
      const ScoredItem& got = top.items[r];
      const BanditCandidate& want = expected[order[r]];
      EXPECT_EQ(got.item_id, want.item_id) << "rank " << r;
      EXPECT_EQ(got.score, want.score) << "item " << want.item_id;
      EXPECT_EQ(got.uncertainty, want.uncertainty) << "item " << want.item_id;
      EXPECT_EQ(got.degraded, degraded[order[r]]) << "item " << want.item_id;
    }
    EXPECT_EQ(top.degraded,
              std::find(degraded.begin(), degraded.end(), true) != degraded.end());
    EXPECT_EQ(top.top_is_exploratory, order[0] != BanditPolicy::GreedyTop(expected));
    EXPECT_EQ(top.model_version, version->version);
  };

  // Cold: nothing cached on any node; every factor comes from storage.
  for (NodeId n = 0; n < config.num_nodes; ++n) server.feature_cache(n)->Clear();
  auto cold = server.TopK(uid, warm, warm.size());
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  pin(warm, cold.value(), std::vector<bool>(warm.size(), false), 0.0);

  // Warm: the same set again, every factor a feature-cache hit (and the
  // reference PredictBatch filled the prediction cache, which bandit
  // mode must not read).
  auto hot = server.TopK(uid, warm, warm.size());
  ASSERT_TRUE(hot.ok());
  pin(warm, hot.value(), std::vector<bool>(warm.size(), false), 0.0);

  // Drop: all remote traffic lost. Never-requested items with no
  // replica on the home node degrade to the bootstrap mean (placed
  // first); never-requested local items and warm items still score.
  std::vector<Item> candidates;
  std::vector<bool> degraded;
  std::vector<Item> local;
  for (size_t i = warm.size(); i < catalog.size(); ++i) {
    const std::vector<NodeId> owners = server.storage()->OwnersOf(catalog[i]).value();
    const bool has_local_replica =
        std::find(owners.begin(), owners.end(), home) != owners.end();
    if (has_local_replica) {
      local.push_back(MakeItem(catalog[i]));
    } else {
      candidates.push_back(MakeItem(catalog[i]));
      degraded.push_back(true);
    }
  }
  for (const Item& item : local) candidates.push_back(item);
  for (size_t i = 0; i < 5; ++i) candidates.push_back(warm[i]);
  degraded.resize(candidates.size(), false);
  ASSERT_GT(std::count(degraded.begin(), degraded.end(), true), 0);
  ASSERT_GT(local.size(), 0u);

  const double fallback = service->fallback_score();
  FaultInjectionOptions faults;
  faults.drop_probability = 1.0;
  server.storage()->network()->InjectFaults(faults);
  auto dropped = server.TopK(uid, candidates, candidates.size());
  server.storage()->network()->ClearFaults();
  ASSERT_TRUE(dropped.ok()) << dropped.status().ToString();
  pin(candidates, dropped.value(), degraded, fallback);
}

// Concurrent candidate topKs on one node under the two policies that
// draw from the node's Rng, with observes on the same users. Only Rank
// holds the node's rank mutex, so scoring runs in parallel while the
// Rng stays serialized (the TSan job checks both); every answer is a
// well-formed ranking of the request's own candidates.
TEST(CandidateTopKTest, ConcurrentTopKAndObservesUnderRandomizedPolicies) {
  for (const char* policy : {"thompson", "epsilon_greedy:0.3"}) {
    VeloxServerConfig config = BatchingConfig();
    config.num_nodes = 1;
    config.distribute_item_features = false;
    config.storage.replication_factor = 1;
    config.bandit_policy = policy;
    SyntheticDataset data = SmallData();
    VeloxServer server(config, SmallModel());
    ASSERT_TRUE(server.Bootstrap(data.ratings).ok());

    std::set<uint64_t> rated;
    for (const Observation& obs : data.ratings) rated.insert(obs.item_id);
    std::vector<Item> candidates;
    for (uint64_t id : rated) candidates.push_back(MakeItem(id));
    std::vector<uint64_t> uids;
    for (size_t i = 0; i < data.ratings.size() && uids.size() < 4; ++i) {
      if (std::find(uids.begin(), uids.end(), data.ratings[i].uid) == uids.end()) {
        uids.push_back(data.ratings[i].uid);
      }
    }

    constexpr int kCalls = 150;
    constexpr size_t kTop = 5;
    std::atomic<int> bad{0};
    std::atomic<int> exploratory{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 3; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < kCalls; ++i) {
          uint64_t uid = uids[static_cast<size_t>(i + t) % uids.size()];
          auto top = server.TopK(uid, candidates, kTop);
          if (!top.ok() || top->items.size() != kTop || top->degraded) {
            bad.fetch_add(1);
            continue;
          }
          std::set<uint64_t> seen;
          for (const ScoredItem& item : top->items) {
            if (!std::isfinite(item.score) || !(item.uncertainty >= 0.0) ||
                !rated.count(item.item_id) || !seen.insert(item.item_id).second) {
              bad.fetch_add(1);
            }
          }
          if (top->top_is_exploratory) exploratory.fetch_add(1);
        }
      });
    }
    threads.emplace_back([&] {
      for (int i = 0; i < kCalls; ++i) {
        uint64_t uid = uids[static_cast<size_t>(i) % uids.size()];
        const Item& item = candidates[static_cast<size_t>(i) % candidates.size()];
        if (!server.Observe(uid, item, 1.0 + (i % 5)).ok()) bad.fetch_add(1);
      }
    });
    for (std::thread& t : threads) t.join();
    EXPECT_EQ(bad.load(), 0) << policy;
    EXPECT_GT(exploratory.load(), 0) << policy;  // the Rng was drawn from
  }
}

}  // namespace
}  // namespace velox
