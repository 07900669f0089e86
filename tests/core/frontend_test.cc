#include "core/frontend.h"

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <string>

#include "data/movielens.h"

namespace velox {
namespace {

class FrontendTest : public ::testing::Test {
 protected:
  FrontendTest() {
    VeloxServerConfig config;
    config.num_nodes = 1;
    config.dim = 4;
    config.bandit_policy = "";
    config.batch_workers = 2;
    AlsConfig als;
    als.rank = 4;
    als.iterations = 5;
    server_ = std::make_unique<VeloxServer>(
        config, std::make_unique<MatrixFactorizationModel>("songs", als));

    SyntheticMovieLensConfig data_config;
    data_config.num_users = 40;
    data_config.num_items = 50;
    data_config.latent_rank = 4;
    data_config.min_ratings_per_user = 5;
    data_config.max_ratings_per_user = 10;
    auto ds = GenerateSyntheticMovieLens(data_config);
    VELOX_CHECK_OK(ds.status());
    VELOX_CHECK_OK(server_->Bootstrap(ds->ratings));

    FrontendOptions options;
    options.num_threads = 2;
    options.topk_k = 3;
    frontend_ = std::make_unique<VeloxFrontend>(options, server_.get());
  }

  Request Predict(uint64_t uid, uint64_t item) {
    Request req;
    req.type = RequestType::kPredict;
    req.uid = uid;
    req.items = {item};
    return req;
  }

  std::unique_ptr<VeloxServer> server_;
  std::unique_ptr<VeloxFrontend> frontend_;
};

TEST_F(FrontendTest, HandlesPredict) {
  auto response = frontend_->Handle(Predict(1, 2));
  ASSERT_TRUE(response.status.ok());
  ASSERT_EQ(response.items.size(), 1u);
  EXPECT_EQ(response.items[0].item_id, 2u);
  EXPECT_GT(response.latency_micros, 0.0);
}

TEST_F(FrontendTest, HandlesTopK) {
  Request req;
  req.type = RequestType::kTopK;
  req.uid = 1;
  req.items = {0, 1, 2, 3, 4, 5, 6, 7};
  auto response = frontend_->Handle(req);
  ASSERT_TRUE(response.status.ok());
  EXPECT_EQ(response.items.size(), 3u);  // topk_k = 3
  EXPECT_GE(response.items[0].score, response.items[1].score);
}

TEST_F(FrontendTest, HandlesObserve) {
  Request req;
  req.type = RequestType::kObserve;
  req.uid = 1;
  req.items = {2};
  req.label = 4.5;
  auto response = frontend_->Handle(req);
  ASSERT_TRUE(response.status.ok());
  EXPECT_TRUE(response.items.empty());
}

TEST_F(FrontendTest, MalformedRequestsRejected) {
  Request no_item;
  no_item.type = RequestType::kPredict;
  no_item.uid = 1;
  EXPECT_TRUE(frontend_->Handle(no_item).status.IsInvalidArgument());

  Request no_observe_item;
  no_observe_item.type = RequestType::kObserve;
  no_observe_item.uid = 1;
  EXPECT_TRUE(frontend_->Handle(no_observe_item).status.IsInvalidArgument());
  EXPECT_EQ(frontend_->errors(), 2u);
}

TEST_F(FrontendTest, LatencyHistogramsPerType) {
  frontend_->Handle(Predict(1, 2));
  frontend_->Handle(Predict(1, 3));
  Request observe;
  observe.type = RequestType::kObserve;
  observe.uid = 1;
  observe.items = {2};
  observe.label = 3.0;
  frontend_->Handle(observe);
  EXPECT_EQ(frontend_->PredictLatency().count, 2u);
  EXPECT_EQ(frontend_->ObserveLatency().count, 1u);
  EXPECT_EQ(frontend_->TopKLatency().count, 0u);
  EXPECT_EQ(frontend_->requests_served(), 3u);
}

TEST_F(FrontendTest, MetricsReportIncludesFrontendAndStageSeries) {
  frontend_->Handle(Predict(1, 2));
  Request observe;
  observe.type = RequestType::kObserve;
  observe.uid = 1;
  observe.items = {2};
  observe.label = 3.0;
  frontend_->Handle(observe);
  MetricsRegistry registry;
  std::string report = frontend_->MetricsReport(&registry);
  // Frontend request-level series...
  EXPECT_NE(report.find("frontend.predict.p99_us"), std::string::npos);
  EXPECT_EQ(registry.GetGauge("frontend.requests")->value(), 2.0);
  // ...and the server's per-stage breakdown in the same report.
  EXPECT_NE(report.find("velox.songs.stage.user_weight_lookup.count"),
            std::string::npos);
  EXPECT_NE(report.find("velox.songs.stage.online_solve.mean_us"),
            std::string::npos);
}

TEST_F(FrontendTest, AsyncRequestsComplete) {
  std::atomic<int> completed{0};
  std::atomic<int> ok{0};
  std::atomic<int> not_found{0};
  for (uint64_t i = 0; i < 50; ++i) {
    frontend_->SubmitAsync(Predict(i % 40, i % 50), [&](FrontendResponse response) {
      completed.fetch_add(1);
      if (response.status.ok()) {
        ok.fetch_add(1);
      } else if (response.status.IsNotFound()) {
        // Item never rated during training: no factor, by contract.
        not_found.fetch_add(1);
      }
    });
  }
  frontend_->Drain();
  EXPECT_EQ(completed.load(), 50);
  EXPECT_EQ(ok.load() + not_found.load(), 50);
  EXPECT_GT(ok.load(), 25);
}

TEST_F(FrontendTest, ItemBuilderInjectsAttributes) {
  FrontendOptions options;
  options.num_threads = 1;
  options.item_builder = [](uint64_t id) {
    Item item;
    item.id = id;
    item.attributes = DenseVector{static_cast<double>(id)};
    return item;
  };
  VeloxFrontend frontend(options, server_.get());
  // The MF model ignores attributes, so this still succeeds — the point
  // is that the builder path is exercised.
  auto response = frontend.Handle(Predict(1, 2));
  EXPECT_TRUE(response.status.ok());
}

// The server plane dispatches every pop through HandleBatch, so a batch
// of one must be Handle exactly: same response, same frontend counters,
// same stage samples, cache and coalescer traffic, and the same WAL
// activity — in particular a lone observe must not open a group commit.
// Two twin durable servers take the same request sequence, one through
// Handle and one through one-request HandleBatch calls.
class LoneBatchTest : public ::testing::Test {
 protected:
  struct Twin {
    std::unique_ptr<VeloxServer> server;
    std::unique_ptr<VeloxFrontend> frontend;
  };

  static Twin MakeTwin(const std::string& name) {
    const std::string dir = ::testing::TempDir() + "/" + name;
    ::mkdir(dir.c_str(), 0755);
    for (int n = 0; n < 2; ++n) {
      const std::string base = dir + "/user_weights_node" + std::to_string(n);
      std::remove((base + ".wal").c_str());
      std::remove((base + ".snap").c_str());
    }
    VeloxServerConfig config;
    config.num_nodes = 2;
    config.dim = 4;
    config.bandit_policy = "linucb:0.5";
    config.batch_workers = 2;
    config.durability.dir = dir;
    config.durability.wal.sync = WalSyncPolicy::kFsync;
    config.durability.wal.fsync_every_n = 1;
    AlsConfig als;
    als.rank = 4;
    als.iterations = 5;
    Twin twin;
    twin.server = std::make_unique<VeloxServer>(
        config, std::make_unique<MatrixFactorizationModel>("songs", als));
    SyntheticMovieLensConfig data_config;
    data_config.num_users = 40;
    data_config.num_items = 50;
    data_config.latent_rank = 4;
    data_config.min_ratings_per_user = 5;
    data_config.max_ratings_per_user = 10;
    auto ds = GenerateSyntheticMovieLens(data_config);
    VELOX_CHECK_OK(ds.status());
    VELOX_CHECK_OK(twin.server->Bootstrap(ds->ratings));
    FrontendOptions options;
    options.num_threads = 1;
    options.topk_k = 3;
    twin.frontend = std::make_unique<VeloxFrontend>(options, twin.server.get());
    return twin;
  }

  static void ExpectSameResponse(const FrontendResponse& a, const FrontendResponse& b,
                                 const std::string& what) {
    EXPECT_EQ(a.status.code(), b.status.code()) << what;
    EXPECT_EQ(a.top_is_exploratory, b.top_is_exploratory) << what;
    ASSERT_EQ(a.items.size(), b.items.size()) << what;
    for (size_t k = 0; k < a.items.size(); ++k) {
      EXPECT_EQ(a.items[k].item_id, b.items[k].item_id) << what;
      EXPECT_EQ(a.items[k].degraded, b.items[k].degraded) << what;
      EXPECT_EQ(std::memcmp(&a.items[k].score, &b.items[k].score, sizeof(double)), 0)
          << what;
      EXPECT_EQ(std::memcmp(&a.items[k].uncertainty, &b.items[k].uncertainty,
                            sizeof(double)),
                0)
          << what;
    }
  }

  // Every counter a lone request can move, compared across the twins.
  static void ExpectSameCounters(const Twin& a, const Twin& b, const std::string& what) {
    EXPECT_EQ(a.frontend->requests_served(), b.frontend->requests_served()) << what;
    EXPECT_EQ(a.frontend->errors(), b.frontend->errors()) << what;
    EXPECT_EQ(a.frontend->PredictLatency().count, b.frontend->PredictLatency().count)
        << what;
    EXPECT_EQ(a.frontend->TopKLatency().count, b.frontend->TopKLatency().count) << what;
    EXPECT_EQ(a.frontend->ObserveLatency().count, b.frontend->ObserveLatency().count)
        << what;
    for (int s = 0; s < kNumStages; ++s) {
      const Stage stage = static_cast<Stage>(s);
      EXPECT_EQ(a.server->StageData(stage).count(), b.server->StageData(stage).count())
          << what << " stage " << StageName(stage);
    }
    const ServerCacheStats ca = a.server->AggregatedCacheStats();
    const ServerCacheStats cb = b.server->AggregatedCacheStats();
    EXPECT_EQ(ca.feature.hits, cb.feature.hits) << what;
    EXPECT_EQ(ca.feature.misses, cb.feature.misses) << what;
    EXPECT_EQ(ca.prediction.hits, cb.prediction.hits) << what;
    EXPECT_EQ(ca.prediction.misses, cb.prediction.misses) << what;
    EXPECT_EQ(a.server->DegradedCount(), b.server->DegradedCount()) << what;
    for (NodeId n = 0; n < 2; ++n) {
      PredictionService* pa = a.server->prediction_service(n);
      PredictionService* pb = b.server->prediction_service(n);
      EXPECT_EQ(pa->coalesce_keys(), pb->coalesce_keys()) << what;
      EXPECT_EQ(pa->coalesce_hits(), pb->coalesce_hits()) << what;
      EXPECT_EQ(pa->coalesce_fetches(), pb->coalesce_fetches()) << what;
      UserWeightJournal* ja = a.server->user_weight_journal(n);
      UserWeightJournal* jb = b.server->user_weight_journal(n);
      EXPECT_EQ(ja->appends(), jb->appends()) << what;
      EXPECT_EQ(ja->group_commits(), jb->group_commits()) << what;
    }
  }
};

TEST_F(LoneBatchTest, HandleBatchOfOneMatchesHandleForEveryRequestType) {
  Twin single = MakeTwin("lone_batch_handle");
  Twin batched = MakeTwin("lone_batch_batched");

  auto request = [](RequestType type, uint64_t uid, std::vector<uint64_t> items) {
    Request r;
    r.type = type;
    r.uid = uid;
    r.items = std::move(items);
    r.label = 4.0;
    return r;
  };
  const std::vector<std::pair<std::string, Request>> sequence = {
      {"predict cold", request(RequestType::kPredict, 3, {7})},
      {"predict warm", request(RequestType::kPredict, 3, {7})},
      {"predict unknown item", request(RequestType::kPredict, 3, {1007})},
      {"predict no item", request(RequestType::kPredict, 3, {})},
      {"topk", request(RequestType::kTopK, 5, {0, 1, 2, 3, 4, 5, 6, 7})},
      {"topk again", request(RequestType::kTopK, 5, {0, 1, 2, 3, 4, 5, 6, 7})},
      {"topk empty", request(RequestType::kTopK, 5, {})},
      {"observe", request(RequestType::kObserve, 5, {3})},
      {"observe other node", request(RequestType::kObserve, 6, {4})},
      {"observe no item", request(RequestType::kObserve, 5, {})},
      {"predict after observe", request(RequestType::kPredict, 5, {3})},
      {"topk after observe", request(RequestType::kTopK, 5, {0, 1, 2, 3})},
  };
  for (const auto& [what, req] : sequence) {
    FrontendResponse expected = single.frontend->Handle(req);
    std::vector<FrontendResponse> got = batched.frontend->HandleBatch({&req});
    ASSERT_EQ(got.size(), 1u) << what;
    ExpectSameResponse(expected, got[0], what);
    ExpectSameCounters(single, batched, what);
  }
  // The observes were journaled (the comparison covers real WAL work),
  // and none of them opened a group commit on either twin.
  uint64_t appends = 0;
  for (NodeId n = 0; n < 2; ++n) {
    appends += batched.server->user_weight_journal(n)->appends();
    EXPECT_EQ(batched.server->user_weight_journal(n)->group_commits(), 0u);
  }
  EXPECT_GT(appends, 0u);
}

}  // namespace
}  // namespace velox
