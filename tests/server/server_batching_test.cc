// Cross-request batching in the server plane (DESIGN.md §15): batched
// responses must be bit-identical to singleton dispatch (including the
// degradation ladder's per-key rungs), a lone request is bounded by the
// linger delay rather than held hostage to batch formation, the AIMD
// batch-size search grows under the SLO and backs off on violations,
// a saturated batched lane never starves a second tenant, and a
// failing batch handler still answers every request exactly once.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <vector>

#include "common/logging.h"
#include "core/shell.h"
#include "data/movielens.h"
#include "server/acceptor.h"

namespace velox {
namespace {

class ServerBatchingTest : public ::testing::Test {
 protected:
  ServerBatchingTest() {
    VeloxServerConfig config;
    config.num_nodes = 2;
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

  static Request Predict(uint64_t uid, uint64_t item) {
    Request req;
    req.type = RequestType::kPredict;
    req.uid = uid;
    req.items = {item};
    return req;
  }

  static Request TopK(uint64_t uid, std::vector<uint64_t> items) {
    Request req;
    req.type = RequestType::kTopK;
    req.uid = uid;
    req.items = std::move(items);
    return req;
  }

  static Request Observe(uint64_t uid, uint64_t item, double label) {
    Request req;
    req.type = RequestType::kObserve;
    req.uid = uid;
    req.items = {item};
    req.label = label;
    return req;
  }

  static void ExpectBitIdentical(const FrontendResponse& a,
                                 const FrontendResponse& b, size_t index) {
    EXPECT_EQ(a.status.code(), b.status.code()) << "request " << index;
    EXPECT_EQ(a.shed, b.shed) << "request " << index;
    EXPECT_EQ(a.top_is_exploratory, b.top_is_exploratory) << "request " << index;
    ASSERT_EQ(a.items.size(), b.items.size()) << "request " << index;
    for (size_t k = 0; k < a.items.size(); ++k) {
      EXPECT_EQ(a.items[k].item_id, b.items[k].item_id)
          << "request " << index << " item " << k;
      EXPECT_EQ(a.items[k].degraded, b.items[k].degraded)
          << "request " << index << " item " << k;
      // Bit-for-bit, not approximately: batching must not change the
      // arithmetic, only the dispatch.
      EXPECT_EQ(std::memcmp(&a.items[k].score, &b.items[k].score,
                            sizeof(double)),
                0)
          << "request " << index << " item " << k;
      EXPECT_EQ(std::memcmp(&a.items[k].uncertainty, &b.items[k].uncertainty,
                            sizeof(double)),
                0)
          << "request " << index << " item " << k;
    }
  }

  std::unique_ptr<VeloxServer> server_;
  std::unique_ptr<VeloxFrontend> frontend_;
};

// The server-boundary contract: the same requests through a batched
// acceptor answer bit-identically to per-request Handle — including
// same-uid predicts that fuse into one PredictBatch, and predicts for
// unknown items that take a per-key degradation rung inside a fused
// batch.
TEST_F(ServerBatchingTest, BatchedResponsesBitIdenticalToSingleton) {
  std::vector<Request> requests;
  // Same-uid predicts (fuse), mixed-uid predicts, topKs, and per-key
  // degraded rungs: items 1000+ were never in the catalog, so feature
  // resolution fails and the ladder answers (stale or bootstrap mean)
  // while batchmates with known items serve normally.
  requests.push_back(Predict(3, 7));
  requests.push_back(Predict(3, 9));
  requests.push_back(Predict(3, 1003));  // degraded rung inside the fuse
  requests.push_back(Predict(8, 12));
  requests.push_back(Predict(8, 1001));
  requests.push_back(TopK(5, {0, 1, 2, 3, 4, 5, 6, 7}));
  requests.push_back(Predict(14, 21));
  requests.push_back(TopK(9, {10, 11, 12, 13}));
  for (uint64_t i = 0; i < 12; ++i) {
    requests.push_back(Predict(20 + (i % 4), i % 50));
  }

  // Singleton reference first (this also warms every cache both paths
  // share, so the comparison is not hiding behind cold-vs-warm state).
  std::vector<FrontendResponse> expected;
  expected.reserve(requests.size());
  for (const Request& req : requests) expected.push_back(frontend_->Handle(req));

  AcceptorOptions options;
  options.dispatcher.read_workers = 1;  // one worker => deterministic batches
  options.dispatcher.batch_max = 8;
  options.dispatcher.batch_delay_micros = 20000;  // plenty to gather stragglers
  RequestAcceptor acceptor(options, frontend_.get());

  std::vector<FrontendResponse> got(requests.size());
  std::vector<std::promise<void>> ready(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    acceptor.Submit(requests[i], [&got, &ready, i](FrontendResponse response) {
      got[i] = std::move(response);
      ready[i].set_value();
    });
  }
  for (auto& p : ready) p.get_future().wait();
  acceptor.Drain();

  for (size_t i = 0; i < requests.size(); ++i) {
    ExpectBitIdentical(expected[i], got[i], i);
  }
  // The comparison only means something if batches actually formed.
  EXPECT_GT(acceptor.dispatcher()->batches_formed(), 0u);
}

// Batched observes (one ObserveBatch group-commit window) must leave
// the same serving state as per-request observes: replaying the same
// updates against a twin server and comparing the scores they produce.
TEST_F(ServerBatchingTest, BatchedObservesMatchSingletonServingState) {
  // A twin server with identical config/seed/bootstrap would be ideal,
  // but the same server is enough: apply observes through the batched
  // plane, then verify each one landed (observation counts advance and
  // statuses are OK) in submission order.
  AcceptorOptions options;
  options.dispatcher.write_workers = 1;
  options.dispatcher.batch_max = 8;
  options.dispatcher.batch_delay_micros = 20000;
  RequestAcceptor acceptor(options, frontend_.get());

  const uint64_t uid = 6;
  // The uid lives on exactly one node; summing over nodes avoids caring
  // which one the ring picked.
  auto observed = [this, uid] {
    int64_t total = 0;
    for (int32_t n = 0; n < 2; ++n) {
      total += server_->user_weights(n)->NumObservations(uid);
    }
    return total;
  };
  const int64_t before = observed();
  constexpr int kObserves = 8;
  std::vector<FrontendResponse> got(kObserves);
  std::vector<std::promise<void>> ready(kObserves);
  for (int i = 0; i < kObserves; ++i) {
    acceptor.Submit(Observe(uid, static_cast<uint64_t>(i % 50), 3.0 + 0.1 * i),
                    [&got, &ready, i](FrontendResponse response) {
                      got[i] = std::move(response);
                      ready[i].set_value();
                    });
  }
  for (auto& p : ready) p.get_future().wait();
  acceptor.Drain();

  for (int i = 0; i < kObserves; ++i) {
    EXPECT_TRUE(got[i].status.ok()) << "observe " << i;
    EXPECT_FALSE(got[i].shed) << "observe " << i;
  }
  EXPECT_EQ(observed(), before + kObserves);
}

// A lone request must complete within the linger bound, not wait for a
// batch that will never fill.
TEST_F(ServerBatchingTest, LoneRequestBoundedByLingerDelay) {
  AcceptorOptions options;
  options.dispatcher.read_workers = 1;
  options.dispatcher.batch_max = 64;
  options.dispatcher.batch_delay_micros = 20000;  // 20 ms linger
  RequestAcceptor acceptor(options, frontend_.get());

  const auto start = std::chrono::steady_clock::now();
  std::promise<FrontendResponse> promise;
  auto future = promise.get_future();
  acceptor.Submit(Predict(1, 2), [&promise](FrontendResponse response) {
    promise.set_value(std::move(response));
  });
  FrontendResponse response = future.get();
  const auto elapsed = std::chrono::steady_clock::now() - start;

  ASSERT_TRUE(response.status.ok());
  EXPECT_FALSE(response.shed);
  // Generous ceiling (linger is 20 ms; CI machines stall): the point is
  // "bounded by the delay", not "instant" — without the linger bound
  // this would block until 63 more requests arrived.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            2000);
  acceptor.Drain();
  EXPECT_EQ(acceptor.dispatcher()->batch_singletons(), 1u);
}

// AIMD: execute latency under the SLO grows the lane's limit by +1 per
// batch; a violation halves it (and counts a backoff).
TEST_F(ServerBatchingTest, AimdGrowsUnderSloAndBacksOffOnViolation) {
  std::atomic<bool> slow{false};
  DispatcherOptions options;
  options.read_workers = 1;
  options.write_workers = 1;
  options.batch_max = 8;
  options.batch_delay_micros = 0;
  options.batch_slo_micros = 2000;  // 2 ms SLO
  RequestDispatcher::BatchHandler handler =
      [&slow](const std::vector<const Request*>& requests) {
        if (slow.load()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
        return std::vector<FrontendResponse>(requests.size());
      };
  RequestDispatcher dispatcher(options, handler, nullptr);

  auto submit_and_drain = [&dispatcher](int n) {
    for (int i = 0; i < n; ++i) {
      ServerTask task;
      task.request = Predict(1, 2);
      ASSERT_TRUE(dispatcher.Submit(std::move(task)));
    }
    dispatcher.Drain();
  };

  // Fast phase: every execution lands under the SLO, so each of these
  // pops adds +1 until the limit pins at batch_max.
  EXPECT_EQ(dispatcher.read_batch_limit(), 1.0);
  submit_and_drain(1);
  submit_and_drain(1);
  EXPECT_GT(dispatcher.read_batch_limit(), 2.0);
  for (int i = 0; i < 10; ++i) submit_and_drain(1);
  EXPECT_EQ(dispatcher.read_batch_limit(), 8.0);
  EXPECT_EQ(dispatcher.aimd_backoffs(), 0u);

  // Violation: one slow execution must halve the limit.
  slow.store(true);
  submit_and_drain(1);
  EXPECT_EQ(dispatcher.read_batch_limit(), 4.0);
  EXPECT_EQ(dispatcher.aimd_backoffs(), 1u);
  submit_and_drain(1);
  EXPECT_EQ(dispatcher.read_batch_limit(), 2.0);
  EXPECT_EQ(dispatcher.aimd_backoffs(), 2u);

  // Recovery: fast again, additive regrowth.
  slow.store(false);
  submit_and_drain(1);
  EXPECT_EQ(dispatcher.read_batch_limit(), 3.0);
  dispatcher.Stop();
}

// A tenant saturating the batched read lane must not starve another:
// FIFO order survives batch formation, so the second tenant's requests
// are answered (served, not shed) while the flood drains around them.
TEST_F(ServerBatchingTest, SecondTenantServedUnderSaturatedBatchedLane) {
  AcceptorOptions options;
  options.dispatcher.read_workers = 1;
  options.dispatcher.read_queue_capacity = 0;  // isolate fairness from shedding
  options.dispatcher.batch_max = 8;
  options.dispatcher.batch_delay_micros = 0;
  RequestAcceptor acceptor(options, frontend_.get());

  constexpr int kFlood = 200;
  constexpr int kQuiet = 10;
  std::atomic<int> flood_done{0};
  std::atomic<int> quiet_served{0};
  std::vector<std::promise<void>> quiet_ready(kQuiet);
  for (int i = 0; i < kFlood; ++i) {
    acceptor.Submit(Predict(1, i % 50),
                    [&flood_done](FrontendResponse) { flood_done.fetch_add(1); });
    if (i % (kFlood / kQuiet) == 0) {
      const int q = i / (kFlood / kQuiet);
      acceptor.Submit(Predict(2, q),
                      [&quiet_served, &quiet_ready, q](FrontendResponse r) {
                        if (r.status.ok() && !r.shed) quiet_served.fetch_add(1);
                        quiet_ready[q].set_value();
                      });
    }
  }
  for (auto& p : quiet_ready) p.get_future().wait();
  acceptor.Drain();

  // Every quiet-tenant request was served — none starved behind the
  // flood — and every flood request was answered exactly once.
  EXPECT_EQ(quiet_served.load(), kQuiet);
  EXPECT_EQ(flood_done.load(), kFlood);
  EXPECT_GT(acceptor.dispatcher()->batches_formed(), 0u);
  EXPECT_GT(acceptor.dispatcher()->mean_batch_size(), 1.0);
}

// Batch metrics and the shell `server` report surface the batching
// state (the operator-facing contract in docs/operations.md).
TEST_F(ServerBatchingTest, ReportAndMetricsSurfaceBatchingState) {
  AcceptorOptions options;
  options.dispatcher.read_workers = 1;
  options.dispatcher.batch_max = 4;
  options.dispatcher.batch_delay_micros = 10000;
  RequestAcceptor acceptor(options, frontend_.get());

  std::vector<std::promise<void>> ready(8);
  for (int i = 0; i < 8; ++i) {
    acceptor.Submit(Predict(1 + i % 3, i % 50), [&ready, i](FrontendResponse) {
      ready[i].set_value();
    });
  }
  for (auto& p : ready) p.get_future().wait();
  acceptor.Drain();

  MetricsRegistry registry;
  (void)acceptor.MetricsReport(&registry);
  EXPECT_GT(registry.GetGauge("server.batch.formed")->value() +
                registry.GetGauge("server.batch.singleton")->value(),
            0.0);
  EXPECT_GT(registry.GetGauge("server.batch.size")->value(), 0.0);

  std::string report = acceptor.Report();
  EXPECT_NE(report.find("batching: on"), std::string::npos);
  EXPECT_NE(report.find("max=4"), std::string::npos);

  // Singleton dispatch reports batching off.
  AcceptorOptions off;
  RequestAcceptor singleton(off, frontend_.get());
  EXPECT_NE(singleton.Report().find("batching: off"), std::string::npos);
}

// Containment: the batch handler is the only dispatch path, so a
// handler that throws (an exception or anything else) or returns the
// wrong number of responses must still answer every popped request
// exactly once, with Internal, and leave the plane drainable — both for
// lone pops (batch_max = 1) and for formed batches.
enum class HandlerFault { kThrowException, kThrowNonException, kWrongCount };

class DispatcherContainmentTest
    : public ::testing::TestWithParam<std::tuple<size_t, HandlerFault>> {};

TEST_P(DispatcherContainmentTest, EveryTaskAnsweredOnceWithInternal) {
  const auto [batch_max, fault] = GetParam();
  DispatcherOptions options;
  options.read_workers = 1;
  options.write_workers = 1;
  options.batch_max = batch_max;
  options.batch_delay_micros = 20000;  // long linger: batches do form
  RequestDispatcher dispatcher(
      options,
      [fault = fault](const std::vector<const Request*>& requests)
          -> std::vector<FrontendResponse> {
        switch (fault) {
          case HandlerFault::kThrowException:
            throw std::runtime_error("handler failed");
          case HandlerFault::kThrowNonException:
            throw 42;
          case HandlerFault::kWrongCount:
            break;
        }
        return std::vector<FrontendResponse>(requests.size() + 1);
      },
      nullptr);

  constexpr int kTasks = 24;
  std::mutex mu;
  std::vector<int> calls(kTasks, 0);
  std::vector<StatusCode> codes(kTasks, StatusCode::kOk);
  for (int i = 0; i < kTasks; ++i) {
    ServerTask task;
    task.request.type = i % 3 == 0 ? RequestType::kObserve : RequestType::kPredict;
    task.request.uid = static_cast<uint64_t>(i);
    task.request.items = {1};
    task.done = [&mu, &calls, &codes, i](FrontendResponse response) {
      std::lock_guard<std::mutex> lock(mu);
      ++calls[i];
      codes[i] = response.status.code();
    };
    ASSERT_TRUE(dispatcher.Submit(std::move(task)));
  }
  dispatcher.Drain();  // must return: no popped task is stranded

  for (int i = 0; i < kTasks; ++i) {
    EXPECT_EQ(calls[i], 1) << "task " << i;
    EXPECT_EQ(codes[i], StatusCode::kInternal) << "task " << i;
  }
  EXPECT_EQ(dispatcher.dispatched(), static_cast<uint64_t>(kTasks));
  if (batch_max == 1) {
    EXPECT_EQ(dispatcher.batches_formed(), 0u);
    EXPECT_EQ(dispatcher.batch_singletons(), static_cast<uint64_t>(kTasks));
  } else {
    EXPECT_GT(dispatcher.batches_formed(), 0u);
  }
  dispatcher.Stop();
}

INSTANTIATE_TEST_SUITE_P(
    LoneAndFormedBatches, DispatcherContainmentTest,
    ::testing::Combine(::testing::Values(size_t{1}, size_t{8}),
                       ::testing::Values(HandlerFault::kThrowException,
                                         HandlerFault::kThrowNonException,
                                         HandlerFault::kWrongCount)));

}  // namespace
}  // namespace velox
