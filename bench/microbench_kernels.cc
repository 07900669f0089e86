// Google-benchmark microbenchmarks of the serving-path kernels: the
// Eq. 1 dot product, feature-function evaluation, Eq. 2 solves (naive
// Cholesky vs Sherman–Morrison), cache operations, the storage codec,
// one candidate topK through VeloxServer, the durability path's
// snapshot cut and journal append, and offline ALS training (uniform and
// Zipf-skewed) and a full retrain + install. These are the primitives whose
// costs compose into Figures 3 and 4; keeping them visible guards
// against performance regressions.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "batch/executor.h"
#include "bench/bench_util.h"
#include "common/lru.h"
#include "common/random.h"
#include "core/feature_cache.h"
#include "core/prediction_cache.h"
#include "core/prediction_service.h"
#include "core/user_weights.h"
#include "core/velox_server.h"
#include "data/movielens.h"
#include "linalg/cholesky.h"
#include "linalg/ridge.h"
#include "linalg/scoring_kernels.h"
#include "linalg/sherman_morrison.h"
#include "ml/als.h"
#include "ml/feature_function.h"
#include "server/dispatcher.h"
#include "storage/snapshot.h"

namespace velox {
namespace {

DenseVector RandomVector(size_t d, uint64_t seed) {
  Rng rng(seed);
  DenseVector v(d);
  for (size_t i = 0; i < d; ++i) v[i] = rng.Gaussian();
  return v;
}

void BM_Dot(benchmark::State& state) {
  size_t d = static_cast<size_t>(state.range(0));
  DenseVector a = RandomVector(d, 1);
  DenseVector b = RandomVector(d, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Dot(a, b));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Dot)->Arg(10)->Arg(100)->Arg(1000)->Arg(10000);

void BM_DotKernel(benchmark::State& state) {
  size_t d = static_cast<size_t>(state.range(0));
  DenseVector a = RandomVector(d, 1);
  DenseVector b = RandomVector(d, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(DotKernel(a.data(), b.data(), d));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DotKernel)->Arg(10)->Arg(50)->Arg(100)->Arg(1000)->Arg(10000);

// The catalog-scan kernel: score a block of contiguous plane rows
// against one weight vector (d = 50, the ablation_topk_scan shape).
void BM_ScoreRows(benchmark::State& state) {
  const size_t d = 50;
  size_t rows = static_cast<size_t>(state.range(0));
  MaterializedFeatureFunction::FactorTable table;
  Rng rng(3);
  for (uint64_t i = 0; i < rows; ++i) {
    DenseVector f(d);
    for (size_t k = 0; k < d; ++k) f[k] = rng.Gaussian();
    table[i] = std::move(f);
  }
  ItemFactorPlane plane(table, d);
  DenseVector w = RandomVector(d, 5);
  std::vector<double> out(rows);
  for (auto _ : state) {
    ScoreRows(plane.data(), plane.num_items(), plane.stride(), w.data(), d,
              out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(rows));
}
BENCHMARK(BM_ScoreRows)->Arg(8)->Arg(512)->Arg(4096)->Arg(50000);

void BM_CholeskySolve(benchmark::State& state) {
  size_t d = static_cast<size_t>(state.range(0));
  RidgeAccumulator acc(d);
  Rng rng(3);
  for (size_t i = 0; i < 2 * d; ++i) {
    acc.AddExample(RandomVector(d, rng.NextU64()), rng.Gaussian());
  }
  for (auto _ : state) {
    auto w = acc.Solve(0.1);
    benchmark::DoNotOptimize(w);
  }
}
BENCHMARK(BM_CholeskySolve)->Arg(10)->Arg(50)->Arg(100)->Arg(200);

// Four ridge systems of BM_CholeskySolve's shape factored and solved
// at once by the lane kernel ALS's half-steps use, including the copy
// into lane-interleaved storage; items = systems, so items/s compares
// with four BM_CholeskySolve iterations.
void BM_CholeskySolveLanes4(benchmark::State& state) {
  size_t d = static_cast<size_t>(state.range(0));
  std::vector<DenseMatrix> grams;
  std::vector<DenseVector> rhs;
  Rng rng(3);
  for (int k = 0; k < 4; ++k) {
    RidgeAccumulator acc(d);
    for (size_t i = 0; i < 2 * d; ++i) {
      acc.AddExample(RandomVector(d, rng.NextU64()), rng.Gaussian());
    }
    DenseMatrix a = acc.ftf();
    a.AddDiagonal(0.1);
    grams.push_back(std::move(a));
    rhs.push_back(acc.fty());
  }
  std::vector<double> a(d * d * 4);
  std::vector<double> b(d * 4);
  for (auto _ : state) {
    for (size_t k = 0; k < 4; ++k) {
      for (size_t i = 0; i < d; ++i) {
        for (size_t j = 0; j <= i; ++j) a[(i * d + j) * 4 + k] = grams[k].At(i, j);
        b[i * 4 + k] = rhs[k][i];
      }
    }
    benchmark::DoNotOptimize(CholeskySolveLanes4(a.data(), d, b.data()));
    benchmark::DoNotOptimize(b.data());
  }
  state.SetItemsProcessed(state.iterations() * 4);
}
BENCHMARK(BM_CholeskySolveLanes4)->Arg(10);

void BM_ShermanMorrisonUpdate(benchmark::State& state) {
  size_t d = static_cast<size_t>(state.range(0));
  ShermanMorrisonSolver sm(d, 0.1);
  Rng rng(5);
  DenseVector f = RandomVector(d, 7);
  for (auto _ : state) {
    sm.AddExample(f, rng.Gaussian());
    benchmark::DoNotOptimize(sm);
  }
}
BENCHMARK(BM_ShermanMorrisonUpdate)->Arg(10)->Arg(50)->Arg(100)->Arg(200)->Arg(500);

void BM_RbfFeatures(benchmark::State& state) {
  size_t centers = static_cast<size_t>(state.range(0));
  RbfFeatureFunction f(16, centers, 0.5, 11);
  Item item;
  item.id = 1;
  item.attributes = RandomVector(16, 13);
  for (auto _ : state) {
    auto features = f.Features(item);
    benchmark::DoNotOptimize(features);
  }
}
BENCHMARK(BM_RbfFeatures)->Arg(16)->Arg(64)->Arg(256);

void BM_SvmEnsembleFeatures(benchmark::State& state) {
  size_t svms = static_cast<size_t>(state.range(0));
  SvmEnsembleFeatureFunction f(16, svms, 17);
  Item item;
  item.id = 1;
  item.attributes = RandomVector(16, 19);
  for (auto _ : state) {
    auto features = f.Features(item);
    benchmark::DoNotOptimize(features);
  }
}
BENCHMARK(BM_SvmEnsembleFeatures)->Arg(16)->Arg(64)->Arg(256);

void BM_LruGetHit(benchmark::State& state) {
  LruCache<uint64_t, DenseVector> cache(4096, 8);
  for (uint64_t i = 0; i < 2048; ++i) cache.Put(i, RandomVector(32, i));
  Rng rng(23);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.Get(rng.UniformU64(2048)));
  }
}
BENCHMARK(BM_LruGetHit);

void BM_LruPutEvict(benchmark::State& state) {
  LruCache<uint64_t, DenseVector> cache(1024, 8);
  Rng rng(29);
  uint64_t key = 0;
  DenseVector v = RandomVector(32, 31);
  for (auto _ : state) {
    cache.Put(key++, v);
  }
}
BENCHMARK(BM_LruPutEvict);

// Feature-cache hit path: the cache stores shared_ptr<const
// DenseVector>, so a hit is a refcount bump, not a vector copy.
// Compare against BM_LruGetHit (which copies a 32-d vector out) to see
// the per-hit allocation saved; the gap widens with factor dimension.
void BM_FeatureCacheHit(benchmark::State& state) {
  size_t d = static_cast<size_t>(state.range(0));
  FeatureCache cache(4096, 8);
  for (uint64_t i = 0; i < 2048; ++i) cache.Put(i, RandomVector(d, i));
  Rng rng(23);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.Get(rng.UniformU64(2048)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FeatureCacheHit)->Arg(32)->Arg(100)->Arg(1000);

void BM_PredictionCacheLookup(benchmark::State& state) {
  PredictionCache cache(1 << 16, 8);
  for (uint64_t i = 0; i < 10000; ++i) {
    cache.Put(PredictionKey{i % 100, i / 100, 0, 1}, 1.0);
  }
  Rng rng(37);
  for (auto _ : state) {
    PredictionKey key{rng.UniformU64(100), rng.UniformU64(100), 0, 1};
    benchmark::DoNotOptimize(cache.Get(key));
  }
}
BENCHMARK(BM_PredictionCacheLookup);

void BM_FactorCodecRoundTrip(benchmark::State& state) {
  size_t d = static_cast<size_t>(state.range(0));
  DenseVector v = RandomVector(d, 41);
  for (auto _ : state) {
    auto decoded = DecodeFactor(EncodeFactor(v));
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_FactorCodecRoundTrip)->Arg(10)->Arg(100)->Arg(1000);

// Server-plane dispatch overhead per request, singleton vs batched
// (DESIGN.md §15): queue push/pop, batch formation, and callback
// completion isolated from handler work by a no-op handler. Arg = the
// dispatcher's batch_max; 1 is singleton dispatch (every pop a batch of
// one through the same handler). The plane's own overhead is well
// under a microsecond per request at every batch size; the wall-clock
// win comes from what one batched *handler* call amortizes (WAL group
// commit, coalesced feature MultiGet), measured end-to-end by
// serving_load's batch-singleton / batch-batched sweep.
void BM_DispatchBatched(benchmark::State& state) {
  const size_t batch = static_cast<size_t>(state.range(0));
  DispatcherOptions options;
  options.read_queue_capacity = 0;
  options.write_queue_capacity = 0;
  options.read_workers = 1;
  options.write_workers = 1;
  options.batch_max = batch;
  options.batch_delay_micros = 0;  // take only what is already queued
  RequestDispatcher::BatchHandler handler =
      [](const std::vector<const Request*>& requests) {
        return std::vector<FrontendResponse>(requests.size());
      };
  RequestDispatcher dispatcher(options, handler, nullptr);
  const size_t kWave = 512;
  for (auto _ : state) {
    for (size_t i = 0; i < kWave; ++i) {
      ServerTask task;
      task.request.type = RequestType::kPredict;
      task.request.uid = i;
      bool ok = dispatcher.Submit(std::move(task));
      benchmark::DoNotOptimize(ok);
    }
    dispatcher.Drain();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(kWave));
}
BENCHMARK(BM_DispatchBatched)->Arg(1)->Arg(8)->Arg(64);

// One candidate topK through VeloxServer::TopK with the server's
// default LinUCB policy, in-process θ (d = 10) and warm caches, for a
// user with solver state — the per-request CPU of the topK path:
// weight lookup, feature-cache hits, scoring, the uncertainties,
// stale-board writes and the rank. Arg = candidates per request; k = 10.
struct CandidateTopKSetup {
  std::unique_ptr<VeloxServer> server;
  uint64_t uid = 0;
  std::vector<Item> catalog;  // rated items, ascending id
};

const CandidateTopKSetup& TopKSetup() {
  static const CandidateTopKSetup setup = [] {
    SyntheticMovieLensConfig data_config;
    data_config.num_users = 300;
    data_config.num_items = 1000;
    data_config.seed = 11;
    SyntheticDataset data = GenerateSyntheticMovieLens(data_config).value();
    VeloxServerConfig config;  // one node, d = 10, linucb:0.5, in-process θ
    config.topk_scan_threads = 1;
    config.evaluator.min_observations = 1'000'000'000;  // no auto retrain
    AlsConfig als;
    als.iterations = 5;
    CandidateTopKSetup out;
    out.server = std::make_unique<VeloxServer>(
        config, std::make_unique<MatrixFactorizationModel>("bench", als));
    VELOX_CHECK_OK(out.server->Bootstrap(data.ratings));
    std::set<uint64_t> rated;
    for (const Observation& obs : data.ratings) rated.insert(obs.item_id);
    for (uint64_t id : rated) {
      Item item;
      item.id = id;
      out.catalog.push_back(item);
    }
    out.uid = data.ratings.front().uid;
    for (size_t i = 0; i < 8; ++i) {
      VELOX_CHECK_OK(out.server->Observe(out.uid, out.catalog[i], 4.0));
    }
    return out;
  }();
  return setup;
}

void BM_CandidateTopK(benchmark::State& state) {
  const CandidateTopKSetup& setup = TopKSetup();
  const size_t n = static_cast<size_t>(state.range(0));
  VELOX_CHECK_LE(n, setup.catalog.size());
  std::vector<Item> candidates(setup.catalog.begin(), setup.catalog.begin() + n);
  VELOX_CHECK_OK(setup.server->TopK(setup.uid, candidates, 10).status());  // warm
  for (auto _ : state) {
    auto top = setup.server->TopK(setup.uid, candidates, 10);
    benchmark::DoNotOptimize(top);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_CandidateTopK)->Arg(50)->Arg(200);

// The snapshot cut's encode: UserWeightStore::SerializeState over
// observe_durable's table — 5,000 users at d = 10, each with
// Sherman–Morrison state (a 5.5 MB image). The store holds every stripe
// lock for this long at each cadence crossing.
void BM_SnapshotCut(benchmark::State& state) {
  constexpr uint64_t kUsers = 5000;
  constexpr size_t kDim = 10;
  UserWeightStoreOptions options;
  options.dim = kDim;
  Bootstrapper boot(kDim);
  UserWeightStore store(options, &boot);
  for (uint64_t u = 0; u < kUsers; ++u) {
    store.SeedUser(u, RandomVector(kDim, 100 + u), 1);
    VELOX_CHECK_OK(store.ApplyObservation(u, RandomVector(kDim, 20000 + u), 4.0).status());
  }
  size_t bytes = 0;
  for (auto _ : state) {
    std::vector<uint8_t> image = store.SerializeState();
    bytes = image.size();
    benchmark::DoNotOptimize(image.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(bytes));
}
BENCHMARK(BM_SnapshotCut)->Unit(benchmark::kMillisecond);

// One kObservationUpdate append (d = 10) to a user-weight journal under
// WalSyncPolicy::kNone in $TMPDIR: record encoding, CRC-32 and the
// buffered write, with no flush or sync. The file is recreated every
// 65,536 appends so it stays small.
void BM_WalAppendObservation(benchmark::State& state) {
  const char* tmpdir = std::getenv("TMPDIR");
  UserWeightJournalOptions options;
  options.wal_path = std::string(tmpdir != nullptr && *tmpdir != '\0' ? tmpdir : "/tmp") +
                     "/velox_bm_wal_append.wal";
  options.wal.sync = WalSyncPolicy::kNone;
  UserWeightWalRecord record;
  record.kind = UserWeightWalRecord::Kind::kObservationUpdate;
  record.uid = 42;
  record.model_version = 1;
  record.features = RandomVector(10, 47);
  record.label = 4.0;
  auto open = [&options] {
    std::remove(options.wal_path.c_str());
    return std::move(UserWeightJournal::Open(options)).value();
  };
  std::unique_ptr<UserWeightJournal> journal = open();
  int64_t appended = 0;
  for (auto _ : state) {
    if (++appended % 65536 == 0) {
      state.PauseTiming();
      journal.reset();
      journal = open();
      state.ResumeTiming();
    }
    Status status = journal->Append(record);
    benchmark::DoNotOptimize(status);
  }
  journal.reset();
  std::remove(options.wal_path.c_str());
}
BENCHMARK(BM_WalAppendObservation);

// Offline training and install at a fixed size: 100k ratings over
// 5,000 users x 5,000 items (uniform ids and labels), rank 10, 5 ALS
// iterations, 2 batch workers.
constexpr size_t kTrainRank = 10;

const std::vector<Observation>& TrainRatings() {
  static const std::vector<Observation> ratings = [] {
    Rng rng(61);
    std::vector<Observation> out;
    out.reserve(100'000);
    for (int64_t n = 0; n < 100'000; ++n) {
      Observation obs;
      obs.uid = rng.UniformU64(5000);
      obs.item_id = rng.UniformU64(5000);
      obs.label = rng.UniformDouble(1.0, 5.0);
      obs.timestamp = n;
      out.push_back(obs);
    }
    return out;
  }();
  return ratings;
}

AlsConfig TrainConfig() {
  AlsConfig als;
  als.rank = kTrainRank;
  als.iterations = 5;
  return als;
}

// One AlsTrainer::Train: the index build and 10 half-step stages.
void BM_AlsTrain(benchmark::State& state) {
  const std::vector<Observation>& ratings = TrainRatings();
  BatchExecutor executor(2);
  AlsTrainer trainer(TrainConfig());
  for (auto _ : state) {
    auto model = trainer.Train(&executor, ratings);
    VELOX_CHECK_OK(model.status());
    benchmark::DoNotOptimize(model->item_factors.size());
  }
}
BENCHMARK(BM_AlsTrain)->Unit(benchmark::kMillisecond);

// The same Train at retrain_swap's shape: 20,000 users rating 20–40
// items each out of 5,000 with Zipf(1.0) popularity (~600k ratings),
// where a few items hold most of the ratings — the skew that uniform
// ids hide from row-count task splits. 2,000 users x 500 items under
// VELOX_BENCH_SMOKE.
void BM_AlsTrainZipf(benchmark::State& state) {
  static const std::vector<Observation> ratings = [] {
    SyntheticMovieLensConfig config;
    config.num_users = bench::SmokeMode() ? 2000 : 20000;
    config.num_items = bench::SmokeMode() ? 500 : 5000;
    config.latent_rank = kTrainRank;
    config.min_ratings_per_user = 20;
    config.max_ratings_per_user = 40;
    config.seed = 67;
    auto data = GenerateSyntheticMovieLens(config);
    VELOX_CHECK_OK(data.status());
    return std::move(data).value().ratings;
  }();
  BatchExecutor executor(2);
  AlsTrainer trainer(TrainConfig());
  for (auto _ : state) {
    auto model = trainer.Train(&executor, ratings);
    VELOX_CHECK_OK(model.status());
    benchmark::DoNotOptimize(model->item_factors.size());
  }
  state.counters["ratings"] = static_cast<double>(ratings.size());
}
BENCHMARK(BM_AlsTrainZipf)->Unit(benchmark::kMillisecond);

// One full retrain on a bootstrapped 2-node server holding the same
// ratings: ALS, version install (plane, W publish, reseed) and the
// per-node log replay.
void BM_RetrainNow(benchmark::State& state) {
  VeloxServerConfig config;
  config.num_nodes = 2;
  config.dim = kTrainRank;
  config.batch_workers = 2;
  config.topk_scan_threads = 1;
  config.evaluator.min_observations = 1'000'000'000;  // no auto retrain
  VeloxServer server(config, std::make_unique<MatrixFactorizationModel>("bench",
                                                                        TrainConfig()));
  VELOX_CHECK_OK(server.Bootstrap(TrainRatings()));
  for (auto _ : state) {
    auto report = server.RetrainNow();
    VELOX_CHECK_OK(report.status());
    benchmark::DoNotOptimize(report->new_version);
  }
}
BENCHMARK(BM_RetrainNow)->Unit(benchmark::kMillisecond);

void BM_ZipfSample(benchmark::State& state) {
  ZipfDistribution zipf(1'000'000, 1.0);
  Rng rng(43);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Sample(&rng));
  }
}
BENCHMARK(BM_ZipfSample);

}  // namespace
}  // namespace velox

// Custom main: console output for humans plus a machine-readable JSON
// file (BENCH_microbench_kernels.json) so future PRs can track kernel
// perf trajectories.
int main(int argc, char** argv) {
  // Default the JSON sidecar via the library's own flags (inserted
  // right after argv[0], so explicit flags on the command line still
  // win); a custom file reporter without --benchmark_out is an error.
  char out_flag[] = "--benchmark_out=BENCH_microbench_kernels.json";
  char fmt_flag[] = "--benchmark_out_format=json";
  std::vector<char*> args;
  args.reserve(static_cast<size_t>(argc) + 2);
  args.push_back(argv[0]);
  args.push_back(out_flag);
  args.push_back(fmt_flag);
  for (int i = 1; i < argc; ++i) args.push_back(argv[i]);
  int num_args = static_cast<int>(args.size());
  benchmark::Initialize(&num_args, args.data());
  if (benchmark::ReportUnrecognizedArguments(num_args, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  std::printf("wrote BENCH_microbench_kernels.json\n");
  return 0;
}
