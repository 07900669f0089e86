// Ablation A6 — efficient full-catalog top-K.
//
// Paper §8 (future work): "more efficient top-K support for our linear
// modeling tasks." Five paths over the same catalog:
//  * generic          — materialize the catalog as a candidate list and
//                       run the generic topK (score everything through
//                       the caches, rank everything);
//  * heap_scan        — the pre-plane TopKAll exactly as it shipped:
//                       walk the hash-map factor table with a naive
//                       single-accumulator dot and a bounded min-heap
//                       (two dependent pointer loads per item, no
//                       locality). This is the speedup baseline;
//  * plane_double     — stream the contiguous ItemFactorPlane with the
//                       blocked double ScoreRows kernel (mixed-precision
//                       pre-filter disabled) on a service without a scan
//                       pool, so one shard;
//  * plane_serial     — the default kExact scan (float-mirror pre-filter
//                       with a conservative error bound, exact double
//                       rescore of the surviving candidates) on a service
//                       without a scan pool: one shard;
//  * plane_parallel   — the same kExact scan on a pooled service, sharded
//                       per PlannedScanShards with the deterministic
//                       (score, item_id) heap merge.
// A sixth row, batch_amortized, reports the per-user cost of
// TopKAllBatch over 16 users (version/plane lookup paid once).
//
// Expected shape: all paths are linear in catalog size; the plane
// paths win several-fold on memory locality and kernel unrolling, and
// every path returns identical items/scores/order (checked each
// trial). Results also land in BENCH_topk_scan.json.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/clock.h"
#include "common/histogram.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "core/prediction_service.h"

namespace velox {
namespace {

struct Serving {
  std::unique_ptr<ModelRegistry> registry;
  std::unique_ptr<Bootstrapper> bootstrapper;
  std::unique_ptr<UserWeightStore> weights;
  std::unique_ptr<FeatureCache> feature_cache;
  std::unique_ptr<PredictionCache> prediction_cache;
  std::unique_ptr<PredictionService> service;
};

Serving MakeServing(size_t d, size_t catalog, uint64_t seed) {
  Serving s;
  s.registry = std::make_unique<ModelRegistry>("bench");
  s.bootstrapper = std::make_unique<Bootstrapper>(d);
  auto table = std::make_shared<MaterializedFeatureFunction::FactorTable>();
  Rng rng(seed);
  // Insert the catalog in shuffled (arrival) order, not ascending id
  // order: a long-running catalog accretes items as they appear, so the
  // map's node allocations are uncorrelated with its iteration order.
  // Bulk-inserting sequential ids would lay the nodes out contiguously
  // and turn the hash-map walk into an accidental array scan — the one
  // layout a production table never has. The plane paths are
  // insensitive to this (they copy into their own layout), so shuffling
  // only keeps the pointer-chasing baselines honest.
  std::vector<uint64_t> order(catalog);
  for (uint64_t i = 0; i < catalog; ++i) order[i] = i;
  for (uint64_t i = catalog; i > 1; --i) {
    std::swap(order[i - 1], order[rng.UniformU64(i)]);
  }
  for (uint64_t id : order) {
    DenseVector f(d);
    for (size_t k = 0; k < d; ++k) f[k] = rng.Gaussian(0.0, 0.3);
    (*table)[id] = std::move(f);
  }
  s.registry->Register(
      std::make_shared<MaterializedFeatureFunction>(
          std::shared_ptr<const MaterializedFeatureFunction::FactorTable>(table), d),
      nullptr, 0.0);
  UserWeightStoreOptions wopts;
  wopts.dim = d;
  wopts.lambda = 0.1;
  s.weights = std::make_unique<UserWeightStore>(wopts, s.bootstrapper.get());
  DenseVector w(d);
  for (size_t k = 0; k < d; ++k) w[k] = rng.Gaussian(0.0, 0.3);
  s.weights->SeedUser(1, w, 1);
  s.feature_cache = std::make_unique<FeatureCache>(catalog * 2);
  s.prediction_cache = std::make_unique<PredictionCache>(catalog * 2);
  s.service = std::make_unique<PredictionService>(
      PredictionServiceOptions{}, s.registry.get(), s.weights.get(),
      s.bootstrapper.get(), s.feature_cache.get(), s.prediction_cache.get(),
      FeatureResolver());
  return s;
}

// The pre-plane TopKAll, reproduced as shipped: walk the hash-map
// factor table with a single-accumulator dot product and a bounded
// min-heap of (score, id) pairs. This is the "current heap scan" the
// speedup line is measured against.
TopKResult LegacyHeapScan(const MaterializedFeatureFunction& fn,
                          const DenseVector& weights, size_t k) {
  using Entry = std::pair<double, uint64_t>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap;
  for (const auto& [item_id, factor] : fn.table()) {
    if (factor.dim() != weights.dim()) continue;
    double s = 0.0;
    const double* pa = weights.data();
    const double* pb = factor.data();
    for (size_t i = 0; i < weights.dim(); ++i) s += pa[i] * pb[i];
    if (heap.size() < k) {
      heap.emplace(s, item_id);
    } else if (s > heap.top().first) {
      heap.pop();
      heap.emplace(s, item_id);
    }
  }
  TopKResult result;
  result.items.resize(heap.size());
  for (size_t i = heap.size(); i-- > 0;) {
    result.items[i] = ScoredItem{heap.top().second, heap.top().first, 0.0};
    heap.pop();
  }
  return result;
}

void CheckSameResults(const TopKResult& a, const TopKResult& b) {
  VELOX_CHECK_EQ(a.items.size(), b.items.size());
  for (size_t i = 0; i < a.items.size(); ++i) {
    VELOX_CHECK_EQ(a.items[i].item_id, b.items[i].item_id);
    VELOX_CHECK(a.items[i].score == b.items[i].score)
        << "score mismatch at rank " << i;
  }
}

void Run() {
  bench::Banner(
      "ablation_topk_scan: full-catalog top-K, generic vs heap scan vs plane",
      "Velox (CIDR'15) Section 8 'more efficient top-K support' (future work)",
      "d = 50. 'generic' materializes the catalog as a candidate list through\n"
      "topK (prediction cache disabled for fairness); 'heap_scan' is the\n"
      "pre-plane scan as it shipped (hash-map walk, naive dot); 'plane_*'\n"
      "stream the contiguous ItemFactorPlane (plane_parallel on a service\n"
      "with a 4-thread scan pool, the others on services without one).");

  const size_t d = 50;
  const size_t k = 10;
  ThreadPool scan_pool(4);
  bench::Table table({"catalog", "k", "path", "mean_ms", "p50_ms", "ci95_ms"}, 15);
  bench::JsonRows json("ablation_topk_scan", "BENCH_topk_scan.json");
  using Mode = PredictionService::TopKAllMode;

  for (size_t catalog : {1000, 5000, 20000, 50000}) {
    Serving serving = MakeServing(d, catalog, 5);
    serving.service->SetScanPool(&scan_pool);
    // Prediction caching would trivially win the repeat trials; turn it
    // off to measure the scoring path itself.
    PredictionServiceOptions no_cache;
    no_cache.use_prediction_cache = false;
    PredictionService uncached(no_cache, serving.registry.get(), serving.weights.get(),
                               serving.bootstrapper.get(), serving.feature_cache.get(),
                               serving.prediction_cache.get(), FeatureResolver());
    // Pure-double plane scan (mixed-precision pre-filter disabled), to
    // separate the contiguous-layout win from the float-prefilter win.
    // Neither this nor `serial` gets a scan pool: one shard each.
    PredictionServiceOptions exact_opts;
    exact_opts.topk_mixed_precision = false;
    PredictionService exact_plane(exact_opts, serving.registry.get(),
                                  serving.weights.get(), serving.bootstrapper.get(),
                                  serving.feature_cache.get(),
                                  serving.prediction_cache.get(), FeatureResolver());
    PredictionService serial(PredictionServiceOptions{}, serving.registry.get(),
                             serving.weights.get(), serving.bootstrapper.get(),
                             serving.feature_cache.get(), serving.prediction_cache.get(),
                             FeatureResolver());
    std::vector<Item> all;
    all.reserve(catalog);
    for (uint64_t i = 0; i < catalog; ++i) {
      Item item;
      item.id = i;
      all.push_back(item);
    }
    std::vector<uint64_t> batch_uids(16, 1);

    // Each path runs its own consecutive trial loop (after one warmup
    // scan) so no path is timed against another path's cache wreckage:
    // interleaving would charge whichever scan runs second for
    // re-streaming the ~tens of MB the first one just evicted.
    const int trials = 30;
    Histogram generic_lat, legacy_lat, plane_double_lat, plane_serial_lat,
        plane_parallel_lat, batch_lat;

    // Reference result: every other path must match it exactly — same
    // items, same scores, same order (the generic path ranks by (score
    // desc, insertion order) over ascending ids, which equals the
    // scan's (score desc, item_id asc) tie-break).
    auto reference = uncached.TopK(1, all, k, nullptr, nullptr);
    VELOX_CHECK_OK(reference.status());

    for (int t = 0; t < trials; ++t) {
      Stopwatch watch;
      auto generic = uncached.TopK(1, all, k, nullptr, nullptr);
      generic_lat.Record(watch.ElapsedMillis());
      VELOX_CHECK_OK(generic.status());
      CheckSameResults(*reference, *generic);
    }

    // Legacy baseline: identical item ranking (checked), scores agree
    // to rounding — the single-accumulator sum associates differently
    // from the unrolled kernel, so equality here is 1-ulp-tolerant
    // rather than exact.
    {
      auto current = serving.registry->Current();
      VELOX_CHECK_OK(current.status());
      const auto* materialized = dynamic_cast<const MaterializedFeatureFunction*>(
          (*current)->features.get());
      VELOX_CHECK(materialized != nullptr);
      DenseVector user_weights = serving.weights->GetOrBootstrapWeights(
          1, serving.bootstrapper->MeanWeights());
      TopKResult warm = LegacyHeapScan(*materialized, user_weights, k);
      VELOX_CHECK_EQ(warm.items.size(), reference->items.size());
      for (int t = 0; t < trials; ++t) {
        Stopwatch watch;
        TopKResult legacy = LegacyHeapScan(*materialized, user_weights, k);
        legacy_lat.Record(watch.ElapsedMillis());
        for (size_t i = 0; i < legacy.items.size(); ++i) {
          VELOX_CHECK_EQ(legacy.items[i].item_id, reference->items[i].item_id);
          VELOX_CHECK(std::abs(legacy.items[i].score - reference->items[i].score) <=
                      1e-12 * (1.0 + std::abs(reference->items[i].score)));
        }
      }
    }

    auto run_exact = [&](PredictionService* svc, Histogram* lat) {
      auto warm = svc->TopKAll(1, k, nullptr, Mode::kExact);
      VELOX_CHECK_OK(warm.status());
      for (int t = 0; t < trials; ++t) {
        Stopwatch watch;
        auto r = svc->TopKAll(1, k, nullptr, Mode::kExact);
        lat->Record(watch.ElapsedMillis());
        VELOX_CHECK_OK(r.status());
        CheckSameResults(*reference, *r);
      }
    };
    run_exact(&exact_plane, &plane_double_lat);
    run_exact(&serial, &plane_serial_lat);
    run_exact(serving.service.get(), &plane_parallel_lat);

    for (int t = 0; t < trials; ++t) {
      Stopwatch watch;
      auto batch = serving.service->TopKAllBatch(batch_uids, k);
      batch_lat.Record(watch.ElapsedMillis() /
                       static_cast<double>(batch_uids.size()));
      VELOX_CHECK_OK(batch.status());
      CheckSameResults(*reference, batch->front());
    }

    struct PathRow {
      const char* name;
      Histogram* lat;
    };
    for (const PathRow& p :
         {PathRow{"generic", &generic_lat}, PathRow{"heap_scan", &legacy_lat},
          PathRow{"plane_double", &plane_double_lat},
          PathRow{"plane_serial", &plane_serial_lat},
          PathRow{"plane_parallel", &plane_parallel_lat},
          PathRow{"batch_amortized", &batch_lat}}) {
      auto s = p.lat->Snapshot();
      table.Row({bench::FmtInt(static_cast<long long>(catalog)),
                 bench::FmtInt(static_cast<long long>(k)), p.name,
                 bench::Fmt("%.3f", s.mean), bench::Fmt("%.3f", s.p50),
                 bench::Fmt("%.3f", s.ci95_halfwidth)});
      json.Row({{"catalog", bench::JsonRows::Num(static_cast<long long>(catalog))},
                {"k", bench::JsonRows::Num(static_cast<long long>(k))},
                {"d", bench::JsonRows::Num(static_cast<long long>(d))},
                {"path", bench::JsonRows::Str(p.name)},
                {"mean_ms", bench::JsonRows::Num(s.mean)},
                {"p50_ms", bench::JsonRows::Num(s.p50)},
                {"ci95_ms", bench::JsonRows::Num(s.ci95_halfwidth)}});
    }
    // Medians, not means: this box is a shared-host VM whose scheduler
    // jitter puts millisecond spikes into individual trials; the median
    // of 30 trials is the standard robust steady-state estimate.
    double speedup =
        legacy_lat.Snapshot().p50 / std::max(1e-9, plane_parallel_lat.Snapshot().p50);
    std::printf("catalog %zu: plane_parallel is %.2fx faster than heap_scan\n",
                catalog, speedup);
    json.Row({{"catalog", bench::JsonRows::Num(static_cast<long long>(catalog))},
              {"path", bench::JsonRows::Str("speedup_plane_parallel_vs_heap")},
              {"value", bench::JsonRows::Num(speedup)}});
  }
  json.Write();
  std::printf(
      "\nShape check: all paths are linear in catalog size; the plane paths\n"
      "replace two dependent pointer loads per item with a streaming read of a\n"
      "contiguous row-major matrix and score 8 rows per pass, so they run\n"
      "several times faster at identical output.\n");
}

}  // namespace
}  // namespace velox

int main() {
  velox::Run();
  return 0;
}
