// Ablation A12 — approximate candidate generation (IVF / IVF+PQ).
//
// Paper §8 (future work): "more efficient top-K support for our linear
// modeling tasks." The exact plane scan is O(|catalog|·d) per query no
// matter how good its constants are; the IVF index built at model
// install time probes `nprobe` inverted lists instead, and the PQ
// mirror scans 8-byte codes instead of 256-byte rows before the exact
// rescore. This bench sweeps nprobe across catalog sizes and reports
// the recall-vs-latency frontier against the exact serial scan:
//  * exact   — kExact (no scan pool, so one shard), the recall-1.0
//              baseline;
//  * ivf     — probe + exact rescore of every probed row;
//  * ivf_pq  — probe + ADC shortlist + exact rescore of the shortlist.
// Every ANN row also reports recall@10 against the exact top-10 (the
// returned *scores* are bit-identical per item by construction — the
// rescore runs the same kernels — so recall is the only fidelity axis).
//
// Expected shape: exact latency grows linearly with the catalog while
// ANN latency grows with probed rows (~catalog·nprobe/nlist), so the
// speedup widens with catalog size; recall climbs with nprobe and
// saturates near 1 well before the probe cost approaches the exact
// scan. Results land in BENCH_ann.json with a stage_breakdown section
// (ann_candidate_probe vs ann_rescore).
#include <algorithm>
#include <cstdint>
#include <memory>
#include <sstream>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/clock.h"
#include "common/histogram.h"
#include "common/random.h"
#include "common/stage_trace.h"
#include "core/prediction_service.h"

namespace velox {
namespace {

constexpr size_t kDim = 32;
constexpr size_t kTopK = 10;
constexpr size_t kClusters = 256;

struct Serving {
  std::unique_ptr<ModelRegistry> registry;
  std::unique_ptr<Bootstrapper> bootstrapper;
  std::unique_ptr<UserWeightStore> weights;
  std::unique_ptr<FeatureCache> feature_cache;
  std::unique_ptr<PredictionCache> prediction_cache;
  std::unique_ptr<PredictionService> service;
  double build_ms = 0.0;
  size_t num_users = 0;
};

// Clustered catalog (mixture of Gaussians) — the regime ANN indexes
// are built for, and the one real item-factor planes resemble after
// training: items concentrate around genre/popularity modes. Users are
// perturbed cluster centers so their top-10 is contested rather than
// degenerate.
Serving MakeServing(size_t catalog, size_t num_users, uint64_t seed) {
  Serving s;
  s.registry = std::make_unique<ModelRegistry>("bench");
  s.bootstrapper = std::make_unique<Bootstrapper>(kDim);
  Rng rng(seed);
  std::vector<DenseVector> centers;
  centers.reserve(kClusters);
  for (size_t c = 0; c < kClusters; ++c) {
    DenseVector center(kDim);
    for (size_t j = 0; j < kDim; ++j) center[j] = rng.Gaussian();
    centers.push_back(std::move(center));
  }
  auto table = std::make_shared<MaterializedFeatureFunction::FactorTable>();
  for (uint64_t id = 0; id < catalog; ++id) {
    const DenseVector& center = centers[id % kClusters];
    DenseVector f(kDim);
    for (size_t j = 0; j < kDim; ++j) f[j] = center[j] + 0.15 * rng.Gaussian();
    (*table)[id] = std::move(f);
  }

  // Index construction is part of Register() (model install), exactly
  // as VeloxServer wires it; min_items=1 forces a build at every
  // catalog size in the sweep.
  AnnBuildPolicy policy;
  policy.min_items = 1;
  s.registry->SetAnnBuild(policy, nullptr);
  Stopwatch build;
  s.registry->Register(
      std::make_shared<MaterializedFeatureFunction>(
          std::shared_ptr<const MaterializedFeatureFunction::FactorTable>(table),
          kDim),
      nullptr, 0.0);
  s.build_ms = build.ElapsedMillis();

  UserWeightStoreOptions wopts;
  wopts.dim = kDim;
  wopts.lambda = 0.1;
  s.weights = std::make_unique<UserWeightStore>(wopts, s.bootstrapper.get());
  for (uint64_t uid = 1; uid <= num_users; ++uid) {
    const DenseVector& center = centers[uid % kClusters];
    DenseVector w(kDim);
    for (size_t j = 0; j < kDim; ++j) w[j] = center[j] + 0.1 * rng.Gaussian();
    s.weights->SeedUser(uid, w, 1);
  }
  s.num_users = num_users;
  s.feature_cache = std::make_unique<FeatureCache>(1024);
  s.prediction_cache = std::make_unique<PredictionCache>(1024);
  s.service = std::make_unique<PredictionService>(
      PredictionServiceOptions{}, s.registry.get(), s.weights.get(),
      s.bootstrapper.get(), s.feature_cache.get(), s.prediction_cache.get(),
      FeatureResolver());
  return s;
}

double RecallAt(const TopKResult& truth, const TopKResult& got) {
  std::unordered_set<uint64_t> want;
  for (const ScoredItem& item : truth.items) want.insert(item.item_id);
  if (want.empty()) return 1.0;
  size_t hit = 0;
  for (const ScoredItem& item : got.items) hit += want.count(item.item_id);
  return static_cast<double>(hit) / static_cast<double>(want.size());
}

// JSON mirror of VeloxServer::StageBreakdownJson for a bare registry.
std::string StageJson(const StageRegistry& stages) {
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (int s = 0; s < kNumStages; ++s) {
    HistogramSnapshot snap = stages.Data(static_cast<Stage>(s)).Summarize();
    if (snap.count == 0) continue;
    if (!first) os << ", ";
    first = false;
    os << "\"" << StageName(static_cast<Stage>(s)) << "\": {\"count\": " << snap.count
       << ", \"mean_us\": " << snap.mean << ", \"p50_us\": " << snap.p50
       << ", \"p95_us\": " << snap.p95 << ", \"p99_us\": " << snap.p99 << "}";
  }
  os << "}";
  return os.str();
}

void Run() {
  bench::Banner(
      "ablation_ann: IVF/IVF+PQ candidate generation vs the exact plane scan",
      "Velox (CIDR'15) Section 8 'more efficient top-K support' (future work)",
      "d = 32, k = 10, clustered catalog (256 Gaussian modes). The index is\n"
      "built at model install time (seeded k-means coarse quantizer + residual\n"
      "PQ mirror); queries probe nprobe lists and exactly rescore candidates,\n"
      "so every returned score is bit-identical to the exact path per item and\n"
      "recall@10 is the only fidelity axis.");

  const bool smoke = bench::SmokeMode();
  const std::vector<size_t> catalogs =
      smoke ? std::vector<size_t>{20000}
            : std::vector<size_t>{100000, 1000000, 5000000};
  const std::vector<size_t> nprobes =
      smoke ? std::vector<size_t>{8, 16} : std::vector<size_t>{4, 8, 16, 32, 64};
  using Mode = PredictionService::TopKAllMode;

  bench::Table table(
      {"catalog", "mode", "nprobe", "mean_us", "recall@10", "speedup", "resc/q"}, 12);
  bench::JsonRows json("ablation_ann", "BENCH_ann.json");
  StageRegistry stages;

  for (size_t catalog : catalogs) {
    const size_t num_users = smoke ? 4 : (catalog >= 1000000 ? 4 : 8);
    const int trials = smoke ? 2 : (catalog >= 1000000 ? 3 : 10);
    Serving serving = MakeServing(catalog, num_users, /*seed=*/17);
    serving.service->SetStageRegistry(&stages);
    std::printf("catalog %zu: index built in %.1f ms (nlist auto)\n", catalog,
                serving.build_ms);

    // Exact baseline + ground truth per user.
    std::vector<TopKResult> truth(num_users + 1);
    Histogram exact_lat;
    for (uint64_t uid = 1; uid <= num_users; ++uid) {
      auto warm = serving.service->TopKAll(uid, kTopK, nullptr, Mode::kExact);
      VELOX_CHECK_OK(warm.status());
      truth[uid] = *warm;
      for (int t = 0; t < trials; ++t) {
        Stopwatch watch;
        auto r = serving.service->TopKAll(uid, kTopK, nullptr, Mode::kExact);
        exact_lat.Record(watch.ElapsedMicros());
        VELOX_CHECK_OK(r.status());
      }
    }
    auto exact_snap = exact_lat.Snapshot();
    table.Row({bench::FmtInt(static_cast<long long>(catalog)), "exact", "-",
               bench::Fmt("%.1f", exact_snap.mean), "1.000", "1.00x", "-"});
    json.Row({{"catalog", bench::JsonRows::Num(static_cast<long long>(catalog))},
              {"d", bench::JsonRows::Num(static_cast<long long>(kDim))},
              {"k", bench::JsonRows::Num(static_cast<long long>(kTopK))},
              {"mode", bench::JsonRows::Str("exact")},
              {"nprobe", bench::JsonRows::Num(0LL)},
              {"mean_us", bench::JsonRows::Num(exact_snap.mean)},
              {"p50_us", bench::JsonRows::Num(exact_snap.p50)},
              {"recall_at_10", bench::JsonRows::Num(1.0)},
              {"speedup_vs_exact", bench::JsonRows::Num(1.0)},
              {"build_ms", bench::JsonRows::Num(serving.build_ms)}});

    for (size_t nprobe : nprobes) {
      PredictionServiceOptions opts;
      opts.ann_nprobe = nprobe;
      PredictionService svc(opts, serving.registry.get(), serving.weights.get(),
                            serving.bootstrapper.get(), serving.feature_cache.get(),
                            serving.prediction_cache.get(), FeatureResolver());
      svc.SetStageRegistry(&stages);
      for (const auto& [mode, name] :
           {std::pair<Mode, const char*>{Mode::kIvf, "ivf"},
            std::pair<Mode, const char*>{Mode::kIvfPq, "ivf_pq"}}) {
        Histogram lat;
        double recall_sum = 0.0;
        size_t recall_n = 0;
        const uint64_t q0 = svc.ann_queries();
        const uint64_t c0 = svc.ann_candidates();
        const uint64_t r0 = svc.ann_rescored();
        for (uint64_t uid = 1; uid <= num_users; ++uid) {
          auto warm = svc.TopKAll(uid, kTopK, nullptr, mode);
          VELOX_CHECK_OK(warm.status());
          recall_sum += RecallAt(truth[uid], *warm);
          ++recall_n;
          for (int t = 0; t < trials; ++t) {
            Stopwatch watch;
            auto r = svc.TopKAll(uid, kTopK, nullptr, mode);
            lat.Record(watch.ElapsedMicros());
            VELOX_CHECK_OK(r.status());
          }
        }
        const uint64_t queries = svc.ann_queries() - q0;
        const double cand_per_q =
            queries == 0 ? 0.0
                         : static_cast<double>(svc.ann_candidates() - c0) /
                               static_cast<double>(queries);
        const double resc_per_q =
            queries == 0 ? 0.0
                         : static_cast<double>(svc.ann_rescored() - r0) /
                               static_cast<double>(queries);
        auto snap = lat.Snapshot();
        const double recall = recall_sum / static_cast<double>(recall_n);
        const double speedup = exact_snap.p50 / std::max(1e-9, snap.p50);
        table.Row({bench::FmtInt(static_cast<long long>(catalog)), name,
                   bench::FmtInt(static_cast<long long>(nprobe)),
                   bench::Fmt("%.1f", snap.mean), bench::Fmt("%.3f", recall),
                   bench::Fmt("%.2fx", speedup), bench::Fmt("%.0f", resc_per_q)});
        json.Row(
            {{"catalog", bench::JsonRows::Num(static_cast<long long>(catalog))},
             {"d", bench::JsonRows::Num(static_cast<long long>(kDim))},
             {"k", bench::JsonRows::Num(static_cast<long long>(kTopK))},
             {"mode", bench::JsonRows::Str(name)},
             {"nprobe", bench::JsonRows::Num(static_cast<long long>(nprobe))},
             {"mean_us", bench::JsonRows::Num(snap.mean)},
             {"p50_us", bench::JsonRows::Num(snap.p50)},
             {"recall_at_10", bench::JsonRows::Num(recall)},
             {"speedup_vs_exact", bench::JsonRows::Num(speedup)},
             {"build_ms", bench::JsonRows::Num(serving.build_ms)},
             {"candidates_per_query", bench::JsonRows::Num(cand_per_q)},
             {"rescored_per_query", bench::JsonRows::Num(resc_per_q)}});
      }
    }
  }
  json.Section("stage_breakdown", StageJson(stages));
  json.Write();
  std::printf(
      "\nShape check: exact latency is linear in the catalog; ANN latency\n"
      "follows probed rows (~catalog*nprobe/nlist), so the speedup widens with\n"
      "catalog size while recall@10 climbs with nprobe and saturates near 1.\n"
      "ivf_pq rescores a bounded shortlist, so its rescore volume is flat\n"
      "across nprobe where ivf's grows with it.\n");
}

}  // namespace
}  // namespace velox

int main() {
  velox::Run();
  return 0;
}
