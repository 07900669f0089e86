// Ablation A11 — batched storage plane: per-key vs batched (MultiGet)
// feature resolution on the serving path.
//
// The paper's serving tier resolves missing item factors from the
// storage tier; a B-item request that misses everywhere costs O(B)
// network round trips per key. The batched plane re-shards the whole
// miss set by owning node and ships one sub-batch message per node per
// delivery pass — O(nodes) messages per cold request — and retries,
// hedges, and deadlines apply per sub-batch. Two modes face identical
// request streams:
//   per_key   a loop of per-item Predict calls, each resolving its
//             item with a one-key MultiGet;
//   batched   the request's misses coalesced into one MultiGet.
// Expected shape: batched sends ~B/nodes fewer messages per cold
// request and holds a lower simulated p99 under message drops (fewer
// messages -> fewer fault lottery tickets, and a whole sub-batch
// retries as one message). Scores are bit-identical between modes.
// A warm Zipf section reports the coalescer's hit/merge rates.
//
// Emits BENCH_batching.json.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "core/velox.h"

namespace velox {
namespace {

const int kRequests = bench::SmokeScaled(300, 4);
const int kWarmRequests = bench::SmokeScaled(2000, 10);

Item MakeItem(uint64_t id) {
  Item item;
  item.id = id;
  return item;
}

VeloxServerConfig ColdConfig() {
  VeloxServerConfig config;
  config.num_nodes = 4;
  config.dim = 6;
  config.bandit_policy = "";
  config.batch_workers = 2;
  // Every request must exercise the storage plane: features live in
  // the distributed table and both caches are off.
  config.distribute_item_features = true;
  config.use_feature_cache = false;
  config.use_prediction_cache = false;
  config.storage.replication_factor = 2;
  config.evaluator.min_observations = 1LL << 40;
  config.degrade_on_unavailable = true;
  return config;
}

struct RunResult {
  double msgs_per_req = 0.0;  // network messages (sent, incl. dropped)
  double p50_us = 0.0;        // simulated storage time per request
  double p99_us = 0.0;
  double exact_pct = 0.0;  // items answered with a non-degraded score
  double score_sum = 0.0;  // bitwise-comparable across modes at drop 0
  StorageClientStats storage;
};

uint64_t MessagesSent(const NetworkStats& s) {
  return s.local_messages + s.remote_messages + s.dropped_messages +
         s.timed_out_messages;
}

// One request stream, replayed identically in both modes: same uids,
// same item sets, same order.
RunResult RunStream(VeloxServer& server, const SyntheticDataset& data,
                    size_t batch_size, bool batched, uint64_t seed) {
  server.ResetNetworkStats();
  Rng rng(seed);
  SimulatedNetwork* net = server.storage()->network();
  std::vector<int64_t> latencies;
  latencies.reserve(static_cast<size_t>(kRequests));
  uint64_t items_total = 0;
  uint64_t exact = 0;
  double score_sum = 0.0;
  uint64_t msgs = 0;
  for (int r = 0; r < kRequests; ++r) {
    const uint64_t uid = data.ratings[rng.UniformU64(data.ratings.size())].uid;
    std::vector<Item> items;
    items.reserve(batch_size);
    for (size_t i = 0; i < batch_size; ++i) {
      items.push_back(MakeItem(rng.UniformU64(300)));
    }
    NetworkStats before = net->stats();
    if (batched) {
      auto scored = server.PredictBatch(uid, items);
      VELOX_CHECK_OK(scored.status());
      for (const ScoredItem& s : scored.value()) {
        ++items_total;
        if (!s.degraded) {
          ++exact;
          score_sum += s.score;
        }
      }
    } else {
      for (const Item& item : items) {
        auto scored = server.Predict(uid, item);
        VELOX_CHECK_OK(scored.status());
        ++items_total;
        if (!scored->degraded) {
          ++exact;
          score_sum += scored->score;
        }
      }
    }
    NetworkStats after = net->stats();
    latencies.push_back(after.charged_nanos - before.charged_nanos);
    msgs += MessagesSent(after) - MessagesSent(before);
  }
  std::sort(latencies.begin(), latencies.end());
  RunResult result;
  result.msgs_per_req = static_cast<double>(msgs) / kRequests;
  result.p50_us = static_cast<double>(latencies[latencies.size() / 2]) / 1e3;
  result.p99_us = static_cast<double>(latencies[latencies.size() * 99 / 100]) / 1e3;
  result.exact_pct = 100.0 * static_cast<double>(exact) / static_cast<double>(items_total);
  result.score_sum = score_sum;
  result.storage = server.AggregatedStorageStats();
  return result;
}

void Run() {
  bench::Banner(
      "ablation_batching: per-key vs batched (MultiGet) feature resolution",
      "Velox (CIDR'15) batched storage plane (DESIGN.md §10)",
      "4 nodes, R=2, caches off: every item resolves through storage.\n"
      "per_key = one Predict (a one-key MultiGet) per item; batched = one\n"
      "MultiGet per request (one sub-batch message per owning node).\n"
      "Latency is simulated network time per request (charged_nanos).");

  SyntheticMovieLensConfig data_config;
  data_config.num_users = 400;
  data_config.num_items = 300;
  data_config.latent_rank = 6;
  data_config.seed = 1;
  auto data = GenerateSyntheticMovieLens(data_config);
  VELOX_CHECK_OK(data.status());
  AlsConfig als;
  als.rank = 6;
  als.iterations = 5;

  bench::JsonRows json("ablation_batching", "BENCH_batching.json");
  bench::Table table({"batch", "drop_pct", "mode", "msgs_per_req", "p50_us",
                      "p99_us", "exact_pct", "retries", "deadline_miss"},
                     13);

  for (size_t batch_size : {16, 64, 256}) {
    for (double drop : {0.0, 0.01}) {
      double per_key_sum = 0.0;
      double batched_sum = 0.0;
      for (bool batched : {false, true}) {
        VeloxServer server(ColdConfig(),
                           std::make_unique<MatrixFactorizationModel>("songs", als));
        VELOX_CHECK_OK(server.Bootstrap(data->ratings));
        if (drop > 0) {
          FaultInjectionOptions faults;
          faults.drop_probability = drop;
          faults.seed = 0xba7c4 + static_cast<uint64_t>(drop * 1e4);
          server.storage()->network()->InjectFaults(faults);
        }
        RunResult r = RunStream(server, *data, batch_size, batched, /*seed=*/47);
        (batched ? batched_sum : per_key_sum) = r.score_sum;
        const char* mode = batched ? "batched" : "per_key";
        table.Row({bench::FmtInt(static_cast<long long>(batch_size)),
                   bench::Fmt("%.1f", 100.0 * drop), mode,
                   bench::Fmt("%.1f", r.msgs_per_req), bench::Fmt("%.1f", r.p50_us),
                   bench::Fmt("%.1f", r.p99_us), bench::Fmt("%.2f", r.exact_pct),
                   bench::FmtInt(static_cast<long long>(r.storage.retries)),
                   bench::FmtInt(static_cast<long long>(r.storage.deadline_misses))});
        json.Row(
            {{"section", bench::JsonRows::Str("cold")},
             {"batch_size", bench::JsonRows::Num(static_cast<long long>(batch_size))},
             {"drop_pct", bench::JsonRows::Num(100.0 * drop)},
             {"mode", bench::JsonRows::Str(mode)},
             {"requests", bench::JsonRows::Num(static_cast<long long>(kRequests))},
             {"msgs_per_req", bench::JsonRows::Num(r.msgs_per_req)},
             {"p50_us", bench::JsonRows::Num(r.p50_us)},
             {"p99_us", bench::JsonRows::Num(r.p99_us)},
             {"exact_pct", bench::JsonRows::Num(r.exact_pct)},
             {"score_sum", bench::JsonRows::Num(r.score_sum)},
             {"retries", bench::JsonRows::Num(static_cast<long long>(r.storage.retries))},
             {"hedged_reads",
              bench::JsonRows::Num(static_cast<long long>(r.storage.hedged_reads))},
             {"deadline_misses",
              bench::JsonRows::Num(static_cast<long long>(r.storage.deadline_misses))},
             {"multiget_sub_batches",
              bench::JsonRows::Num(
                  static_cast<long long>(r.storage.multiget_sub_batches))}});
      }
      if (drop == 0.0) {
        // No faults -> no degraded answers -> identical request streams
        // must produce bit-identical scores in both modes.
        VELOX_CHECK(per_key_sum == batched_sum)
            << "batched scores diverged from per-key scores";
      }
    }
  }

  // Warm-path coalescer: feature cache on, Zipf item popularity. Hot
  // items hit the cache (refcount bump), the tail coalesces into one
  // MultiGet per request, duplicates inside a request merge.
  std::printf("\nwarm coalescer (feature cache on, Zipf(1.0) items, batch=64):\n");
  VeloxServerConfig warm_config = ColdConfig();
  warm_config.use_feature_cache = true;
  VeloxServer server(warm_config,
                     std::make_unique<MatrixFactorizationModel>("songs", als));
  VELOX_CHECK_OK(server.Bootstrap(data->ratings));
  for (NodeId n = 0; n < 4; ++n) server.feature_cache(n)->Clear();
  Rng rng(53);
  ZipfDistribution zipf(300, 1.0);
  for (int r = 0; r < kWarmRequests; ++r) {
    const uint64_t uid = data->ratings[rng.UniformU64(data->ratings.size())].uid;
    std::vector<Item> items;
    for (size_t i = 0; i < 64; ++i) items.push_back(MakeItem(zipf.Sample(&rng)));
    VELOX_CHECK_OK(server.PredictBatch(uid, items).status());
  }
  uint64_t keys = 0;
  uint64_t hits = 0;
  uint64_t merged = 0;
  uint64_t fetches = 0;
  uint64_t waits = 0;
  for (NodeId n = 0; n < 4; ++n) {
    PredictionService* ps = server.prediction_service(n);
    keys += ps->coalesce_keys();
    hits += ps->coalesce_hits();
    merged += ps->coalesce_merged();
    fetches += ps->coalesce_fetches();
    waits += ps->coalesce_flight_waits();
  }
  const double hit_rate =
      keys == 0 ? 0.0 : 1.0 - static_cast<double>(fetches) / static_cast<double>(keys);
  std::printf("  keys=%llu cache_hits=%llu merged_dups=%llu fetches=%llu "
              "flight_waits=%llu\n  coalescer hit rate (1 - fetches/keys): %.4f\n",
              static_cast<unsigned long long>(keys),
              static_cast<unsigned long long>(hits),
              static_cast<unsigned long long>(merged),
              static_cast<unsigned long long>(fetches),
              static_cast<unsigned long long>(waits), hit_rate);
  json.Row({{"section", bench::JsonRows::Str("warm_coalescer")},
            {"batch_size", bench::JsonRows::Num(64LL)},
            {"requests", bench::JsonRows::Num(static_cast<long long>(kWarmRequests))},
            {"coalesce_keys", bench::JsonRows::Num(static_cast<long long>(keys))},
            {"cache_hits", bench::JsonRows::Num(static_cast<long long>(hits))},
            {"merged_dups", bench::JsonRows::Num(static_cast<long long>(merged))},
            {"storage_fetches", bench::JsonRows::Num(static_cast<long long>(fetches))},
            {"flight_waits", bench::JsonRows::Num(static_cast<long long>(waits))},
            {"hit_rate", bench::JsonRows::Num(hit_rate)}});

  json.Write();
  std::printf(
      "\nShape check: batched sends ~batch/nodes fewer messages per cold\n"
      "request than per-key and holds a lower p99 at 1%% drop; scores are\n"
      "bit-identical at drop 0; the warm coalescer absorbs the Zipf head.\n");
}

}  // namespace
}  // namespace velox

int main() {
  velox::Run();
  return 0;
}
