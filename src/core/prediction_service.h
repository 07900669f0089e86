// The Velox Model Predictor (paper Figure 2, §5): low-latency point
// predictions and topK over the current model version, through the
// feature and prediction caches.
//
// Per-request flow (Predict):
//   weights  = local user-weight lookup (bootstrapping new users from
//              the mean weight vector),
//   score    = prediction cache hit, or w_uᵀ f(x, θ) with f resolved
//              through the feature cache (a miss either computes the
//              basis or fetches the materialized factor — possibly from
//              a remote node, charged to the simulated network).
//
// TopK scores a candidate set in one pass, then lets a bandit policy
// order it (§5: select "the item with max sum of score and
// uncertainty"), reporting whether the top pick was exploratory so the
// manager can route the eventual observation into the validation pool.
#ifndef VELOX_CORE_PREDICTION_SERVICE_H_
#define VELOX_CORE_PREDICTION_SERVICE_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/random.h"
#include "common/result.h"
#include "common/stage_trace.h"
#include "common/thread_pool.h"
#include "core/bandit.h"
#include "core/bootstrap.h"
#include "core/feature_cache.h"
#include "core/model_registry.h"
#include "core/prediction_cache.h"
#include "core/user_weights.h"
#include "ml/feature_function.h"
#include "storage/storage_client.h"

namespace velox {

// How a node resolves f(x, θ) on a feature-cache miss.
class FeatureResolver {
 public:
  // Local mode: evaluate the model version's feature function directly
  // (computational basis, or a node-local materialized table).
  FeatureResolver() = default;

  // Distributed-materialized mode: factors live in a storage table
  // partitioned across the cluster; misses fetch through `client`
  // (charging the simulated network), using the table name recorded
  // for the current model version ("<prefix>_v<version>").
  FeatureResolver(StorageClient* client, std::string table_prefix);

  // Resolves features for `items` under `version`: one Result per item,
  // in input order (a lone item is a batch of one). Local mode
  // evaluates the feature function per item; distributed mode fetches
  // all keys through StorageClient::MultiGet (chunked to respect the
  // per-op deadline), so a batch of B cold items costs O(nodes)
  // sub-batch round trips instead of B. `served_remote` reports
  // whether any factor crossed the network (a non-origin replica served
  // it); `report` accumulates the storage traces (summed backoff/sim
  // nanos, max attempts).
  std::vector<Result<DenseVector>> ResolveBatch(const ModelVersion& version,
                                                const std::vector<Item>& items,
                                                bool* served_remote = nullptr,
                                                StorageOpReport* report = nullptr) const;

  bool is_distributed() const { return client_ != nullptr; }
  // Table name for a given version (distributed mode).
  std::string TableForVersion(int32_t version) const;

 private:
  StorageClient* client_ = nullptr;
  std::string table_prefix_;
};

// Encodes/decodes factor vectors for the distributed feature table.
Value EncodeFactor(const DenseVector& v);
Result<DenseVector> DecodeFactor(const Value& bytes);

struct ScoredItem {
  uint64_t item_id = 0;
  double score = 0.0;
  double uncertainty = 0.0;
  // True when feature resolution ultimately failed and the score is a
  // degraded answer (stale cached score or the bootstrap-mean score)
  // rather than w_u' f(x, theta).
  bool degraded = false;
};

struct TopKResult {
  // Best-first, size min(k, candidates).
  std::vector<ScoredItem> items;
  // True when the policy's top pick differs from the greedy argmax —
  // the signal that the eventual observation is exploration-sourced.
  bool top_is_exploratory = false;
  int32_t model_version = 0;
  // True when any candidate's score is degraded.
  bool degraded = false;
};

struct PredictionServiceOptions {
  bool use_feature_cache = true;
  bool use_prediction_cache = true;
  // Minimum plane rows per shard before a TopKAll scan fans out to the
  // scan pool; below ~this the fan-out overhead beats the win. Tests
  // lower it to exercise the parallel merge on small catalogs.
  size_t topk_min_shard_rows = 4096;
  // Plane scans pre-filter through the float mirror of the plane (half
  // the memory traffic) and rescore the provably-sufficient candidate
  // set in double; the output is bit-identical to the pure-double scan
  // (see MixedPrecisionScan in prediction_service.cc for the bound).
  // Off forces the pure-double streaming scan; planes holding
  // non-finite factors fall back automatically.
  bool topk_mixed_precision = true;
  // TopKAllMode::kAuto switches from the exact plane scan to the
  // ANN candidate path (when the current version carries an index)
  // once the *filter-adjusted* eligible row estimate reaches this many
  // rows; below it the exact scan is already fast and recall is free.
  size_t topk_auto_ann_min_rows = 100000;
  // Lists probed per ANN query; 0 uses the index's build-time default.
  size_t ann_nprobe = 0;
  // Graceful degradation (Clipper-style bounded answers): when feature
  // resolution ultimately fails with a *transient* error (Unavailable —
  // drops, partitions, deadline misses), serve the last known score for
  // the (uid, item) pair, or the bootstrap-mean score when none exists,
  // flagged `degraded` — instead of erroring the request. Definitive
  // errors (NotFound) still propagate.
  bool degrade_on_unavailable = true;
};

// The first degradation rung: the last computed score per (uid, item),
// any epoch or version, in a fixed direct-mapped table. A write
// overwrites its slot, so a pair whose slot a later pair took is
// forgotten (the bootstrap mean answers for it); a read answers only
// when the slot holds exactly the asked pair, never another pair's
// score. Sized at construction, it allocates nothing afterwards;
// striped mutexes guard the slots.
class StaleScoreBoard {
 public:
  static constexpr size_t kSlots = size_t{1} << 16;

  StaleScoreBoard() : slots_(kSlots) {}

  void Put(uint64_t uid, uint64_t item_id, double score);
  std::optional<double> Get(uint64_t uid, uint64_t item_id) const;

 private:
  struct Slot {
    uint64_t uid = 0;
    uint64_t item_id = 0;
    double score = 0.0;
    bool filled = false;
  };
  static constexpr size_t kStripes = 64;
  static size_t SlotOf(uint64_t uid, uint64_t item_id);

  std::vector<Slot> slots_;
  mutable std::array<std::mutex, kStripes> mus_;
};

class PredictionService {
 public:
  // All dependencies are borrowed and must outlive the service.
  PredictionService(PredictionServiceOptions options, ModelRegistry* registry,
                    UserWeightStore* weights, Bootstrapper* bootstrapper,
                    FeatureCache* feature_cache, PredictionCache* prediction_cache,
                    FeatureResolver resolver);

  // Point prediction for (uid, item) — Listing 1's `predict`. A batch
  // of one: PredictBatch(uid, {item}).
  Result<ScoredItem> Predict(uint64_t uid, const Item& item);

  // Batched point predictions: one ScoredItem per input item, in input
  // order, bit-identical to calling Predict per item. The win is the
  // storage plane: feature-cache misses across the whole batch are
  // coalesced into one MultiGet (duplicate items fetch once), and
  // concurrent misses for the same (version, item) from other requests
  // share a single in-flight fetch. Degradation applies per item: a
  // transiently-unresolvable item gets a stale/bootstrap-mean score,
  // the rest of the batch gets real scores; definitive errors still
  // fail the request.
  Result<std::vector<ScoredItem>> PredictBatch(uint64_t uid,
                                               const std::vector<Item>& items);

  // Scores `candidates` and returns the best k under `policy`
  // (greedy when policy is null) — Listing 1's `topK`. With no policy
  // this is PredictBatch's scoring plus a greedy rank. With a policy
  // every candidate's features are resolved for its uncertainty, so the
  // prediction cache is bypassed (a hit would save only the dot
  // product): one coalesced resolve, one scoring loop, one stripe-lock
  // acquisition for all uncertainties. Only `policy->Rank` runs under
  // the service's rank mutex, so callers may share one `rng` across
  // threads.
  Result<TopKResult> TopK(uint64_t uid, const std::vector<Item>& candidates, size_t k,
                          const BanditPolicy* policy, Rng* rng);

  // Application-level admission policy for full-catalog topK (paper §5:
  // topK "can be used to support pre-filtering items according to
  // application level policies"). Returns true to keep the item.
  using ItemFilter = std::function<bool(uint64_t item_id)>;

  // Which scan implementation TopKAll uses. The exact scan streams the
  // contiguous plane, sharded across the scan pool when
  // PlannedScanShards finds enough filter-adjusted rows; every shard
  // count returns the same items/scores/order (ranking is the total
  // order (score desc, item_id asc), and every shard scores with the
  // same kernels). The ANN modes may return a different item *set*
  // (bounded recall loss), but every item they do return carries the
  // exact double score — candidates are rescored through the same
  // kernels, so scores are bit-identical to the exact path per item.
  enum class TopKAllMode {
    kAuto,   // kExact; ANN above topk_auto_ann_min_rows when the
             // version carries an index
    kExact,  // contiguous plane scan, PlannedScanShards shards
    kIvf,    // IVF probe, exact rescore of all probed rows
    kIvfPq,  // IVF probe + PQ shortlist, exact rescore
  };

  // Full-catalog greedy top-K — the paper's §8 "more efficient top-K
  // support for our linear modeling tasks". Streams the version's
  // ItemFactorPlane with blocked kernels (linalg/scoring_kernels.h)
  // and a bounded worst-at-top heap: O(|catalog| · d + |catalog| log k)
  // time, O(k) extra space per shard. With a scan pool set, the plane
  // splits into contiguous shards whose per-shard heaps merge with
  // deterministic (score, item_id) tie-breaking, so parallel output is
  // bit-identical to serial. Bypasses the per-item caches (a
  // whole-catalog scan would only thrash them). Requires the current
  // version's features to be materialized and in-process. `filter`
  // (optional) drops items before they enter the heap.
  Result<TopKResult> TopKAll(uint64_t uid, size_t k, const ItemFilter& filter = nullptr,
                             TopKAllMode mode = TopKAllMode::kAuto);

  // Batched TopKAll: one registry/version/plane resolution (and one
  // mode resolution) amortized across all `uids`, reusing the hot
  // plane for every user. Returns one TopKResult per uid, in input
  // order.
  Result<std::vector<TopKResult>> TopKAllBatch(const std::vector<uint64_t>& uids,
                                               size_t k,
                                               const ItemFilter& filter = nullptr,
                                               TopKAllMode mode = TopKAllMode::kAuto);

  // How many shards a plane scan would fan out to for this filter —
  // min(pool threads, eligible rows / topk_min_shard_rows), where
  // eligible rows are *estimated under the filter* (sampled), not the
  // raw plane size: a heavily-filtered scan must not fan out over rows
  // it will mostly skip. Public so tests can pin the policy.
  size_t PlannedScanShards(const ItemFactorPlane& plane,
                           const ItemFilter& filter) const;

  // Thread pool for sharded plane scans (borrowed; may be null for
  // serial scans). Wire at construction time — not thread-safe against
  // concurrent requests.
  void SetScanPool(ThreadPool* pool) { scan_pool_ = pool; }
  ThreadPool* scan_pool() const { return scan_pool_; }

  // Per-node stage-latency sink (borrowed; may be null, in which case
  // request paths skip all clock reads). Wire at construction time.
  void SetStageRegistry(StageRegistry* stages) { stages_ = stages; }
  StageRegistry* stage_registry() const { return stages_; }

  // Resolves features through the cache (shared with the observe path
  // so updates reuse cached features). Returns a shared handle to the
  // immutable cached factor — hits are allocation-free. Concurrent
  // misses for the same (version, item) share one in-flight fetch.
  Result<FeaturePtr> ResolveFeatures(const ModelVersion& version, const Item& item);
  // As above, charging elapsed time to `timer`'s feature-resolve stage
  // (local or remote depending on where the factor was served from).
  Result<FeaturePtr> ResolveFeatures(const ModelVersion& version, const Item& item,
                                     StageTimer& timer);

  // Batch-warms the feature cache for `item_ids` under `version`
  // through the same coalesced resolve path requests use (one chunked
  // MultiGet per batch in distributed mode). Returns how many items
  // resolved successfully. The retrain scheduler's cache warming runs
  // on this.
  size_t WarmFeatures(const ModelVersion& version,
                      const std::vector<uint64_t>& item_ids);
  // As above for fully-built Items (attributes included), so a warm
  // issued on behalf of real requests resolves exactly the features
  // those requests will read. The server plane's cross-request batcher
  // pre-resolves each batch's item union through this.
  size_t WarmFeatures(const ModelVersion& version, const std::vector<Item>& items);

  const PredictionServiceOptions& options() const { return options_; }

  // Degraded answers served so far, split by rung: stale-score board
  // hits vs bootstrap-mean fallbacks.
  uint64_t degraded_count() const {
    return degraded_stale_.load(std::memory_order_relaxed) +
           degraded_mean_.load(std::memory_order_relaxed);
  }
  uint64_t degraded_stale_count() const {
    return degraded_stale_.load(std::memory_order_relaxed);
  }
  uint64_t degraded_mean_count() const {
    return degraded_mean_.load(std::memory_order_relaxed);
  }

  // The bootstrap-mean score: running mean of every successfully
  // computed score (0.0 before any request completes) — the final rung
  // of the degradation ladder. Public so tests can pin degraded answers
  // bit-for-bit.
  double fallback_score() const {
    std::lock_guard<std::mutex> lock(fallback_mu_);
    return FallbackScoreLocked();
  }

  // Load-shed answer for (uid, item): the exact degradation ladder the
  // fault path uses (stale-score board, else bootstrap mean), so a
  // request shed by admission control gets a response bit-identical to
  // one degraded by a storage fault. Bumps the same rung counters and
  // records the same kDegradedServe stage; cheap by construction (one
  // board probe and the mean, no storage I/O).
  ScoredItem ShedAnswer(uint64_t uid, uint64_t item_id);

  // Miss-coalescer counters. Every feature resolution (single or
  // batched) flows through the coalescer, so keys = items asked,
  // hits = feature-cache hits, merged = duplicate items folded into one
  // fetch within a batch, flight_waits = resolutions that piggybacked
  // on another request's in-flight fetch, fetches = items actually sent
  // to the resolver. Coalescer hit rate = 1 - fetches/keys.
  uint64_t coalesce_keys() const {
    return coalesce_keys_.load(std::memory_order_relaxed);
  }
  uint64_t coalesce_hits() const {
    return coalesce_hits_.load(std::memory_order_relaxed);
  }
  uint64_t coalesce_merged() const {
    return coalesce_merged_.load(std::memory_order_relaxed);
  }
  uint64_t coalesce_flight_waits() const {
    return coalesce_flight_waits_.load(std::memory_order_relaxed);
  }
  uint64_t coalesce_fetches() const {
    return coalesce_fetches_.load(std::memory_order_relaxed);
  }

  // ANN serving counters: queries answered through the candidate path,
  // inverted lists probed, candidate rows seen pre-shortlist, and rows
  // exactly rescored. rescored/queries is the live candidate-set size;
  // candidates vs rescored shows how hard the PQ shortlist prunes.
  uint64_t ann_queries() const { return ann_queries_.load(std::memory_order_relaxed); }
  uint64_t ann_probes() const { return ann_probes_.load(std::memory_order_relaxed); }
  uint64_t ann_candidates() const {
    return ann_candidates_.load(std::memory_order_relaxed);
  }
  uint64_t ann_rescored() const {
    return ann_rescored_.load(std::memory_order_relaxed);
  }

 private:
  // The miss coalescer: resolves features for every item (one Result
  // per input, in input order, duplicates merged) with one cache probe
  // per unique item, claiming misses in the single-flight table so one
  // fetch per (version, item) is in flight cluster-node-wide, and
  // resolving the claimed keys through FeatureResolver::ResolveBatch
  // (one chunked MultiGet in distributed mode). Losers of a claim race
  // block until the winner completes and share its result.
  std::vector<Result<FeaturePtr>> BatchResolveFeatures(const ModelVersion& version,
                                                       const std::vector<Item>& items,
                                                       StageTimer& timer);

  // The fetch half of the coalescer: `misses` are unique items that
  // already missed the feature cache. Claims each in the single-flight
  // table, resolves the claimed ones in one batched fetch, publishes
  // results (cache + flight), and waits out claims another thread won.
  std::vector<Result<FeaturePtr>> ResolveMisses(const ModelVersion& version,
                                                const std::vector<Item>& misses,
                                                StageTimer& timer);

  // The scoring pass behind PredictBatch and TopK: one ScoredItem per
  // item of `items`, in input order. Reads the user's weights and epoch
  // under one lock; without `with_uncertainty`, probes the prediction
  // cache per item; resolves the rest in one coalesced batch; scores
  // them under one kernel span; with `with_uncertainty`, fills their
  // uncertainties under one stripe-lock acquisition; then NoteScores.
  // A transiently unresolvable item is degraded (zero uncertainty); a
  // definitive error fails the call before any score is recorded.
  Result<std::vector<ScoredItem>> ScoreItems(const ModelVersion& version, uint64_t uid,
                                             const std::vector<Item>& items,
                                             bool with_uncertainty, StageTimer& timer);

  // Settles the resolved items of `out` (positions `pos`, in item
  // order): each computed score goes to the stale board and then, under
  // one fallback_mu_ acquisition, into the running bootstrap mean; each
  // degraded item is answered from the ladder as of its position (its
  // board slot, else the mean so far), exactly as an item-at-a-time
  // loop would. No-op when degradation is off.
  void NoteScores(uint64_t uid, const std::vector<size_t>& pos,
                  std::vector<ScoredItem>& out, StageTimer& timer);

  double FallbackScoreLocked() const {
    return score_count_ == 0 ? 0.0 : score_sum_ / static_cast<double>(score_count_);
  }

  // Scans `plane` for one user's weights in PlannedScanShards shards;
  // shared by TopKAll and TopKAllBatch.
  Result<TopKResult> ScanPlane(const ItemFactorPlane& plane, int32_t model_version,
                               const DenseVector& weights, size_t k,
                               const ItemFilter& filter) const;

  // Estimated rows of `plane` passing `filter` (plane size when filter
  // is null), from a bounded evenly-spaced sample — cheap enough to run
  // per scan, accurate enough for fan-out and mode thresholds.
  static size_t EstimateEligibleRows(const ItemFactorPlane& plane,
                                     const ItemFilter& filter);

  // Resolves kAuto against the version's index, the filter-adjusted
  // catalog size, and k; non-auto modes pass through.
  TopKAllMode ResolveTopKAllMode(const ModelVersion& version,
                                 const ItemFactorPlane& plane, size_t k,
                                 const ItemFilter& filter, TopKAllMode mode) const;

  // ANN candidate path: probe (timed as kAnnCandidateProbe), then
  // exact double rescore of the candidates (kAnnRescore) through the
  // shared kernels — returned scores are bit-identical to the exact
  // scan's for the same items.
  TopKResult AnnScan(const IvfIndex& index, int32_t model_version,
                     const DenseVector& weights, size_t k, const ItemFilter& filter,
                     bool use_pq, StageTimer& timer);

  // One user's TopKAll under an already-resolved mode; shared by
  // TopKAll and TopKAllBatch.
  Result<TopKResult> ExecuteTopKAll(const ModelVersion& version,
                                    const ItemFactorPlane& plane,
                                    const DenseVector& weights, size_t k,
                                    const ItemFilter& filter, TopKAllMode resolved,
                                    StageTimer& timer);

  PredictionServiceOptions options_;
  ModelRegistry* registry_;
  UserWeightStore* weights_;
  Bootstrapper* bootstrapper_;
  FeatureCache* feature_cache_;
  PredictionCache* prediction_cache_;
  FeatureResolver resolver_;
  ThreadPool* scan_pool_ = nullptr;
  StageRegistry* stages_ = nullptr;

  // Degradation state. Unlike the prediction cache, a stale entry is
  // *meant* to survive epoch bumps — that is what makes it stale.
  StaleScoreBoard stale_scores_;
  mutable std::mutex fallback_mu_;
  double score_sum_ = 0.0;
  uint64_t score_count_ = 0;
  std::atomic<uint64_t> degraded_stale_{0};
  std::atomic<uint64_t> degraded_mean_{0};

  // Held only across BanditPolicy::Rank: the one TopK step that draws
  // from the caller's Rng (VeloxServer shares one per node).
  std::mutex rank_mu_;

  // Single-flight table: one Flight per (model version, item id) with a
  // fetch in progress. The claiming thread fetches, publishes into
  // `value`/`status`, erases the entry, and wakes the waiters (who hold
  // their own shared_ptr to the Flight, so erasure is safe). Erasing on
  // completion means a failed fetch is retried by the next request
  // instead of pinning the failure.
  struct Flight {
    std::mutex mu;
    std::condition_variable cv;
    bool finished = false;
    Status status;
    FeaturePtr value;
  };
  std::mutex flights_mu_;
  std::map<std::pair<int32_t, uint64_t>, std::shared_ptr<Flight>> flights_;

  std::atomic<uint64_t> coalesce_keys_{0};
  std::atomic<uint64_t> coalesce_hits_{0};
  std::atomic<uint64_t> coalesce_merged_{0};
  std::atomic<uint64_t> coalesce_flight_waits_{0};
  std::atomic<uint64_t> coalesce_fetches_{0};

  std::atomic<uint64_t> ann_queries_{0};
  std::atomic<uint64_t> ann_probes_{0};
  std::atomic<uint64_t> ann_candidates_{0};
  std::atomic<uint64_t> ann_rescored_{0};
};

}  // namespace velox

#endif  // VELOX_CORE_PREDICTION_SERVICE_H_
