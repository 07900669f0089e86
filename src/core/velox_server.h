// VeloxServer — the whole system, wired per the paper's Figure 2.
//
// One VeloxServer simulates a Velox deployment: a storage cluster
// (Tachyon stand-in) of N nodes, and on every node a co-located model
// predictor (prediction service + feature/prediction caches) and model
// manager shard (user-weight store + online updater). Cluster-wide
// control plane: one model registry, evaluator, retrain scheduler and
// batch job driver.
//
// Request routing (§5): by default requests are routed to the node
// owning the user's weights, so all W reads/writes are local. The
// `route_by_uid=false` ablation serves each request from an arbitrary
// node and charges the proxy round-trip to the user's home node,
// quantifying what the routing policy saves.
#ifndef VELOX_CORE_VELOX_SERVER_H_
#define VELOX_CORE_VELOX_SERVER_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "batch/job.h"
#include "common/metrics.h"
#include "common/random.h"
#include "common/stage_trace.h"
#include "common/result.h"
#include "core/bandit.h"
#include "core/bootstrap.h"
#include "core/evaluator.h"
#include "core/feature_cache.h"
#include "core/model.h"
#include "core/model_registry.h"
#include "core/online_updater.h"
#include "core/prediction_cache.h"
#include "core/prediction_service.h"
#include "core/retrain_scheduler.h"
#include "core/user_weights.h"
#include "storage/snapshot.h"
#include "storage/storage_client.h"
#include "storage/storage_cluster.h"

namespace velox {

struct VeloxServerConfig {
  int32_t num_nodes = 1;
  // Feature/weight dimension d (must match the model's dim()).
  size_t dim = 10;
  double lambda = 0.1;
  UpdateStrategy update_strategy = UpdateStrategy::kShermanMorrison;

  size_t feature_cache_capacity = 1 << 16;
  size_t prediction_cache_capacity = 1 << 18;
  bool use_feature_cache = true;
  bool use_prediction_cache = true;

  // Serve item features from the distributed storage tier (remote
  // fetches through the feature cache) instead of the in-process θ.
  bool distribute_item_features = false;

  // Route requests to the user's home node (§5). Ablation toggle.
  bool route_by_uid = true;

  // Worker threads for sharded full-catalog top-K scans, shared across
  // nodes (the plane is read-only so one pool serves them all). 0 =
  // one per hardware thread (clamped to 8); 1 = always serial.
  size_t topk_scan_threads = 0;

  // ANN candidate generation: when enabled and a registered version's
  // plane has >= ann.min_items rows, the registry builds an IVF(+PQ)
  // index at install time and TopKAll's kAuto serves from it above
  // topk_auto_ann_min_rows filter-adjusted rows. The index build
  // shares the scan pool.
  AnnBuildPolicy ann;
  size_t topk_auto_ann_min_rows = 100000;
  // Lists probed per ANN query; 0 = the index's build-time default.
  size_t ann_nprobe = 0;

  // Bandit policy spec for topK ("greedy", "epsilon_greedy:0.1",
  // "linucb:0.5", "thompson"); empty = greedy, no exploration marking.
  std::string bandit_policy = "linucb:0.5";

  // When > 0, every N-th observe() call checks the staleness signal and
  // retrains synchronously if it fired — the paper's automatic
  // "monitoring ... triggers offline retraining" loop without an
  // operator polling MaybeRetrain(). 0 = manual only.
  int64_t auto_retrain_check_every = 0;

  // Per-node storage clients: retry/backoff, per-op deadlines, hedged
  // replica reads. Benches flip these off for the no-fault-tolerance
  // baseline.
  StorageClientOptions storage_client;
  // Serve bounded degraded answers (stale score / bootstrap mean) when
  // feature resolution fails transiently, instead of erroring requests.
  bool degrade_on_unavailable = true;

  // ---- durability: per-node user-weight journals (storage/snapshot.h) ----
  struct DurabilityOptions {
    // Directory for per-node journal files
    // (<dir>/user_weights_node<N>.wal / .snap). Empty = disabled: the
    // node's serving state lives only in memory, as before.
    std::string dir;
    // Sync policy for every journal append (see storage/wal.h for the
    // precise guarantee each policy gives).
    WalOptions wal;
    // Snapshot a node's weight table every N journal records so
    // recovery replays a bounded suffix; 0 = replay from genesis.
    uint64_t snapshot_every = 4096;
    // Replay the journals during construction (fresh files make this a
    // no-op). Set false to install a model version first and then call
    // RecoverDurability() explicitly — mutations made before that call
    // are NOT journaled, and the replay overwrites them with the
    // journal's state (the pre-crash truth).
    bool recover_on_start = true;
  };
  DurabilityOptions durability;

  OnlineUpdaterOptions updater;
  EvaluatorOptions evaluator;
  RetrainSchedulerOptions retrain;
  StorageClusterOptions storage;
  size_t batch_workers = 2;
  uint64_t seed = 123;
};

// Aggregated cache statistics across nodes.
struct ServerCacheStats {
  CacheStats feature;
  CacheStats prediction;
};

class VeloxServer {
 public:
  // Takes ownership of `model`. The server starts without a model
  // version; call Bootstrap() (offline train on initial data) or
  // InstallVersion() before serving predictions.
  VeloxServer(VeloxServerConfig config, std::unique_ptr<VeloxModel> model);
  ~VeloxServer();

  VeloxServer(const VeloxServer&) = delete;
  VeloxServer& operator=(const VeloxServer&) = delete;

  // Runs the model's offline training on `initial_data` via the batch
  // tier and installs the result as version 1. Also appends
  // `initial_data` to the observation log shards (by uid ownership) so
  // future retrains see it.
  Status Bootstrap(const std::vector<Observation>& initial_data);

  // Installs a pre-trained output directly (no batch job).
  Result<int32_t> InstallVersion(const RetrainOutput& output);

  // ---- Listing 1: the prediction and observation API ----
  Result<ScoredItem> Predict(uint64_t uid, const Item& item);
  // Scores every item for one user in a single request: feature-cache
  // misses across the batch are coalesced into one MultiGet instead of
  // a storage round-trip per item. Results are order-aligned with
  // `items` and bit-identical to per-item Predict.
  Result<std::vector<ScoredItem>> PredictBatch(uint64_t uid,
                                               const std::vector<Item>& items);
  Result<TopKResult> TopK(uint64_t uid, const std::vector<Item>& candidates, size_t k);
  // Greedy top-K over the whole catalog (sharded scan of the
  // materialized θ's scoring plane; see PredictionService::TopKAll).
  // `filter` optionally drops items before scoring (application-level
  // pre-filtering policies, §5).
  // `mode` selects the scan implementation (exact plane scans, or the
  // ANN candidate path when the version carries an index); kAuto picks
  // per the filter-adjusted catalog-size threshold.
  Result<TopKResult> TopKAll(uint64_t uid, size_t k,
                             const PredictionService::ItemFilter& filter = nullptr,
                             PredictionService::TopKAllMode mode =
                                 PredictionService::TopKAllMode::kAuto);
  // ---- load-shed fast path (server plane) ----
  // Degraded answers through the home node's degradation ladder — the
  // exact code path a transient storage fault takes (stale-score board,
  // else bootstrap mean; see PredictionService::ShedAnswer). No storage
  // I/O, no scoring. The admission layer answers every shed read here
  // (a shed predict is the k=1 answer for its one item), so overload
  // responses are bit-identical to fault-degraded ones. Ladder scores
  // for `item_ids` rank under the same (score desc, item_id asc) total
  // order the exact paths use, truncated to k. Only a bounded prefix
  // (4k candidates) is examined: a shed answer must cost O(k), not
  // O(candidate set), or shedding a large topK would be more expensive
  // than serving it and overload protection would feed the overload.
  Result<TopKResult> DegradedTopK(uint64_t uid, std::span<const uint64_t> item_ids,
                                  size_t k);

  Status Observe(uint64_t uid, const Item& item, double label);
  // Observe with provenance from a previous TopK (exploration-sourced
  // observations feed the bandit validation pool).
  Status ObserveWithProvenance(uint64_t uid, const Item& item, double label,
                               bool exploration_sourced);

  // ---- cross-request batching (server plane, DESIGN.md §15) ----
  // Pre-resolves the feature factors a set of cross-request reads will
  // need: (uid, item) pairs are grouped by the uid's home node and each
  // node's union of items resolves through the coalesced batch path —
  // one chunked MultiGet per node in distributed mode, single-flight
  // shared with concurrent requests. Purely a cache warm: failures are
  // ignored (the per-request path re-resolves and degrades as usual),
  // responses stay bit-identical to cold execution.
  void WarmReadFeatures(const std::vector<std::pair<uint64_t, Item>>& reads);

  // One observation in a cross-request write batch.
  struct ObserveOp {
    uint64_t uid = 0;
    Item item;
    double label = 0.0;
    bool exploration_sourced = false;
  };
  // Applies `ops` in order with one WAL group-commit window per node
  // journal that two or more ops touch: every such op's journal append
  // defers its sync and the window's close pays a single
  // policy-appropriate sync (one fdatasync under kFsync) for the whole
  // batch. A node with a single op appends under its ordinary policy,
  // exactly as ObserveWithProvenance would. Statuses are order-aligned
  // with `ops` and identical to calling ObserveWithProvenance per op —
  // except that a failed group sync downgrades that node's acknowledged
  // ops to the sync error, since their durability was never
  // established. Callers must not acknowledge an op before this
  // returns.
  std::vector<Status> ObserveBatch(const std::vector<ObserveOp>& ops);

  // ---- fault tolerance ----
  // Simulates the crash of one serving/storage node. Ownership of its
  // users and item shards remaps to the survivors (consistent-hash
  // ring); user weights are recovered lazily from the replicated
  // `user_weights` storage table on next access (online sufficient
  // statistics restart from the recovered prior). Requires
  // storage.replication_factor > 1 for lossless weight recovery.
  // Lazily-recovered users are journaled on their new node like any
  // other mutation, so a later restart of that node keeps them too.
  Status FailNode(NodeId node);

  // ---- durability recovery ----
  struct DurabilityRecoveryReport {
    // Nodes whose weight table was restored from a snapshot file.
    uint64_t snapshot_restored_nodes = 0;
    // Journal records the snapshots covered (not replayed).
    uint64_t snapshot_covered_records = 0;
    // WAL records replayed through the store's state machine.
    uint64_t replayed_records = 0;
    // Records dropped: torn/undecodable tails or incompatible entries.
    uint64_t skipped_records = 0;
    // False when any node's WAL had a torn tail (bounded loss under
    // kFlush; impossible for acknowledged records under strict kFsync).
    bool clean = true;
  };

  // Restores each node's user-weight state from its journal: load the
  // newest valid snapshot, replay the WAL suffix, then attach the
  // journal so future mutations are logged. Runs automatically at
  // construction when durability.recover_on_start is set; call
  // explicitly (once) otherwise. Time lands in Stage::kRecoveryReplay.
  Result<DurabilityRecoveryReport> RecoverDurability();
  // Report of the recovery this server ran at/after construction.
  const DurabilityRecoveryReport& durability_recovery() const {
    return last_recovery_;
  }
  // A node's journal; null when durability is disabled.
  UserWeightJournal* user_weight_journal(NodeId node) {
    return per_node_[static_cast<size_t>(node)]->journal.get();
  }

  // ---- lifecycle management ----
  Result<bool> MaybeRetrain();
  Result<RetrainReport> RetrainNow();
  // Retrain under an explicit mode (kAuto = drift check decides).
  Result<RetrainReport> Retrain(RetrainMode mode);
  // Nearline incremental refresh of the drifted items only;
  // `refresh_all` forces the select-everything bit-identity path.
  Result<RetrainReport> RetrainIncremental(bool refresh_all = false);
  // Cumulative retrain counters (the `retrain.*` metric source).
  RetrainSchedulerStats RetrainStats() const;
  Status Rollback(int32_t version);
  std::vector<ModelVersionInfo> VersionHistory() const;
  EvaluatorReport QualityReport() const;

  // ---- introspection ----
  // Publishes a consistent snapshot of all server metrics (caches,
  // network, evaluator, versions, users) into `registry` under the
  // "velox.<model>." prefix — including per-stage latency percentiles
  // under "velox.<model>.stage.<name>.*" — and returns its textual
  // report. Passing nullptr uses a private scratch registry
  // (report-only).
  std::string MetricsReport(MetricsRegistry* registry = nullptr) const;

  // ---- per-stage latency breakdown (tentpole observability) ----
  // Cluster-wide view of one stage: every node's histogram merged
  // (bucket counts add exactly, so quantiles are as if all requests
  // hit one node).
  HistogramData StageData(Stage stage) const;
  // Human-readable dump, one line per stage with nonzero samples
  // (reachable from the shell's `stages` command).
  std::string StageReport() const;
  // JSON object keyed by stage name with count/mean/percentiles in
  // microseconds — embedded by benches as the BENCH `stage_breakdown`
  // section.
  std::string StageBreakdownJson() const;
  void ResetStageStats();
  // A node's raw registry (tests/benches).
  StageRegistry* stage_registry(NodeId node) {
    return per_node_[static_cast<size_t>(node)]->stages.get();
  }

  // ANN serving counters summed across every node's prediction service
  // (queries through the candidate path, lists probed, candidate rows
  // seen, rows exactly rescored).
  struct AnnServeStats {
    uint64_t queries = 0;
    uint64_t probes = 0;
    uint64_t candidates = 0;
    uint64_t rescored = 0;
  };
  AnnServeStats AggregatedAnnStats() const;

  ServerCacheStats AggregatedCacheStats() const;
  void ResetCacheStats();
  // Storage fault-handling counters summed across every node's client
  // (retries, hedges, deadline misses, partial writes, backoff nanos).
  StorageClientStats AggregatedStorageStats() const;
  // Degraded answers served across all nodes (predict + observe paths).
  uint64_t DegradedCount() const;
  NetworkStats NetworkStatistics() const { return storage_->network()->stats(); }
  void ResetNetworkStats() { storage_->network()->ResetStats(); }
  size_t TotalUsers() const;
  int32_t current_version() const { return registry_->current_version(); }
  const VeloxServerConfig& config() const { return config_; }

  StorageCluster* storage() { return storage_.get(); }
  Evaluator* evaluator() { return evaluator_.get(); }
  ModelRegistry* registry() { return registry_.get(); }
  const VeloxModel* model() const { return model_.get(); }
  // Direct access to a node's prediction service (benchmarks).
  PredictionService* prediction_service(NodeId node) {
    return per_node_[static_cast<size_t>(node)]->prediction_service.get();
  }
  FeatureCache* feature_cache(NodeId node) {
    return per_node_[static_cast<size_t>(node)]->feature_cache.get();
  }
  UserWeightStore* user_weights(NodeId node) {
    return per_node_[static_cast<size_t>(node)]->weights.get();
  }
  // A node's drift accumulator (tests/benches). Volatile across
  // restarts by contract — see core/incremental_trainer.h.
  ItemDriftTracker* drift_tracker(NodeId node) {
    return per_node_[static_cast<size_t>(node)]->drift.get();
  }

 private:
  struct PerNode {
    std::unique_ptr<StorageClient> client;
    std::unique_ptr<Bootstrapper> bootstrapper;
    // User-weight durability journal (null when disabled). Declared
    // before `weights` so it outlives the store that borrows it.
    std::unique_ptr<UserWeightJournal> journal;
    std::unique_ptr<UserWeightStore> weights;
    std::unique_ptr<FeatureCache> feature_cache;
    std::unique_ptr<PredictionCache> prediction_cache;
    std::unique_ptr<PredictionService> prediction_service;
    std::unique_ptr<OnlineUpdater> updater;
    // Per-node stage-latency sink shared by the predict and observe
    // paths above (both run on this node's threads).
    std::unique_ptr<StageRegistry> stages;
    // Per-item drift accumulation feeding incremental retraining
    // (core/incremental_trainer.h); in-memory only, reset on restart.
    std::unique_ptr<ItemDriftTracker> drift;
  };

  // Home node of a user (ring placement).
  Result<NodeId> HomeNode(uint64_t uid) const;
  // Node that serves this request; equals HomeNode under uid routing,
  // pseudo-random otherwise (with the proxy hop charged).
  Result<NodeId> ServingNode(uint64_t uid, uint64_t approx_payload_bytes);

  VeloxServerConfig config_;
  std::unique_ptr<VeloxModel> model_;
  // Declared before per_node_ so it outlives the prediction services
  // that borrow it.
  std::unique_ptr<ThreadPool> scan_pool_;
  std::unique_ptr<StorageCluster> storage_;
  std::unique_ptr<ModelRegistry> registry_;
  std::unique_ptr<Evaluator> evaluator_;
  std::unique_ptr<JobDriver> driver_;
  std::vector<std::unique_ptr<PerNode>> per_node_;
  std::unique_ptr<RetrainScheduler> scheduler_;
  std::unique_ptr<BanditPolicy> bandit_;
  // One Rng per node for bandit policies; the node's PredictionService
  // holds its rank mutex across each draw (TopK's Rank step only).
  std::vector<std::unique_ptr<Rng>> rngs_;
  std::atomic<uint64_t> request_counter_{0};
  std::atomic<uint64_t> observe_counter_{0};
  bool durability_recovered_ = false;
  DurabilityRecoveryReport last_recovery_;
};

}  // namespace velox

#endif  // VELOX_CORE_VELOX_SERVER_H_
