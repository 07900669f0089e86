// RetrainScheduler — orchestrates the offline half of the paper's
// hybrid learning loop (§4.2, §4.3, §6):
//
//  * watches the Evaluator's staleness signal and, when it fires (or on
//    demand), submits the model's retrain UDF to the batch tier over a
//    snapshot of the observation log, warm-started from the current
//    online user weights;
//  * while the batch job's output is in hand, captures the warm set —
//    the hot entries of the feature and prediction caches — and
//    precomputes them against the new model (§4.2: the batch system
//    "computes all predictions and feature transformations that were
//    cached at the time the batch computation was triggered ... used to
//    repopulate the caches when switching to the newly trained model");
//  * registers the new immutable version, re-seeds every node's user
//    weights from the new W (placed by uid ownership), optionally
//    writes the new materialized θ table into distributed storage,
//    flushes + repopulates caches, and resets the quality baseline.
#ifndef VELOX_CORE_RETRAIN_SCHEDULER_H_
#define VELOX_CORE_RETRAIN_SCHEDULER_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "batch/job.h"
#include "common/result.h"
#include "common/stage_trace.h"
#include "core/evaluator.h"
#include "core/feature_cache.h"
#include "core/incremental_trainer.h"
#include "core/model.h"
#include "core/model_registry.h"
#include "core/prediction_cache.h"
#include "core/prediction_service.h"
#include "core/user_weights.h"
#include "storage/storage_cluster.h"

namespace velox {

// The per-node serving components the scheduler must re-seed on swap.
struct NodeComponents {
  NodeId node = 0;
  UserWeightStore* weights = nullptr;
  FeatureCache* feature_cache = nullptr;
  PredictionCache* prediction_cache = nullptr;
  PredictionService* prediction_service = nullptr;
  StorageClient* client = nullptr;
  // Per-node drift accumulator feeding incremental refresh selection
  // (may be null: the node then contributes no drift signal).
  ItemDriftTracker* drift = nullptr;
};

// How a retrain run solves for the new θ/W (DESIGN.md §14):
//  * kFull        — the paper's batch path: ALS over the whole log.
//  * kIncremental — nearline Lambda-Learner refresh: ridge-solve only
//                   the items whose drift crossed the policy threshold,
//                   merge into the previous version's factors.
//  * kAuto        — incremental, escalating to full when the drifted
//                   fraction of the catalog reaches
//                   IncrementalPolicy::auto_full_fraction (drift-mass
//                   staleness), or when nothing qualifies but a retrain
//                   was demanded anyway.
enum class RetrainMode { kFull, kIncremental, kAuto };

const char* RetrainModeName(RetrainMode mode);

struct RetrainSchedulerOptions {
  // Repopulate caches from the pre-swap warm set.
  bool warm_caches = true;
  size_t warm_hot_entries_per_shard = 64;
  // Write the new materialized feature table into distributed storage
  // (required when nodes use a distributed FeatureResolver).
  bool distribute_item_features = false;
  std::string feature_table_prefix = "item_features";
  // After the swap, replay the observation log into the per-user online
  // state so each w_u is the exact Eq. 2 ridge solution over *all* of
  // the user's data under the new θ (sufficient statistics included),
  // not just a prior mean. Skipped for computational feature functions
  // (replay would need raw item attributes the log does not carry; the
  // computational retrain already solves users from full data).
  bool replay_observations = true;
  // Windowed retraining: when > 0, train on only the most recent
  // `max_observations` observations (by cluster-wide logical
  // timestamp). Bounds batch-job cost and sharpens recovery from
  // concept drift — old, contradicted observations age out of the
  // window instead of being averaged in forever. 0 = use the full log.
  int64_t max_observations = 0;
  // Publish the new W into the replicated `user_weights_table` at
  // install (chunked MultiPuts, like the feature table). This is what
  // the PR-3 failover path lazily reads when a crashed node's users
  // remap — without it only online-updated users are recoverable.
  bool persist_user_weights = true;
  std::string user_weights_table = "user_weights";
  // Mode used by MaybeRetrain (the staleness-triggered path) and by
  // callers that delegate the choice. Explicit RetrainNow() /
  // RetrainIncremental() calls ignore it.
  RetrainMode mode = RetrainMode::kFull;
  // Drift thresholds + kAuto escalation for incremental refreshes.
  IncrementalPolicy incremental;
};

struct RetrainReport {
  int32_t new_version = 0;
  size_t observations_used = 0;
  double training_rmse = 0.0;
  size_t warmed_features = 0;
  size_t warmed_predictions = 0;
  // Logged observations the post-swap replay could not apply (e.g. a
  // corrupt entry, or a factor whose dimension no longer matches). The
  // install completes regardless; skipped users keep their retrained
  // prior for the affected observations.
  size_t replay_skipped = 0;
  double wall_millis = 0.0;
  // How this run actually solved (kAuto resolves to one of the others).
  RetrainMode mode_used = RetrainMode::kFull;
  // Incremental runs: items whose factors were re-solved (0 for full).
  size_t items_refreshed = 0;
  // Drift-check outcome that drove the decision (kIncremental/kAuto).
  size_t drift_candidates = 0;
  double drift_fraction = 0.0;
  // True when kAuto escalated past incremental to a full retrain.
  bool escalated = false;
};

// Cumulative scheduler counters surfaced as `retrain.*` metrics.
struct RetrainSchedulerStats {
  uint64_t full_retrains = 0;
  uint64_t incremental_retrains = 0;
  uint64_t auto_escalations = 0;
  uint64_t items_refreshed = 0;
  uint64_t last_drift_candidates = 0;
  double last_drift_fraction = 0.0;
};

class RetrainScheduler {
 public:
  RetrainScheduler(RetrainSchedulerOptions options, const VeloxModel* model,
                   ModelRegistry* registry, Evaluator* evaluator, JobDriver* driver,
                   StorageCluster* storage, std::vector<NodeComponents> nodes);

  // Retrains iff the evaluator reports staleness, using options.mode;
  // returns whether a retrain ran.
  Result<bool> MaybeRetrain();

  // Unconditional *full* retrain + swap (the paper's batch path).
  Result<RetrainReport> RetrainNow();

  // Unconditional retrain under `mode` (kAuto runs the drift check and
  // picks incremental or full; see RetrainMode).
  Result<RetrainReport> Retrain(RetrainMode mode);

  // Nearline incremental refresh: drift-check, restricted solve over
  // the qualified items, merge, install as a new version.
  // FailedPrecondition when no item qualifies (and `refresh_all` is
  // off) or no version is installed yet. `refresh_all` forces the
  // selection to cover every item in θ and in the log — the
  // bit-identity path pinned against RetrainNow().
  Result<RetrainReport> RetrainIncremental(bool refresh_all = false);

  // Rolls the registry back to `version`, flushing caches and
  // re-seeding user weights from that version's trained W.
  Status Rollback(int32_t version);

  uint64_t retrains_completed() const;
  RetrainSchedulerStats stats() const;

  // Stage-latency sink for drift_check / incremental_solve /
  // install_replay spans (borrowed; may be null => untimed; the first
  // install is never timed). Wire during construction.
  void SetStageRegistry(StageRegistry* stages) { stages_ = stages; }

 private:
  // Installs `output` as the new current version; shared by retrain
  // and bootstrap installs (VeloxServer calls it via InstallVersion).
  // `observations` (may be null) is the log snapshot used for the
  // post-swap user-state replay. `refreshed_items` tells the drift
  // trackers what to forget: the listed items after an incremental
  // refresh, everything when null (full retrain / direct install).
  Result<RetrainReport> InstallOutput(const RetrainOutput& output,
                                      size_t observations_used,
                                      const std::vector<Observation>* observations,
                                      const std::vector<uint64_t>* refreshed_items =
                                          nullptr);
  // Log snapshot (windowed) + warm-start weights export; mu_ held.
  Result<std::vector<Observation>> SnapshotLog() const;
  FactorMap ExportWarmWeights() const;
  // Full / incremental bodies; mu_ held.
  Result<RetrainReport> RunFullLocked();
  Result<RetrainReport> RunIncrementalLocked(bool refresh_all, bool via_auto);
  // Drift check: merged per-node stats -> qualified refresh set.
  DriftSelection CheckDriftLocked() const;
  friend class VeloxServer;

  RetrainSchedulerOptions options_;
  const VeloxModel* model_;
  ModelRegistry* registry_;
  Evaluator* evaluator_;
  JobDriver* driver_;
  StorageCluster* storage_;
  std::vector<NodeComponents> nodes_;
  StageRegistry* stages_ = nullptr;
  mutable std::mutex mu_;
  uint64_t retrains_completed_ = 0;
  // Guards stats_ alone so MetricsReport never blocks behind a running
  // retrain (mu_ is held for the whole batch job).
  mutable std::mutex stats_mu_;
  RetrainSchedulerStats stats_;
};

}  // namespace velox

#endif  // VELOX_CORE_RETRAIN_SCHEDULER_H_
