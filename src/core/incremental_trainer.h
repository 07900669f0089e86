// Nearline incremental retraining (the Lambda-Learner extension to the
// paper's offline/online split, see PAPERS.md).
//
// The paper's hybrid loop leaves item factors θ frozen between full
// batch retrains: new observations reach only the per-user weights
// (Eq. 2) until the next all-or-nothing ALS pass. This module closes
// most of that staleness gap at a fraction of the cost:
//
//  * ItemDriftTracker — per-item observation volume and running squared
//    prequential error accumulated on the Observe path, reset when the
//    item's factor is refreshed. Deliberately *volatile*: drift stats
//    are a scheduling hint, not serving state, so they are not written
//    to the user-weight WAL and reset to zero on restart (the staleness
//    detector and kAuto's full-retrain escalation backstop anything a
//    restart forgets). docs/operations.md documents the contract; a
//    pinned test in tests/core/incremental_trainer_test.cc enforces it.
//
//  * SelectDriftedItems — the refresh policy: an item qualifies when
//    its post-refresh observation count or mean squared error crosses
//    the IncrementalPolicy thresholds.
//
//  * IncrementalTrainer — the nearline solve. A *partial* refresh
//    re-solves each drifted item's factor by ridge regression against
//    the current user weights with the user side FROZEN (x_i =
//    (Σ w_u w_uᵀ + λ_i I)⁻¹ Σ w_u y over the item's logged
//    observations); the refreshed factors are merged into the previous
//    version's θ, W is inherited unchanged, and the result is a
//    complete RetrainOutput the normal ModelRegistry install pipeline
//    swaps in (plane build, ANN index, factor distribution, WAL
//    version-reset, cache warming all ride along unchanged). Freezing
//    the user side is what keeps the refreshed factors in the same
//    basis as the untouched ones — alternating over a restricted
//    sub-log would let its user factors wander from the global basis
//    and make the merged model internally inconsistent.
//
// Bit-identity contract: a refresh whose selection covers every item
// in θ and in the log is not "partial" at all — Refresh detects the
// full cover and runs the model's ordinary batch retrain over the full
// log, so its output is byte-identical to
// RetrainScheduler::RetrainNow() given the same seed. Incremental is
// the same system restricted, never an approximation of it.
#ifndef VELOX_CORE_INCREMENTAL_TRAINER_H_
#define VELOX_CORE_INCREMENTAL_TRAINER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "batch/executor.h"
#include "common/result.h"
#include "core/model.h"
#include "core/model_registry.h"
#include "storage/observation_log.h"

namespace velox {

// Per-item accumulation since the item's factor was last refreshed.
struct ItemDriftStat {
  uint64_t item_id = 0;
  int64_t observations = 0;
  // Σ (y − ŷ_pre)² of prequential predictions against this item.
  double squared_error = 0.0;

  double MeanSquaredError() const {
    return observations > 0 ? squared_error / static_cast<double>(observations)
                            : 0.0;
  }
};

// Thread-safe per-node drift accumulator, updated on the Observe hot
// path (one striped-lock map insert per observation). Volatile by
// design — see the header comment.
class ItemDriftTracker {
 public:
  explicit ItemDriftTracker(size_t num_stripes = 16);

  ItemDriftTracker(const ItemDriftTracker&) = delete;
  ItemDriftTracker& operator=(const ItemDriftTracker&) = delete;

  // Accumulates one observation's squared prequential error for `item_id`.
  void Record(uint64_t item_id, double squared_error);

  // All items with nonzero accumulation, sorted by ascending item id
  // (deterministic selection input regardless of map iteration order).
  std::vector<ItemDriftStat> Snapshot() const;

  // Forgets the listed items (their factors were just refreshed).
  void ResetItems(const std::vector<uint64_t>& items);
  // Forgets everything (full retrain / version install).
  void Clear();

  // Observations recorded since the covered items were last reset —
  // the node's pending drift mass.
  int64_t total_observations() const {
    return total_observations_.load(std::memory_order_relaxed);
  }

 private:
  struct Cell {
    int64_t observations = 0;
    double squared_error = 0.0;
  };
  struct Stripe {
    mutable std::mutex mu;
    std::unordered_map<uint64_t, Cell> items;
  };

  Stripe& StripeFor(uint64_t item_id) const;

  std::vector<std::unique_ptr<Stripe>> stripes_;
  std::atomic<int64_t> total_observations_{0};
};

// When is an item's factor due for a nearline refresh, and when has so
// much of the catalog drifted that incremental stops paying for itself?
struct IncrementalPolicy {
  // Volume trigger: refresh after this many post-refresh observations.
  int64_t min_observations = 8;
  // Error trigger: refresh when the mean squared prequential error
  // since the last refresh reaches this (0 = disabled). Guarded by
  // `error_min_count` so one unlucky observation cannot trigger alone.
  double error_threshold = 0.0;
  int64_t error_min_count = 2;
  // kAuto escalation: when the qualified fraction of the catalog
  // reaches this, run a full retrain instead (drift-mass staleness).
  double auto_full_fraction = 0.35;
};

// Outcome of one drift check.
struct DriftSelection {
  // Qualified item ids, sorted ascending.
  std::vector<uint64_t> items;
  // Items with any drift accumulation at all (selection candidates).
  size_t candidates = 0;
  // Items in the current version's θ.
  size_t catalog_items = 0;
  // items.size() / max(catalog_items, 1) — the kAuto staleness signal.
  double drift_fraction = 0.0;
  // Pending observations on the qualified items.
  int64_t drifted_observations = 0;
};

// Applies `policy` to merged drift stats (sorted by item id).
DriftSelection SelectDriftedItems(const std::vector<ItemDriftStat>& stats,
                                  const IncrementalPolicy& policy,
                                  size_t catalog_items);

// Merges the per-node trackers' snapshots into one sorted stat vector.
std::vector<ItemDriftStat> MergeDriftSnapshots(
    const std::vector<const ItemDriftTracker*>& trackers);

class IncrementalTrainer {
 public:
  // `model` is borrowed and must outlive the trainer. Only models whose
  // retrain produces a materialized feature function (the MF family)
  // support incremental refreshes.
  explicit IncrementalTrainer(const VeloxModel* model);

  // Restricted retrain: re-solves each item of `refresh_items` against
  // the frozen user basis (`warm_user_weights`, else `previous`'s
  // trained W) over its logged observations in log order, as one stage
  // of ALS's half-step kernel (SolveRidgeRows), then merges the result
  // into `previous`'s θ; W is inherited. A selection covering every
  // item runs model->Retrain instead (the bit-identity contract). The
  // returned output's training_rmse is recomputed for the *merged*
  // model over the full log, so the evaluator baseline stays comparable
  // to a full retrain.
  Result<RetrainOutput> Refresh(BatchExecutor* executor,
                                const std::vector<Observation>& observations,
                                const FactorMap& warm_user_weights,
                                const ModelVersion& previous,
                                const std::vector<uint64_t>& refresh_items) const;

 private:
  const VeloxModel* model_;
};

}  // namespace velox

#endif  // VELOX_CORE_INCREMENTAL_TRAINER_H_
