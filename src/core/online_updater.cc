#include "core/online_updater.h"

#include "common/logging.h"
#include "core/incremental_trainer.h"

namespace velox {

OnlineUpdater::OnlineUpdater(OnlineUpdaterOptions options, const VeloxModel* model,
                             ModelRegistry* registry, UserWeightStore* weights,
                             PredictionService* prediction_service,
                             Evaluator* evaluator, StorageClient* client)
    : options_(options),
      model_(model),
      registry_(registry),
      weights_(weights),
      prediction_service_(prediction_service),
      evaluator_(evaluator),
      client_(client) {
  VELOX_CHECK(model_ != nullptr);
  VELOX_CHECK(registry_ != nullptr);
  VELOX_CHECK(weights_ != nullptr);
  VELOX_CHECK(prediction_service_ != nullptr);
  VELOX_CHECK(evaluator_ != nullptr);
  VELOX_CHECK_GE(options_.cross_validation_every, 0);
}

Result<ObserveResult> OnlineUpdater::Observe(uint64_t uid, const Item& item,
                                             double label, bool exploration_sourced) {
  StageTimer timer(stages_);
  VELOX_ASSIGN_OR_RETURN(std::shared_ptr<const ModelVersion> version,
                         registry_->Current());
  Result<FeaturePtr> resolved =
      prediction_service_->ResolveFeatures(*version, item, timer);
  if (!resolved.ok()) {
    // Transiently unresolvable features: the weight update is impossible
    // right now, but the observation itself must not be lost — append it
    // to the log (node-local, unaffected by the fault) so offline
    // retraining replays it, and report a degraded success. Definitive
    // errors still fail the observation.
    if (options_.degrade_on_unavailable && client_ != nullptr &&
        resolved.status().IsUnavailable()) {
      StageTimer::Scope span(timer, Stage::kDegradedServe);
      Observation obs;
      obs.uid = uid;
      obs.item_id = item.id;
      obs.label = label;
      obs.timestamp = client_->NextTimestamp();
      ObserveResult result;
      result.log_seq = client_->AppendObservation(obs);
      result.degraded = true;
      degraded_.fetch_add(1, std::memory_order_relaxed);
      return result;
    }
    return resolved.status();
  }
  const DenseVector& features = *resolved.value();

  StageTimer::Scope solve(timer, Stage::kOnlineSolve);
  VELOX_ASSIGN_OR_RETURN(UserWeightStore::UpdateResult update,
                         weights_->ApplyObservation(uid, features, label));
  solve.Stop();
  // Snapshot cadence rides the observe path (the only high-rate
  // mutation source). A due snapshot encodes the table under every
  // stripe lock and writes it out on this thread; a non-due call reads
  // the record count under the WAL mutex, which a group commit holds
  // across its fdatasync. A failed write costs recovery speed (longer
  // WAL replay), never this observation's answer: the journal counts it
  // (wal.snapshot_failures) and the observation is not degraded.
  (void)weights_->MaybeSnapshot();

  ObserveResult result;
  result.prediction_before = update.prediction_before;
  result.loss = model_->Loss(label, update.prediction_before, item, uid);
  result.user_observations = update.num_observations;

  // Drift stats feed the nearline refresh selection: raw squared error
  // (not the halved Loss) so IncrementalPolicy thresholds read in label
  // units. Volatile by design — never journaled (see
  // core/incremental_trainer.h).
  if (drift_ != nullptr) {
    double e = label - update.prediction_before;
    drift_->Record(item.id, e * e);
  }

  evaluator_->RecordOnlineLoss(uid, result.loss);
  int64_t n = observation_counter_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (options_.cross_validation_every > 0 &&
      n % options_.cross_validation_every == 0) {
    // The pre-update prediction never saw this observation, so its loss
    // is a held-out generalization sample.
    evaluator_->RecordHeldOutLoss(uid, result.loss);
  }
  if (exploration_sourced) {
    evaluator_->RecordValidationExample(ValidationExample{uid, item.id, label});
  }

  if (client_ != nullptr) {
    StageTimer::Scope persist(timer, Stage::kPersist);
    Observation obs;
    obs.uid = uid;
    obs.item_id = item.id;
    obs.label = label;
    // Cluster-wide logical timestamp: orders this observation against
    // every other shard's (windowed retraining relies on it).
    obs.timestamp = client_->NextTimestamp();
    result.log_seq = client_->AppendObservation(obs);
    if (options_.persist_weights) {
      Status persisted =
          client_->Put(options_.weights_table, uid, EncodeFactor(update.new_weights));
      if (!persisted.ok()) {
        // The in-memory update already happened and the observation is
        // logged; a transiently-failed persist degrades durability, not
        // correctness (recovery replays the log). Surface it as a
        // degraded success rather than failing the observation.
        if (!options_.degrade_on_unavailable || !persisted.IsUnavailable()) {
          return persisted;
        }
        result.degraded = true;
        degraded_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  return result;
}

}  // namespace velox
