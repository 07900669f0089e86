#include "core/retrain_scheduler.h"

#include <algorithm>
#include <optional>
#include <set>
#include <span>
#include <unordered_map>
#include <utility>

#include "common/clock.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "ml/feature_function.h"
#include "storage/storage_client.h"

namespace velox {

namespace {

// Factor-distribution batch size: large enough that the per-message
// header amortizes away, small enough that one MultiPut cannot trip
// the per-op deadline on big tables.
constexpr size_t kDistributeChunk = 256;

// Wraps the model's retrain procedure as a batch job (the "opaque
// Spark UDF" of §4.2).
class RetrainJob final : public BatchJob {
 public:
  RetrainJob(const VeloxModel* model, const std::vector<Observation>* observations,
             const FactorMap* warm_weights)
      : model_(model), observations_(observations), warm_weights_(warm_weights) {}

  std::string name() const override { return "retrain:" + model_->name(); }

  Status Run(BatchExecutor* executor) override {
    auto result = model_->Retrain(executor, *observations_, *warm_weights_);
    VELOX_RETURN_NOT_OK(result.status());
    output_ = std::move(result).value();
    return Status::OK();
  }

  RetrainOutput& output() { return output_; }

 private:
  const VeloxModel* model_;
  const std::vector<Observation>* observations_;
  const FactorMap* warm_weights_;
  RetrainOutput output_;
};

// The nearline counterpart: the restricted solve + merge runs on the
// same batch substrate (and the same executor type) as the full job,
// which is what makes the select-all refresh bit-identical to it.
class IncrementalJob final : public BatchJob {
 public:
  IncrementalJob(const VeloxModel* model, const std::vector<Observation>* observations,
                 const FactorMap* warm_weights, const ModelVersion* previous,
                 const std::vector<uint64_t>* refresh_items)
      : model_(model),
        observations_(observations),
        warm_weights_(warm_weights),
        previous_(previous),
        refresh_items_(refresh_items) {}

  std::string name() const override { return "incremental:" + model_->name(); }

  Status Run(BatchExecutor* executor) override {
    IncrementalTrainer trainer(model_);
    auto result = trainer.Refresh(executor, *observations_, *warm_weights_,
                                  *previous_, *refresh_items_);
    VELOX_RETURN_NOT_OK(result.status());
    output_ = std::move(result).value();
    return Status::OK();
  }

  RetrainOutput& output() { return output_; }

 private:
  const VeloxModel* model_;
  const std::vector<Observation>* observations_;
  const FactorMap* warm_weights_;
  const ModelVersion* previous_;
  const std::vector<uint64_t>* refresh_items_;
  RetrainOutput output_;
};

// One node's share of the post-install replay: its logged observations
// in log order, each resolved to the new θ's factor for its item
// (borrowed from the install's factor map).
struct NodeReplay {
  std::vector<uint64_t> uids;
  std::vector<UserWeightStore::LoggedExample> examples;
};

// The post-install replay as a batch job: node n's observations apply
// to its user state in log order as task n of one stage, so every node
// sees the updates, in the order, of a serial replay of the whole log.
// Each run of one user's consecutive observations goes through one
// ApplyObservationRun.
class ReplayJob final : public BatchJob {
 public:
  ReplayJob(const std::vector<NodeComponents>* nodes, std::vector<NodeReplay> per_node)
      : nodes_(nodes), per_node_(std::move(per_node)), skipped_(per_node_.size(), 0) {}

  std::string name() const override { return "install-replay"; }

  Status Run(BatchExecutor* executor) override {
    std::vector<std::function<void()>> tasks;
    tasks.reserve(per_node_.size());
    for (size_t n = 0; n < per_node_.size(); ++n) {
      if (per_node_[n].uids.empty()) continue;
      tasks.push_back([this, n] {
        UserWeightStore* weights = (*nodes_)[n].weights;
        const NodeReplay& replay = per_node_[n];
        const std::span<const UserWeightStore::LoggedExample> examples(replay.examples);
        for (size_t begin = 0, end = 0; begin < replay.uids.size(); begin = end) {
          end = begin + 1;
          while (end < replay.uids.size() && replay.uids[end] == replay.uids[begin]) ++end;
          // A bad observation (corrupt entry, stale-dimension factor)
          // must not abort the install: at this point the caches are
          // cleared and weights reseeded, so failing here would strand
          // the node half-installed. It is skipped and counted.
          skipped_[n] += weights->ApplyObservationRun(
              replay.uids[begin], examples.subspan(begin, end - begin));
        }
      });
    }
    return executor->RunStage("install-replay", std::move(tasks));
  }

  size_t skipped() const {
    size_t total = 0;
    for (size_t s : skipped_) total += s;
    return total;
  }

 private:
  const std::vector<NodeComponents>* nodes_;
  std::vector<NodeReplay> per_node_;
  std::vector<size_t> skipped_;
};

// Batch publish of a factor table: the driver (node 0) ships `factors`
// into `table` as chunked MultiPuts — one message per storage node per
// chunk instead of one per (key, replica). MultiPut itself writes every
// replica, so reads can still fall back (and hedge) along the whole
// replica list.
Status PublishFactors(StorageCluster* storage, const std::string& table,
                      const FactorMap& factors) {
  StorageClient driver(storage, 0);
  std::vector<std::pair<Key, Value>> chunk;
  chunk.reserve(kDistributeChunk);
  auto flush = [&]() -> Status {
    if (chunk.empty()) return Status::OK();
    std::vector<Status> statuses = driver.MultiPut(table, std::move(chunk));
    chunk.clear();
    for (const Status& s : statuses) VELOX_RETURN_NOT_OK(s);
    return Status::OK();
  };
  for (const auto& [key, factor] : factors) {
    chunk.emplace_back(key, EncodeFactor(factor));
    if (chunk.size() >= kDistributeChunk) VELOX_RETURN_NOT_OK(flush());
  }
  return flush();
}

}  // namespace

const char* RetrainModeName(RetrainMode mode) {
  switch (mode) {
    case RetrainMode::kFull:
      return "full";
    case RetrainMode::kIncremental:
      return "incremental";
    case RetrainMode::kAuto:
      return "auto";
  }
  return "unknown";
}

RetrainScheduler::RetrainScheduler(RetrainSchedulerOptions options,
                                   const VeloxModel* model, ModelRegistry* registry,
                                   Evaluator* evaluator, JobDriver* driver,
                                   StorageCluster* storage,
                                   std::vector<NodeComponents> nodes)
    : options_(options),
      model_(model),
      registry_(registry),
      evaluator_(evaluator),
      driver_(driver),
      storage_(storage),
      nodes_(std::move(nodes)) {
  VELOX_CHECK(model_ != nullptr);
  VELOX_CHECK(registry_ != nullptr);
  VELOX_CHECK(evaluator_ != nullptr);
  VELOX_CHECK(driver_ != nullptr);
  VELOX_CHECK(storage_ != nullptr);
  VELOX_CHECK(!nodes_.empty());
}

Result<bool> RetrainScheduler::MaybeRetrain() {
  if (!evaluator_->IsStale()) return false;
  VELOX_RETURN_NOT_OK(Retrain(options_.mode).status());
  return true;
}

Result<RetrainReport> RetrainScheduler::RetrainNow() {
  return Retrain(RetrainMode::kFull);
}

Result<RetrainReport> RetrainScheduler::Retrain(RetrainMode mode) {
  std::lock_guard<std::mutex> lock(mu_);
  switch (mode) {
    case RetrainMode::kFull:
      return RunFullLocked();
    case RetrainMode::kIncremental:
      return RunIncrementalLocked(/*refresh_all=*/false, /*via_auto=*/false);
    case RetrainMode::kAuto:
      return RunIncrementalLocked(/*refresh_all=*/false, /*via_auto=*/true);
  }
  return Status::InvalidArgument("unknown retrain mode");
}

Result<RetrainReport> RetrainScheduler::RetrainIncremental(bool refresh_all) {
  std::lock_guard<std::mutex> lock(mu_);
  return RunIncrementalLocked(refresh_all, /*via_auto=*/false);
}

Result<std::vector<Observation>> RetrainScheduler::SnapshotLog() const {
  std::vector<Observation> observations = storage_->AllObservations();
  if (observations.empty()) {
    return Status::FailedPrecondition("no observations to retrain on");
  }
  if (options_.max_observations > 0 &&
      static_cast<int64_t>(observations.size()) > options_.max_observations) {
    // Windowed retraining: keep the most recent observations by logical
    // timestamp (shards interleave, so order globally first).
    std::sort(observations.begin(), observations.end(),
              [](const Observation& a, const Observation& b) {
                return a.timestamp < b.timestamp;
              });
    observations.erase(observations.begin(),
                       observations.end() - options_.max_observations);
  }
  return observations;
}

FactorMap RetrainScheduler::ExportWarmWeights() const {
  // Warm-start from the live, online-updated weights across all nodes
  // (§4.2: retraining "depends on the current user weights").
  FactorMap current_weights;
  for (const NodeComponents& node : nodes_) {
    FactorMap shard = node.weights->ExportWeights();
    for (auto& [uid, w] : shard) current_weights[uid] = std::move(w);
  }
  return current_weights;
}

Result<RetrainReport> RetrainScheduler::RunFullLocked() {
  Stopwatch watch;
  VELOX_ASSIGN_OR_RETURN(std::vector<Observation> observations, SnapshotLog());
  FactorMap current_weights;
  if (model_->ReadsWarmUserWeights()) current_weights = ExportWarmWeights();

  RetrainJob job(model_, &observations, &current_weights);
  VELOX_RETURN_NOT_OK(driver_->Submit(&job));

  VELOX_ASSIGN_OR_RETURN(RetrainReport report,
                         InstallOutput(job.output(), observations.size(),
                                       &observations));
  report.wall_millis = watch.ElapsedMillis();
  report.mode_used = RetrainMode::kFull;
  ++retrains_completed_;
  {
    std::lock_guard<std::mutex> stats_lock(stats_mu_);
    ++stats_.full_retrains;
  }
  return report;
}

DriftSelection RetrainScheduler::CheckDriftLocked() const {
  std::vector<const ItemDriftTracker*> trackers;
  trackers.reserve(nodes_.size());
  for (const NodeComponents& node : nodes_) trackers.push_back(node.drift);
  std::vector<ItemDriftStat> merged = MergeDriftSnapshots(trackers);

  size_t catalog_items = 0;
  if (auto current = registry_->Current(); current.ok()) {
    const auto* materialized = dynamic_cast<const MaterializedFeatureFunction*>(
        current.value()->features.get());
    if (materialized != nullptr) catalog_items = materialized->table().size();
  }
  return SelectDriftedItems(merged, options_.incremental, catalog_items);
}

Result<RetrainReport> RetrainScheduler::RunIncrementalLocked(bool refresh_all,
                                                             bool via_auto) {
  Stopwatch watch;
  auto current = registry_->Current();
  if (!current.ok()) {
    // Nothing to merge into yet. kAuto bootstraps with a full retrain;
    // an explicit incremental request is a caller error.
    if (via_auto) {
      VELOX_ASSIGN_OR_RETURN(RetrainReport report, RunFullLocked());
      report.escalated = true;
      std::lock_guard<std::mutex> stats_lock(stats_mu_);
      ++stats_.auto_escalations;
      return report;
    }
    return Status::FailedPrecondition(
        "incremental retrain requires an installed model version");
  }
  VELOX_ASSIGN_OR_RETURN(std::vector<Observation> observations, SnapshotLog());

  StageTimer timer(stages_);
  StageTimer::Scope drift_span(timer, Stage::kDriftCheck);
  DriftSelection selection;
  if (refresh_all) {
    // Bit-identity path: select every item θ or the log mentions, so
    // the restricted solve degenerates to the full computation.
    std::set<uint64_t> all_items;
    if (const auto* materialized = dynamic_cast<const MaterializedFeatureFunction*>(
            current.value()->features.get())) {
      for (const auto& [item_id, factor] : materialized->table()) {
        all_items.insert(item_id);
      }
      selection.catalog_items = materialized->table().size();
    }
    for (const Observation& obs : observations) all_items.insert(obs.item_id);
    selection.items.assign(all_items.begin(), all_items.end());
    selection.candidates = selection.items.size();
    selection.drift_fraction = 1.0;
  } else {
    selection = CheckDriftLocked();
  }
  drift_span.Stop();
  {
    std::lock_guard<std::mutex> stats_lock(stats_mu_);
    stats_.last_drift_candidates = selection.candidates;
    stats_.last_drift_fraction = selection.drift_fraction;
  }

  // Drift-mass staleness: when most of the catalog needs re-solving
  // (or nothing qualifies but a retrain was demanded anyway), the
  // restricted path stops paying for itself — run the batch job.
  if (via_auto &&
      (selection.items.empty() ||
       selection.drift_fraction >= options_.incremental.auto_full_fraction)) {
    VELOX_ASSIGN_OR_RETURN(RetrainReport report, RunFullLocked());
    report.escalated = true;
    report.drift_candidates = selection.candidates;
    report.drift_fraction = selection.drift_fraction;
    std::lock_guard<std::mutex> stats_lock(stats_mu_);
    ++stats_.auto_escalations;
    return report;
  }
  if (selection.items.empty()) {
    return Status::FailedPrecondition("no items crossed the drift threshold");
  }

  FactorMap current_weights = ExportWarmWeights();
  StageTimer::Scope solve_span(timer, Stage::kIncrementalSolve);
  IncrementalJob job(model_, &observations, &current_weights,
                     current.value().get(), &selection.items);
  VELOX_RETURN_NOT_OK(driver_->Submit(&job));
  solve_span.Stop();

  VELOX_ASSIGN_OR_RETURN(RetrainReport report,
                         InstallOutput(job.output(), observations.size(),
                                       &observations, &selection.items));
  report.wall_millis = watch.ElapsedMillis();
  report.mode_used = RetrainMode::kIncremental;
  report.items_refreshed = selection.items.size();
  report.drift_candidates = selection.candidates;
  report.drift_fraction = selection.drift_fraction;
  ++retrains_completed_;
  {
    std::lock_guard<std::mutex> stats_lock(stats_mu_);
    ++stats_.incremental_retrains;
    stats_.items_refreshed += selection.items.size();
  }
  return report;
}

Result<RetrainReport> RetrainScheduler::InstallOutput(
    const RetrainOutput& output, size_t observations_used,
    const std::vector<Observation>* observations,
    const std::vector<uint64_t>* refreshed_items) {
  if (output.features == nullptr) {
    return Status::InvalidArgument("retrain produced no feature function");
  }
  RetrainReport report;
  report.observations_used = observations_used;
  report.training_rmse = output.training_rmse;

  // 1. Capture the warm set *before* the swap (§4.2).
  std::vector<std::vector<uint64_t>> hot_items(nodes_.size());
  std::vector<std::vector<PredictionKey>> hot_predictions(nodes_.size());
  if (options_.warm_caches) {
    for (size_t i = 0; i < nodes_.size(); ++i) {
      hot_items[i] = nodes_[i].feature_cache->HotItems(options_.warm_hot_entries_per_shard);
      hot_predictions[i] =
          nodes_[i].prediction_cache->HotKeys(options_.warm_hot_entries_per_shard);
    }
  }

  // Stage histograms describe a serving system, so the first install —
  // set-up, before any version could serve — is left untimed.
  StageRegistry* install_stages = registry_->Current().ok() ? stages_ : nullptr;

  // 2. Register the new immutable version.
  auto weights_snapshot = std::make_shared<FactorMap>(output.user_weights);
  int32_t version = registry_->Register(
      output.features, std::shared_ptr<const FactorMap>(weights_snapshot),
      output.training_rmse);
  report.new_version = version;

  // 3. Publish the new materialized feature table into distributed
  //    storage (batch output write; charged from the driver, node 0).
  if (options_.distribute_item_features) {
    const auto* materialized =
        dynamic_cast<const MaterializedFeatureFunction*>(output.features.get());
    if (materialized == nullptr) {
      return Status::FailedPrecondition(
          "distribute_item_features requires a materialized feature function");
    }
    std::string table = StrFormat("%s_v%d", options_.feature_table_prefix.c_str(),
                                  version);
    VELOX_RETURN_NOT_OK(storage_->CreateTable(table));
    VELOX_RETURN_NOT_OK(PublishFactors(storage_, table, materialized->table()));
  }

  // 3b. Publish the new W into the replicated user-weights table the
  //     failover recovery path reads, the same way: without this write,
  //     a user who never saw an online update after the swap has no
  //     persisted weights, and a node crash would lose their retrained
  //     vector.
  if (options_.persist_user_weights && !options_.user_weights_table.empty() &&
      !output.user_weights.empty()) {
    VELOX_RETURN_NOT_OK(
        PublishFactors(storage_, options_.user_weights_table, output.user_weights));
  }

  // 4. Swap-time invalidation: the offline phase "invalidates both
  //    prediction and feature caches" (§4.2).
  for (const NodeComponents& node : nodes_) {
    node.feature_cache->Clear();
    node.prediction_cache->Clear();
  }

  // 4b. Drift-stat epoch: refreshed items restart accumulation at zero.
  //     A full retrain (or direct install) re-solved everything, so the
  //     whole tracker resets; an incremental refresh forgets only the
  //     items it actually re-solved — near-threshold drift on the rest
  //     keeps accumulating toward the next refresh.
  for (const NodeComponents& node : nodes_) {
    if (node.drift == nullptr) continue;
    if (refreshed_items != nullptr) {
      node.drift->ResetItems(*refreshed_items);
    } else {
      node.drift->Clear();
    }
  }

  // 5. Re-seed user weights from the new W, placing each user on its
  //    owning node.
  if (nodes_.size() == 1) {
    nodes_[0].weights->ResetForNewVersion(output.user_weights, version);
  } else {
    std::vector<FactorMap> per_node(nodes_.size());
    for (const auto& [uid, w] : output.user_weights) {
      VELOX_ASSIGN_OR_RETURN(NodeId owner, storage_->OwnerOf(uid));
      per_node[static_cast<size_t>(owner)][uid] = w;
    }
    for (size_t i = 0; i < nodes_.size(); ++i) {
      nodes_[i].weights->ResetForNewVersion(per_node[i], version);
    }
  }

  // 5b. Replay the observation log into the online user state: each
  //     w_u becomes the exact Eq. 2 solution over all of the user's
  //     observations under the new θ, with the sufficient statistics
  //     (FᵀF or its inverse) primed for subsequent online updates. The
  //     factors come straight from θ — no cache fill, no storage read —
  //     and each node replays its share of the log as one batch task.
  if (options_.replay_observations && observations != nullptr &&
      output.features->is_materialized()) {
    StageTimer timer(install_stages);
    StageTimer::Scope replay_span(timer, Stage::kInstallReplay);
    std::vector<NodeReplay> per_node(nodes_.size());
    for (NodeReplay& replay : per_node) {
      replay.uids.reserve(observations->size() / nodes_.size() + 1);
      replay.examples.reserve(observations->size() / nodes_.size() + 1);
    }
    std::vector<NodeId> owners;
    if (nodes_.size() > 1) {
      std::vector<Key> uids(observations->size());
      for (size_t i = 0; i < uids.size(); ++i) uids[i] = (*observations)[i].uid;
      VELOX_ASSIGN_OR_RETURN(owners, storage_->OwnerOfEach(uids));
    }
    // Each distinct item's factor, read once; empty when θ lacks it.
    std::unordered_map<uint64_t, std::optional<DenseVector>> factor_of;
    for (size_t i = 0; i < observations->size(); ++i) {
      const Observation& obs = (*observations)[i];
      const size_t node = owners.empty() ? 0 : static_cast<size_t>(owners[i]);
      auto [factor, first] = factor_of.try_emplace(obs.item_id);
      if (first) {
        Item item;
        item.id = obs.item_id;
        auto features = output.features->Features(item);
        if (features.ok()) factor->second = std::move(features).value();
      }
      if (!factor->second.has_value()) {
        ++report.replay_skipped;  // item absent from the new θ
        continue;
      }
      per_node[node].uids.push_back(obs.uid);
      per_node[node].examples.push_back({&*factor->second, obs.label});
    }
    ReplayJob job(&nodes_, std::move(per_node));
    VELOX_RETURN_NOT_OK(driver_->Submit(&job));
    report.replay_skipped += job.skipped();
  }

  // 6. Repopulate caches from the warm set against the new version
  //    (materialized features only: computational features require the
  //    item's raw attributes, which the cache keys do not carry).
  if (options_.warm_caches &&
      (output.features->is_materialized() || options_.distribute_item_features)) {
    auto current = registry_->Current();
    if (current.ok()) {
      for (size_t i = 0; i < nodes_.size(); ++i) {
        PredictionService* ps = nodes_[i].prediction_service;
        if (ps == nullptr) continue;
        // One coalesced MultiGet warms the whole hot set instead of a
        // storage round trip per item.
        report.warmed_features += ps->WarmFeatures(*current.value(), hot_items[i]);
        // Dedup on the exact (uid, item) pair: a 64-bit hash of the
        // pair can collide and silently drop a distinct warm entry.
        std::set<std::pair<uint64_t, uint64_t>> warmed_pairs;
        for (const PredictionKey& key : hot_predictions[i]) {
          if (!warmed_pairs.emplace(key.uid, key.item_id).second) continue;
          Item item;
          item.id = key.item_id;
          if (ps->Predict(key.uid, item).ok()) {
            ++report.warmed_predictions;
          }
        }
      }
    }
  }

  // 7. New quality baseline: mean squared loss of the fresh model.
  evaluator_->ResetBaseline(0.5 * output.training_rmse * output.training_rmse);
  return report;
}

Status RetrainScheduler::Rollback(int32_t version) {
  std::lock_guard<std::mutex> lock(mu_);
  VELOX_RETURN_NOT_OK(registry_->Rollback(version));
  VELOX_ASSIGN_OR_RETURN(std::shared_ptr<const ModelVersion> current,
                         registry_->Current());
  for (const NodeComponents& node : nodes_) {
    node.feature_cache->Clear();
    node.prediction_cache->Clear();
    // Drift accumulated against the rolled-away θ is meaningless now.
    if (node.drift != nullptr) node.drift->Clear();
  }
  if (nodes_.size() == 1) {
    nodes_[0].weights->ResetForNewVersion(*current->trained_user_weights, version);
  } else {
    std::vector<FactorMap> per_node(nodes_.size());
    for (const auto& [uid, w] : *current->trained_user_weights) {
      VELOX_ASSIGN_OR_RETURN(NodeId owner, storage_->OwnerOf(uid));
      per_node[static_cast<size_t>(owner)][uid] = w;
    }
    for (size_t i = 0; i < nodes_.size(); ++i) {
      nodes_[i].weights->ResetForNewVersion(per_node[i], version);
    }
  }
  evaluator_->ResetBaseline(0.5 * current->training_rmse * current->training_rmse);
  return Status::OK();
}

uint64_t RetrainScheduler::retrains_completed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return retrains_completed_;
}

RetrainSchedulerStats RetrainScheduler::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

}  // namespace velox
