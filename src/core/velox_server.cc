#include "core/velox_server.h"

#include <sys/stat.h>

#include <algorithm>
#include <sstream>
#include <unordered_set>

#include "common/logging.h"
#include "common/string_util.h"

namespace velox {

VeloxServer::VeloxServer(VeloxServerConfig config, std::unique_ptr<VeloxModel> model)
    : config_(config), model_(std::move(model)) {
  VELOX_CHECK(model_ != nullptr);
  VELOX_CHECK_EQ(config_.dim, model_->dim());
  VELOX_CHECK_GT(config_.num_nodes, 0);
  config_.storage.num_nodes = config_.num_nodes;

  size_t scan_threads = config_.topk_scan_threads;
  if (scan_threads == 0) {
    scan_threads = std::min<size_t>(
        std::max<size_t>(1, std::thread::hardware_concurrency()), 8);
  }
  if (scan_threads > 1) scan_pool_ = std::make_unique<ThreadPool>(scan_threads);

  storage_ = std::make_unique<StorageCluster>(config_.storage);
  VELOX_CHECK_OK(storage_->CreateTable(config_.updater.weights_table));

  registry_ = std::make_unique<ModelRegistry>(model_->name());
  // Index construction happens inside Register(), before a version
  // becomes current, so serving never sees a half-built index.
  registry_->SetAnnBuild(config_.ann, scan_pool_.get());
  evaluator_ = std::make_unique<Evaluator>(config_.evaluator);
  driver_ = std::make_unique<JobDriver>(config_.batch_workers);

  if (!config_.bandit_policy.empty()) {
    bandit_ = MakeBanditPolicy(config_.bandit_policy);
    VELOX_CHECK(bandit_ != nullptr)
        << "unknown bandit policy spec: " << config_.bandit_policy;
  }

  // Create the journal directory if it does not exist yet; a genuinely
  // unusable path still fails below when the journal files open.
  if (!config_.durability.dir.empty()) {
    ::mkdir(config_.durability.dir.c_str(), 0755);
  }

  std::vector<NodeComponents> scheduler_nodes;
  for (int32_t n = 0; n < config_.num_nodes; ++n) {
    auto node = std::make_unique<PerNode>();
    node->client =
        std::make_unique<StorageClient>(storage_.get(), n, config_.storage_client);
    node->bootstrapper = std::make_unique<Bootstrapper>(config_.dim);
    if (!config_.durability.dir.empty()) {
      UserWeightJournalOptions jopts;
      jopts.wal_path = StrFormat("%s/user_weights_node%d.wal",
                                 config_.durability.dir.c_str(), n);
      jopts.snapshot_path = StrFormat("%s/user_weights_node%d.snap",
                                      config_.durability.dir.c_str(), n);
      jopts.wal = config_.durability.wal;
      jopts.snapshot_every = config_.durability.snapshot_every;
      auto journal = UserWeightJournal::Open(std::move(jopts));
      VELOX_CHECK_OK(journal.status());
      node->journal = std::move(journal).value();
    }
    UserWeightStoreOptions wopts;
    wopts.dim = config_.dim;
    wopts.lambda = config_.lambda;
    wopts.strategy = config_.update_strategy;
    node->weights =
        std::make_unique<UserWeightStore>(wopts, node->bootstrapper.get());
    node->feature_cache = std::make_unique<FeatureCache>(config_.feature_cache_capacity);
    node->prediction_cache =
        std::make_unique<PredictionCache>(config_.prediction_cache_capacity);

    PredictionServiceOptions popts;
    popts.use_feature_cache = config_.use_feature_cache;
    popts.use_prediction_cache = config_.use_prediction_cache;
    popts.degrade_on_unavailable = config_.degrade_on_unavailable;
    popts.topk_auto_ann_min_rows = config_.topk_auto_ann_min_rows;
    popts.ann_nprobe = config_.ann_nprobe;
    FeatureResolver resolver =
        config_.distribute_item_features
            ? FeatureResolver(node->client.get(),
                              config_.retrain.feature_table_prefix)
            : FeatureResolver();
    node->prediction_service = std::make_unique<PredictionService>(
        popts, registry_.get(), node->weights.get(), node->bootstrapper.get(),
        node->feature_cache.get(), node->prediction_cache.get(), std::move(resolver));
    node->prediction_service->SetScanPool(scan_pool_.get());

    OnlineUpdaterOptions uopts = config_.updater;
    uopts.degrade_on_unavailable = config_.degrade_on_unavailable;
    node->updater = std::make_unique<OnlineUpdater>(
        uopts, model_.get(), registry_.get(), node->weights.get(),
        node->prediction_service.get(), evaluator_.get(), node->client.get());

    node->stages = std::make_unique<StageRegistry>();
    node->prediction_service->SetStageRegistry(node->stages.get());
    node->updater->SetStageRegistry(node->stages.get());
    node->weights->SetStageRegistry(node->stages.get());

    // Nearline drift tracking: every successful observe records its
    // squared prequential error here; the scheduler's drift check
    // merges the per-node snapshots.
    node->drift = std::make_unique<ItemDriftTracker>();
    node->updater->SetDriftTracker(node->drift.get());

    // Node-failure recovery: when a remapped user is absent from this
    // node's memory, fetch their last persisted weights from the
    // (replicated) storage tier.
    StorageClient* client = node->client.get();
    std::string weights_table = config_.updater.weights_table;
    node->weights->SetRecoveryFunction(
        [client, weights_table](uint64_t uid) -> std::optional<DenseVector> {
          auto bytes = client->Get(weights_table, uid);
          if (!bytes.ok()) return std::nullopt;
          auto decoded = DecodeFactor(bytes.value());
          if (!decoded.ok()) return std::nullopt;
          return std::move(decoded).value();
        });

    NodeComponents sn;
    sn.node = n;
    sn.weights = node->weights.get();
    sn.feature_cache = node->feature_cache.get();
    sn.prediction_cache = node->prediction_cache.get();
    sn.prediction_service = node->prediction_service.get();
    sn.client = node->client.get();
    sn.drift = node->drift.get();
    scheduler_nodes.push_back(sn);

    per_node_.push_back(std::move(node));

    rngs_.push_back(std::make_unique<Rng>(config_.seed ^ (0x1000 + static_cast<uint64_t>(n))));
  }

  RetrainSchedulerOptions ropts = config_.retrain;
  ropts.distribute_item_features = config_.distribute_item_features;
  // The scheduler persists the retrained W into the same table the
  // updater writes and the failover recovery function reads.
  ropts.user_weights_table = config_.updater.weights_table;
  scheduler_ = std::make_unique<RetrainScheduler>(
      ropts, model_.get(), registry_.get(), evaluator_.get(), driver_.get(),
      storage_.get(), std::move(scheduler_nodes));
  // Retrain control-plane spans (drift_check/incremental_solve/
  // install_replay) land in node 0's registry — the driver node, where
  // batch jobs are charged.
  scheduler_->SetStageRegistry(per_node_[0]->stages.get());

  if (!config_.durability.dir.empty() && config_.durability.recover_on_start) {
    VELOX_CHECK_OK(RecoverDurability().status());
  }
}

VeloxServer::~VeloxServer() = default;

Status VeloxServer::Bootstrap(const std::vector<Observation>& initial_data) {
  if (initial_data.empty()) {
    return Status::InvalidArgument("bootstrap requires initial observations");
  }
  // Land the initial data in the observation log, placed by uid owner,
  // so future retrains include it; later logical timestamps must come
  // after the historical ones.
  std::vector<Key> uids(initial_data.size());
  int64_t max_ts = 0;
  for (size_t i = 0; i < initial_data.size(); ++i) {
    uids[i] = initial_data[i].uid;
    max_ts = std::max(max_ts, initial_data[i].timestamp);
  }
  VELOX_ASSIGN_OR_RETURN(std::vector<NodeId> owners, storage_->OwnerOfEach(uids));
  std::vector<std::vector<Observation>> per_node(static_cast<size_t>(config_.num_nodes));
  std::vector<size_t> counts(per_node.size());
  for (NodeId owner : owners) ++counts[static_cast<size_t>(owner)];
  for (size_t n = 0; n < per_node.size(); ++n) per_node[n].reserve(counts[n]);
  for (size_t i = 0; i < initial_data.size(); ++i) {
    per_node[static_cast<size_t>(owners[i])].push_back(initial_data[i]);
  }
  for (size_t n = 0; n < per_node.size(); ++n) {
    storage_->observation_log(static_cast<NodeId>(n))->AppendBatch(per_node[n]);
  }
  storage_->AdvanceTimestampTo(max_ts);
  VELOX_RETURN_NOT_OK(scheduler_->RetrainNow().status());
  return Status::OK();
}

Result<int32_t> VeloxServer::InstallVersion(const RetrainOutput& output) {
  // Direct installs skip the log replay: callers provide fully-formed
  // user weights (RetrainNow is the replaying path).
  VELOX_ASSIGN_OR_RETURN(RetrainReport report,
                         scheduler_->InstallOutput(output, 0, nullptr));
  return report.new_version;
}

Result<NodeId> VeloxServer::HomeNode(uint64_t uid) const {
  return storage_->OwnerOf(uid);
}

Result<NodeId> VeloxServer::ServingNode(uint64_t uid, uint64_t approx_payload_bytes) {
  VELOX_ASSIGN_OR_RETURN(NodeId home, HomeNode(uid));
  if (config_.route_by_uid || config_.num_nodes == 1) return home;
  // Unrouted serving: an arbitrary node receives the request and
  // proxies to the user's home node; charge the round trip.
  uint64_t r = request_counter_.fetch_add(1, std::memory_order_relaxed);
  NodeId serving = static_cast<NodeId>(HashPartitioner::MixHash(r) %
                                       static_cast<uint64_t>(config_.num_nodes));
  storage_->network()->Charge(serving, home, approx_payload_bytes);
  storage_->network()->Charge(home, serving, approx_payload_bytes);
  return home;  // execution still happens where the data lives
}

Result<ScoredItem> VeloxServer::Predict(uint64_t uid, const Item& item) {
  VELOX_ASSIGN_OR_RETURN(NodeId node, ServingNode(uid, sizeof(uint64_t) * 2));
  return per_node_[static_cast<size_t>(node)]->prediction_service->Predict(uid, item);
}

Result<std::vector<ScoredItem>> VeloxServer::PredictBatch(
    uint64_t uid, const std::vector<Item>& items) {
  VELOX_ASSIGN_OR_RETURN(NodeId node,
                         ServingNode(uid, sizeof(uint64_t) * (1 + items.size())));
  return per_node_[static_cast<size_t>(node)]->prediction_service->PredictBatch(uid,
                                                                                items);
}

Result<TopKResult> VeloxServer::TopK(uint64_t uid, const std::vector<Item>& candidates,
                                     size_t k) {
  VELOX_ASSIGN_OR_RETURN(NodeId node,
                         ServingNode(uid, sizeof(uint64_t) * (1 + candidates.size())));
  // The node's service serializes only the policy's Rank, the one step
  // that draws from the node's Rng.
  return per_node_[static_cast<size_t>(node)]->prediction_service->TopK(
      uid, candidates, k, bandit_.get(), rngs_[static_cast<size_t>(node)].get());
}

Result<TopKResult> VeloxServer::DegradedTopK(uint64_t uid,
                                             std::span<const uint64_t> item_ids,
                                             size_t k) {
  // Home-node routing without ServingNode: a shed request never enters
  // the serving pipeline, so no proxy traffic is charged.
  VELOX_ASSIGN_OR_RETURN(NodeId node, HomeNode(uid));
  PredictionService* service =
      per_node_[static_cast<size_t>(node)]->prediction_service.get();
  TopKResult result;
  result.model_version = registry_->current_version();
  result.degraded = true;
  // Bounded shed work: examine at most 4k candidates so a degraded
  // answer stays O(k) no matter how large the request's candidate set
  // is (see the header note).
  const size_t examined = std::min(item_ids.size(), 4 * std::max<size_t>(k, 1));
  result.items.reserve(examined);
  for (size_t i = 0; i < examined; ++i) {
    result.items.push_back(service->ShedAnswer(uid, item_ids[i]));
  }
  std::sort(result.items.begin(), result.items.end(),
            [](const ScoredItem& a, const ScoredItem& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.item_id < b.item_id;
            });
  if (result.items.size() > k) result.items.resize(k);
  return result;
}

Result<TopKResult> VeloxServer::TopKAll(uint64_t uid, size_t k,
                                        const PredictionService::ItemFilter& filter,
                                        PredictionService::TopKAllMode mode) {
  VELOX_ASSIGN_OR_RETURN(NodeId node, ServingNode(uid, sizeof(uint64_t) * 2));
  return per_node_[static_cast<size_t>(node)]->prediction_service->TopKAll(uid, k,
                                                                           filter, mode);
}

Status VeloxServer::Observe(uint64_t uid, const Item& item, double label) {
  return ObserveWithProvenance(uid, item, label, /*exploration_sourced=*/false);
}

Status VeloxServer::ObserveWithProvenance(uint64_t uid, const Item& item, double label,
                                          bool exploration_sourced) {
  VELOX_ASSIGN_OR_RETURN(NodeId node, ServingNode(uid, sizeof(uint64_t) * 3));
  VELOX_RETURN_NOT_OK(per_node_[static_cast<size_t>(node)]
                          ->updater->Observe(uid, item, label, exploration_sourced)
                          .status());
  if (config_.auto_retrain_check_every > 0) {
    uint64_t n = observe_counter_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (n % static_cast<uint64_t>(config_.auto_retrain_check_every) == 0) {
      // The check is cheap; the retrain (if staleness fired) runs
      // synchronously on this observer's thread — the batch tier is a
      // shared resource and RetrainScheduler serializes runs anyway.
      VELOX_RETURN_NOT_OK(scheduler_->MaybeRetrain().status());
    }
  }
  return Status::OK();
}

void VeloxServer::WarmReadFeatures(
    const std::vector<std::pair<uint64_t, Item>>& reads) {
  if (reads.size() < 2) return;  // nothing cross-request to coalesce
  auto version = registry_->Current();
  if (!version.ok()) return;  // no model installed: per-request paths error
  // Group the union of items by the uid's home node (the node whose
  // feature cache the serving path will read: under uid routing the
  // serving node IS the home node, and HomeNode charges no proxy
  // traffic, so warming never perturbs the network accounting).
  std::vector<std::vector<Item>> node_items(per_node_.size());
  std::vector<std::unordered_set<uint64_t>> node_seen(per_node_.size());
  for (const auto& [uid, item] : reads) {
    auto home = HomeNode(uid);
    if (!home.ok()) continue;
    auto n = static_cast<size_t>(home.value());
    if (node_seen[n].insert(item.id).second) node_items[n].push_back(item);
  }
  for (size_t n = 0; n < per_node_.size(); ++n) {
    if (node_items[n].size() < 2) continue;  // a single item warms itself
    per_node_[n]->prediction_service->WarmFeatures(*version.value(),
                                                   node_items[n]);
  }
}

std::vector<Status> VeloxServer::ObserveBatch(const std::vector<ObserveOp>& ops) {
  std::vector<Status> out(ops.size(), Status::OK());
  // Open one group-commit window per node journal that two or more ops
  // touch, before any update lands, so each of their WAL appends
  // defers its sync. A window around a single append would only add a
  // group commit (and, under fsync_every_n > 1, an early sync).
  std::vector<NodeId> op_node(ops.size(), NodeId(-1));
  std::vector<size_t> node_ops(per_node_.size(), 0);
  for (size_t i = 0; i < ops.size(); ++i) {
    auto home = HomeNode(ops[i].uid);
    if (!home.ok()) continue;
    op_node[i] = home.value();
    ++node_ops[static_cast<size_t>(home.value())];
  }
  std::vector<bool> open(per_node_.size(), false);
  for (size_t n = 0; n < per_node_.size(); ++n) {
    if (node_ops[n] < 2 || per_node_[n]->journal == nullptr) continue;
    per_node_[n]->journal->BeginGroupCommit();
    open[n] = true;
  }
  for (size_t i = 0; i < ops.size(); ++i) {
    out[i] = ObserveWithProvenance(ops[i].uid, ops[i].item, ops[i].label,
                                   ops[i].exploration_sourced);
  }
  for (size_t n = 0; n < per_node_.size(); ++n) {
    if (!open[n]) continue;
    Status sync = per_node_[n]->journal->EndGroupCommit();
    if (sync.ok()) continue;
    // The window's sync failed: ops acknowledged inside it were never
    // made durable, so their OK statuses are a lie — downgrade them.
    for (size_t i = 0; i < ops.size(); ++i) {
      if (op_node[i] == static_cast<NodeId>(n) && out[i].ok()) out[i] = sync;
    }
  }
  return out;
}

Result<VeloxServer::DurabilityRecoveryReport> VeloxServer::RecoverDurability() {
  if (config_.durability.dir.empty()) {
    return Status::FailedPrecondition("durability is not configured");
  }
  if (durability_recovered_) {
    return Status::FailedPrecondition("durability already recovered");
  }
  durability_recovered_ = true;

  DurabilityRecoveryReport report;
  for (auto& node : per_node_) {
    if (node->journal == nullptr) continue;
    StageTimer timer(node->stages.get());
    StageTimer::Scope span(timer, Stage::kRecoveryReplay);

    UserWeightRecovery recovered = node->journal->TakeRecovered();
    if (!recovered.wal_clean) report.clean = false;
    if (recovered.snapshot_loaded) {
      Status restored = node->weights->RestoreState(recovered.snapshot_state);
      if (!restored.ok()) {
        // A CRC-valid snapshot that the store rejects means the server
        // was reconfigured (dim/strategy) against old journal files —
        // surface it instead of silently serving a partial state.
        return restored;
      }
      ++report.snapshot_restored_nodes;
      report.snapshot_covered_records += recovered.snapshot_covers;
    }
    for (const UserWeightWalRecord& record : recovered.suffix) {
      Status applied = node->weights->ApplyWalRecord(record);
      if (applied.ok()) {
        ++report.replayed_records;
      } else {
        // Incompatible record (e.g. dimension change between runs):
        // skip it rather than abort recovery; the count is surfaced.
        ++report.skipped_records;
      }
    }
    report.skipped_records += recovered.undecodable;

    // Attach only after replay: the replayed records are already in the
    // log and must not be re-journaled.
    node->weights->AttachJournal(node->journal.get());
  }
  last_recovery_ = report;
  return report;
}

Status VeloxServer::FailNode(NodeId node) {
  if (node < 0 || node >= config_.num_nodes) {
    return Status::InvalidArgument("no such node");
  }
  return storage_->FailNode(node);
}

Result<bool> VeloxServer::MaybeRetrain() { return scheduler_->MaybeRetrain(); }

Result<RetrainReport> VeloxServer::RetrainNow() { return scheduler_->RetrainNow(); }

Result<RetrainReport> VeloxServer::Retrain(RetrainMode mode) {
  return scheduler_->Retrain(mode);
}

Result<RetrainReport> VeloxServer::RetrainIncremental(bool refresh_all) {
  return scheduler_->RetrainIncremental(refresh_all);
}

RetrainSchedulerStats VeloxServer::RetrainStats() const {
  return scheduler_->stats();
}

Status VeloxServer::Rollback(int32_t version) { return scheduler_->Rollback(version); }

std::vector<ModelVersionInfo> VeloxServer::VersionHistory() const {
  return registry_->History();
}

EvaluatorReport VeloxServer::QualityReport() const { return evaluator_->Report(); }

std::string VeloxServer::MetricsReport(MetricsRegistry* registry) const {
  MetricsRegistry scratch;
  MetricsRegistry* target = registry != nullptr ? registry : &scratch;
  std::string prefix = "velox." + model_->name() + ".";

  ServerCacheStats caches = AggregatedCacheStats();
  target->GetGauge(prefix + "feature_cache.hit_rate")->Set(caches.feature.HitRate());
  target->GetCounter(prefix + "feature_cache.hits")->Reset();
  target->GetCounter(prefix + "feature_cache.hits")->Increment(caches.feature.hits);
  target->GetCounter(prefix + "feature_cache.misses")->Reset();
  target->GetCounter(prefix + "feature_cache.misses")->Increment(caches.feature.misses);
  target->GetGauge(prefix + "prediction_cache.hit_rate")
      ->Set(caches.prediction.HitRate());
  target->GetGauge(prefix + "prediction_cache.entries")
      ->Set(static_cast<double>(caches.prediction.entries));

  NetworkStats net = storage_->network()->stats();
  target->GetGauge(prefix + "network.remote_fraction")->Set(net.RemoteFraction());
  target->GetCounter(prefix + "network.remote_messages")->Reset();
  target->GetCounter(prefix + "network.remote_messages")
      ->Increment(net.remote_messages);
  target->GetCounter(prefix + "network.local_messages")->Reset();
  target->GetCounter(prefix + "network.local_messages")->Increment(net.local_messages);
  target->GetCounter(prefix + "network.dropped_messages")->Reset();
  target->GetCounter(prefix + "network.dropped_messages")
      ->Increment(net.dropped_messages);
  target->GetCounter(prefix + "network.timed_out_messages")->Reset();
  target->GetCounter(prefix + "network.timed_out_messages")
      ->Increment(net.timed_out_messages);

  // Storage fault handling: how hard the clients had to work, and how
  // often the serving path fell back to a degraded answer.
  StorageClientStats sc = AggregatedStorageStats();
  auto set_counter = [&](const std::string& name, uint64_t v) {
    Counter* c = target->GetCounter(prefix + name);
    c->Reset();
    c->Increment(v);
  };
  set_counter("storage.retries", sc.retries);
  set_counter("storage.hedged_reads", sc.hedged_reads);
  set_counter("storage.hedge_wins", sc.hedge_wins);
  set_counter("storage.deadline_misses", sc.deadline_misses);
  set_counter("storage.failovers", sc.failovers);
  set_counter("storage.partial_writes", sc.partial_writes);
  set_counter("storage.multiget.batches", sc.multiget_batches);
  set_counter("storage.multiget.keys", sc.multiget_keys);
  set_counter("storage.multiget.sub_batches", sc.multiget_sub_batches);
  set_counter("storage.multiget.merged_misses", sc.multiget_merged_misses);
  set_counter("storage.multiput.batches", sc.multiput_batches);
  set_counter("storage.multiput.keys", sc.multiput_keys);
  set_counter("storage.multiput.sub_batches", sc.multiput_sub_batches);
  set_counter("network.batched_messages", net.batched_messages);
  set_counter("network.batched_keys", net.batched_keys);
  target->GetGauge(prefix + "storage.backoff_nanos")
      ->Set(static_cast<double>(sc.backoff_nanos));
  set_counter("storage.degraded", DegradedCount());

  // User-weight durability: journal volume and what the last recovery
  // actually did (snapshot restore vs. WAL replay).
  if (!config_.durability.dir.empty()) {
    uint64_t appends = 0, records = 0, snapshots = 0, snapshot_failures = 0;
    for (const auto& node : per_node_) {
      if (node->journal == nullptr) continue;
      appends += node->journal->appends();
      records += node->journal->records();
      snapshots += node->journal->snapshots_written();
      snapshot_failures += node->journal->snapshot_failures();
    }
    set_counter("wal.appends", appends);
    set_counter("wal.records", records);
    set_counter("wal.snapshots", snapshots);
    set_counter("wal.snapshot_failures", snapshot_failures);
    set_counter("recovery.replayed_records", last_recovery_.replayed_records);
    set_counter("recovery.snapshot_covered", last_recovery_.snapshot_covered_records);
    set_counter("recovery.skipped_records", last_recovery_.skipped_records);
    target->GetGauge(prefix + "recovery.clean")
        ->Set(last_recovery_.clean ? 1.0 : 0.0);
  }

  // ANN candidate path: live candidate-set sizes and whether kAuto
  // currently routes full-catalog topK through the index.
  AnnServeStats ann = AggregatedAnnStats();
  set_counter("ann.queries", ann.queries);
  set_counter("ann.probes", ann.probes);
  set_counter("ann.candidates", ann.candidates);
  set_counter("ann.rescored", ann.rescored);
  double recall_mode = 0.0;
  if (auto current = registry_->Current(); current.ok()) {
    const ModelVersion& v = *current.value();
    recall_mode = (v.ann_index != nullptr && v.item_plane != nullptr &&
                   v.item_plane->num_items() >= config_.topk_auto_ann_min_rows)
                      ? 1.0
                      : 0.0;
  }
  target->GetGauge(prefix + "ann.recall_mode")->Set(recall_mode);

  // Retrain plane: how the model versions are being produced (batch vs
  // nearline incremental) and the live pending drift mass.
  RetrainSchedulerStats rs = scheduler_->stats();
  set_counter("retrain.full_runs", rs.full_retrains);
  set_counter("retrain.incremental_runs", rs.incremental_retrains);
  set_counter("retrain.auto_escalations", rs.auto_escalations);
  set_counter("retrain.items_refreshed", rs.items_refreshed);
  target->GetGauge(prefix + "retrain.drift_candidates")
      ->Set(static_cast<double>(rs.last_drift_candidates));
  target->GetGauge(prefix + "retrain.drift_fraction")->Set(rs.last_drift_fraction);
  int64_t pending_drift = 0;
  for (const auto& node : per_node_) {
    if (node->drift != nullptr) pending_drift += node->drift->total_observations();
  }
  target->GetGauge(prefix + "retrain.pending_drift_observations")
      ->Set(static_cast<double>(pending_drift));

  EvaluatorReport quality = evaluator_->Report();
  target->GetGauge(prefix + "quality.mean_online_loss")->Set(quality.mean_online_loss);
  target->GetGauge(prefix + "quality.ewma_heldout_loss")->Set(quality.ewma_loss);
  target->GetGauge(prefix + "quality.stale")->Set(quality.stale ? 1.0 : 0.0);
  target->GetGauge(prefix + "quality.validation_pool")
      ->Set(static_cast<double>(quality.validation_pool_size));

  target->GetGauge(prefix + "model.version")
      ->Set(static_cast<double>(registry_->current_version()));
  target->GetGauge(prefix + "model.versions_total")
      ->Set(static_cast<double>(registry_->History().size()));
  target->GetGauge(prefix + "users.total")->Set(static_cast<double>(TotalUsers()));

  // Per-stage latency breakdown, merged across nodes. Only stages that
  // saw traffic are published, so reports stay compact.
  for (int s = 0; s < kNumStages; ++s) {
    Stage stage = static_cast<Stage>(s);
    HistogramSnapshot snap = StageData(stage).Summarize();
    if (snap.count == 0) continue;
    std::string sp = prefix + "stage." + StageName(stage) + ".";
    target->GetGauge(sp + "count")->Set(static_cast<double>(snap.count));
    target->GetGauge(sp + "mean_us")->Set(snap.mean);
    target->GetGauge(sp + "p50_us")->Set(snap.p50);
    target->GetGauge(sp + "p95_us")->Set(snap.p95);
    target->GetGauge(sp + "p99_us")->Set(snap.p99);
    target->GetGauge(sp + "max_us")->Set(snap.max);
  }

  return target->Report();
}

HistogramData VeloxServer::StageData(Stage stage) const {
  HistogramData merged;
  for (const auto& node : per_node_) merged.Merge(node->stages->Data(stage));
  return merged;
}

std::string VeloxServer::StageReport() const {
  std::ostringstream os;
  os << "stage breakdown (" << per_node_.size() << " node(s), micros per request)\n";
  bool any = false;
  for (int s = 0; s < kNumStages; ++s) {
    Stage stage = static_cast<Stage>(s);
    HistogramSnapshot snap = StageData(stage).Summarize();
    if (snap.count == 0) continue;
    any = true;
    os << "  " << StageName(stage) << " " << snap.ToString() << "\n";
  }
  if (!any) os << "  (no traced requests yet)\n";
  AnnServeStats ann = AggregatedAnnStats();
  if (ann.queries > 0) {
    os << "  ann: queries=" << ann.queries << " probes=" << ann.probes
       << " candidates=" << ann.candidates << " rescored=" << ann.rescored
       << " (avg " << (ann.rescored / ann.queries) << " rescored/query)\n";
  }
  return os.str();
}

VeloxServer::AnnServeStats VeloxServer::AggregatedAnnStats() const {
  AnnServeStats agg;
  for (const auto& node : per_node_) {
    agg.queries += node->prediction_service->ann_queries();
    agg.probes += node->prediction_service->ann_probes();
    agg.candidates += node->prediction_service->ann_candidates();
    agg.rescored += node->prediction_service->ann_rescored();
  }
  return agg;
}

std::string VeloxServer::StageBreakdownJson() const {
  return RenderStageBreakdownJson([this](Stage stage) { return StageData(stage); });
}

void VeloxServer::ResetStageStats() {
  for (const auto& node : per_node_) node->stages->ResetStats();
}

ServerCacheStats VeloxServer::AggregatedCacheStats() const {
  ServerCacheStats agg;
  for (const auto& node : per_node_) {
    CacheStats f = node->feature_cache->stats();
    agg.feature.hits += f.hits;
    agg.feature.misses += f.misses;
    agg.feature.evictions += f.evictions;
    agg.feature.invalidations += f.invalidations;
    agg.feature.entries += f.entries;
    CacheStats p = node->prediction_cache->stats();
    agg.prediction.hits += p.hits;
    agg.prediction.misses += p.misses;
    agg.prediction.evictions += p.evictions;
    agg.prediction.invalidations += p.invalidations;
    agg.prediction.entries += p.entries;
  }
  return agg;
}

StorageClientStats VeloxServer::AggregatedStorageStats() const {
  StorageClientStats agg;
  for (const auto& node : per_node_) {
    StorageClientStats s = node->client->stats();
    agg.retries += s.retries;
    agg.hedged_reads += s.hedged_reads;
    agg.hedge_wins += s.hedge_wins;
    agg.deadline_misses += s.deadline_misses;
    agg.failovers += s.failovers;
    agg.partial_writes += s.partial_writes;
    agg.backoff_nanos += s.backoff_nanos;
    agg.multiget_batches += s.multiget_batches;
    agg.multiget_keys += s.multiget_keys;
    agg.multiget_sub_batches += s.multiget_sub_batches;
    agg.multiget_merged_misses += s.multiget_merged_misses;
    agg.multiput_batches += s.multiput_batches;
    agg.multiput_keys += s.multiput_keys;
    agg.multiput_sub_batches += s.multiput_sub_batches;
  }
  return agg;
}

uint64_t VeloxServer::DegradedCount() const {
  uint64_t total = 0;
  for (const auto& node : per_node_) {
    total += node->prediction_service->degraded_count();
    total += node->updater->degraded_count();
  }
  return total;
}

void VeloxServer::ResetCacheStats() {
  for (const auto& node : per_node_) {
    node->feature_cache->ResetStats();
    node->prediction_cache->ResetStats();
  }
}

size_t VeloxServer::TotalUsers() const {
  size_t total = 0;
  for (const auto& node : per_node_) total += node->weights->num_users();
  return total;
}

}  // namespace velox
