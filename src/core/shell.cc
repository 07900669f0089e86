#include "core/shell.h"

#include <sstream>

#include "common/string_util.h"
#include "core/model_snapshot.h"
#include "server/acceptor.h"

namespace velox {

namespace {

Item MakeItem(uint64_t id) {
  Item item;
  item.id = id;
  return item;
}

Result<uint64_t> ParseId(const std::string& s, const char* what) {
  auto parsed = ParseInt64(s);
  if (!parsed.ok() || parsed.value() < 0) {
    return Status::InvalidArgument(StrFormat("invalid %s: '%s'", what, s.c_str()));
  }
  return static_cast<uint64_t>(parsed.value());
}

}  // namespace

VeloxShell::VeloxShell(VeloxServer* server, std::vector<Observation> dataset)
    : server_(server), dataset_(std::move(dataset)) {
  VELOX_CHECK(server_ != nullptr);
}

std::string VeloxShell::HelpText() {
  return
      "commands:\n"
      "  train                       bootstrap from the loaded dataset\n"
      "  predict <uid> <item>        point prediction\n"
      "  topk <uid> <k> [items...]   ranked items (no items = whole catalog)\n"
      "  observe <uid> <item> <y>    feedback + online update\n"
      "  retrain [mode]              force retraining; mode = full (default),\n"
      "                              incremental (drifted items only),\n"
      "                              incremental-all (select every item; bit-\n"
      "                              identical to full), or auto (drift mass\n"
      "                              decides incremental vs full)\n"
      "  maybe-retrain               retrain iff the model is stale\n"
      "  rollback <version>          switch to an older model version\n"
      "  versions                    model version history\n"
      "  report                      quality + cache/network statistics\n"
      "  server                      server-plane admission/queue/shed state\n"
      "  stages                      per-stage latency breakdown\n"
      "  fail <node>                 crash a node (ring remaps to survivors)\n"
      "  recover                     replay user-weight journals (run after train\n"
      "                              when the server was started with durability\n"
      "                              and recover-on-start off)\n"
      "  save <path>                 write a model snapshot\n"
      "  load <path>                 install a model snapshot\n"
      "  help                        this text";
}

Result<std::string> VeloxShell::Execute(const std::string& line) {
  std::vector<std::string> tokens;
  for (const std::string& raw : StrSplit(std::string_view(line), ' ')) {
    std::string token(StripWhitespace(raw));
    if (!token.empty()) tokens.push_back(std::move(token));
  }
  if (tokens.empty()) return std::string();
  const std::string& cmd = tokens[0];
  std::vector<std::string> args(tokens.begin() + 1, tokens.end());

  if (cmd == "help") return HelpText();
  if (cmd == "train") return CmdTrain();
  if (cmd == "predict") return CmdPredict(args);
  if (cmd == "topk") return CmdTopK(args);
  if (cmd == "observe") return CmdObserve(args);
  if (cmd == "retrain") return CmdRetrain(args);
  if (cmd == "maybe-retrain") {
    VELOX_ASSIGN_OR_RETURN(bool did, server_->MaybeRetrain());
    return std::string(did ? "stale -> retrained" : "model healthy, no retrain");
  }
  if (cmd == "rollback") return CmdRollback(args);
  if (cmd == "versions") return CmdVersions();
  if (cmd == "report") return CmdReport();
  if (cmd == "server") {
    if (acceptor_ == nullptr) {
      return std::string("no server plane attached (requests run synchronously)");
    }
    std::string report = acceptor_->Report();
    if (!report.empty() && report.back() == '\n') report.pop_back();
    return report;
  }
  if (cmd == "stages") {
    std::string report = server_->StageReport();
    if (!report.empty() && report.back() == '\n') report.pop_back();
    return report;
  }
  if (cmd == "save") return CmdSave(args);
  if (cmd == "load") return CmdLoad(args);
  if (cmd == "fail") return CmdFail(args);
  if (cmd == "recover") {
    VELOX_ASSIGN_OR_RETURN(VeloxServer::DurabilityRecoveryReport report,
                           server_->RecoverDurability());
    return StrFormat(
        "recovered: snapshot_nodes=%llu covered=%llu replayed=%llu skipped=%llu%s",
        static_cast<unsigned long long>(report.snapshot_restored_nodes),
        static_cast<unsigned long long>(report.snapshot_covered_records),
        static_cast<unsigned long long>(report.replayed_records),
        static_cast<unsigned long long>(report.skipped_records),
        report.clean ? "" : " TORN_TAIL");
  }
  return Status::InvalidArgument("unknown command '" + cmd + "' (try `help`)");
}

Result<std::string> VeloxShell::CmdTrain() {
  if (dataset_.empty()) return Status::FailedPrecondition("no dataset loaded");
  VELOX_RETURN_NOT_OK(server_->Bootstrap(dataset_));
  return StrFormat("trained version %d on %zu ratings", server_->current_version(),
                   dataset_.size());
}

Result<std::string> VeloxShell::CmdPredict(const std::vector<std::string>& args) {
  if (args.size() != 2) return Status::InvalidArgument("usage: predict <uid> <item>");
  VELOX_ASSIGN_OR_RETURN(uint64_t uid, ParseId(args[0], "uid"));
  VELOX_ASSIGN_OR_RETURN(uint64_t item, ParseId(args[1], "item"));
  VELOX_ASSIGN_OR_RETURN(ScoredItem scored, server_->Predict(uid, MakeItem(item)));
  return StrFormat("predict(u%llu, i%llu) = %.4f",
                   static_cast<unsigned long long>(uid),
                   static_cast<unsigned long long>(item), scored.score);
}

Result<std::string> VeloxShell::CmdTopK(const std::vector<std::string>& args) {
  if (args.size() < 2) {
    return Status::InvalidArgument("usage: topk <uid> <k> [items...]");
  }
  VELOX_ASSIGN_OR_RETURN(uint64_t uid, ParseId(args[0], "uid"));
  VELOX_ASSIGN_OR_RETURN(uint64_t k, ParseId(args[1], "k"));
  TopKResult result;
  if (args.size() == 2) {
    VELOX_ASSIGN_OR_RETURN(result, server_->TopKAll(uid, k));
  } else {
    std::vector<Item> candidates;
    for (size_t i = 2; i < args.size(); ++i) {
      VELOX_ASSIGN_OR_RETURN(uint64_t item, ParseId(args[i], "item"));
      candidates.push_back(MakeItem(item));
    }
    VELOX_ASSIGN_OR_RETURN(result, server_->TopK(uid, candidates, k));
  }
  std::ostringstream os;
  os << "top-" << result.items.size() << " for u" << uid << ":";
  for (const ScoredItem& item : result.items) {
    os << " " << item.item_id << "(" << StrFormat("%.3f", item.score) << ")";
  }
  if (result.top_is_exploratory) os << " [exploratory]";
  return os.str();
}

Result<std::string> VeloxShell::CmdObserve(const std::vector<std::string>& args) {
  if (args.size() != 3) {
    return Status::InvalidArgument("usage: observe <uid> <item> <label>");
  }
  VELOX_ASSIGN_OR_RETURN(uint64_t uid, ParseId(args[0], "uid"));
  VELOX_ASSIGN_OR_RETURN(uint64_t item, ParseId(args[1], "item"));
  VELOX_ASSIGN_OR_RETURN(double label, ParseDouble(args[2]));
  VELOX_RETURN_NOT_OK(server_->Observe(uid, MakeItem(item), label));
  return StrFormat("observed u%llu i%llu y=%.2f",
                   static_cast<unsigned long long>(uid),
                   static_cast<unsigned long long>(item), label);
}

Result<std::string> VeloxShell::CmdRetrain(const std::vector<std::string>& args) {
  if (args.size() > 1) {
    return Status::InvalidArgument(
        "usage: retrain [full|incremental|incremental-all|auto]");
  }
  const std::string mode = args.empty() ? "full" : args[0];
  RetrainReport report;
  if (mode == "full") {
    VELOX_ASSIGN_OR_RETURN(report, server_->RetrainNow());
  } else if (mode == "incremental") {
    VELOX_ASSIGN_OR_RETURN(report, server_->RetrainIncremental());
  } else if (mode == "incremental-all") {
    VELOX_ASSIGN_OR_RETURN(report, server_->RetrainIncremental(/*refresh_all=*/true));
  } else if (mode == "auto") {
    VELOX_ASSIGN_OR_RETURN(report, server_->Retrain(RetrainMode::kAuto));
  } else {
    return Status::InvalidArgument(
        "usage: retrain [full|incremental|incremental-all|auto]");
  }
  if (report.mode_used == RetrainMode::kIncremental) {
    return StrFormat(
        "retrained (incremental): version %d refreshed %zu item(s) "
        "(%zu drift candidates, %.1f%% of catalog) over %zu observations "
        "(rmse %.4f)",
        report.new_version, report.items_refreshed, report.drift_candidates,
        100.0 * report.drift_fraction, report.observations_used,
        report.training_rmse);
  }
  return StrFormat("retrained (%s): version %d over %zu observations (rmse %.4f)",
                   report.escalated ? "auto->full" : "full", report.new_version,
                   report.observations_used, report.training_rmse);
}

Result<std::string> VeloxShell::CmdRollback(const std::vector<std::string>& args) {
  if (args.size() != 1) return Status::InvalidArgument("usage: rollback <version>");
  VELOX_ASSIGN_OR_RETURN(uint64_t version, ParseId(args[0], "version"));
  VELOX_RETURN_NOT_OK(server_->Rollback(static_cast<int32_t>(version)));
  return StrFormat("rolled back to version %d", static_cast<int32_t>(version));
}

Result<std::string> VeloxShell::CmdVersions() {
  auto history = server_->VersionHistory();
  if (history.empty()) return std::string("no versions (run `train`)");
  std::ostringstream os;
  for (const auto& v : history) {
    os << "v" << v.version << "  rmse=" << StrFormat("%.4f", v.training_rmse)
       << (v.is_current ? "  *current*" : "") << "\n";
  }
  std::string out = os.str();
  out.pop_back();  // trailing newline
  return out;
}

Result<std::string> VeloxShell::CmdReport() {
  auto quality = server_->QualityReport();
  auto caches = server_->AggregatedCacheStats();
  auto net = server_->NetworkStatistics();
  std::ostringstream os;
  os << "version: " << server_->current_version()
     << "  users: " << server_->TotalUsers() << "\n"
     << "quality: " << (quality.stale ? "STALE" : "healthy")
     << StrFormat("  mean_loss=%.4f  ewma=%.4f  obs=%lld", quality.mean_online_loss,
                  quality.ewma_loss,
                  static_cast<long long>(quality.observations_since_baseline))
     << "\n"
     << StrFormat("caches: feature %.1f%%  prediction %.1f%%",
                  100.0 * caches.feature.HitRate(),
                  100.0 * caches.prediction.HitRate())
     << "\n"
     << StrFormat("network: %.1f%% remote over %llu messages",
                  100.0 * net.RemoteFraction(),
                  static_cast<unsigned long long>(net.local_messages +
                                                  net.remote_messages));
  auto sc = server_->AggregatedStorageStats();
  uint64_t degraded = server_->DegradedCount();
  if (net.dropped_messages > 0 || net.timed_out_messages > 0 || sc.retries > 0 ||
      sc.hedged_reads > 0 || sc.deadline_misses > 0 || sc.partial_writes > 0 ||
      sc.failovers > 0 || degraded > 0) {
    os << "\n"
       << StrFormat(
              "storage faults: dropped=%llu timeouts=%llu retries=%llu "
              "hedged=%llu(won %llu) failovers=%llu deadline_misses=%llu "
              "partial_writes=%llu degraded=%llu",
              static_cast<unsigned long long>(net.dropped_messages),
              static_cast<unsigned long long>(net.timed_out_messages),
              static_cast<unsigned long long>(sc.retries),
              static_cast<unsigned long long>(sc.hedged_reads),
              static_cast<unsigned long long>(sc.hedge_wins),
              static_cast<unsigned long long>(sc.failovers),
              static_cast<unsigned long long>(sc.deadline_misses),
              static_cast<unsigned long long>(sc.partial_writes),
              static_cast<unsigned long long>(degraded));
  }
  auto rs = server_->RetrainStats();
  if (rs.full_retrains + rs.incremental_retrains > 0) {
    os << "\n"
       << StrFormat(
              "retrain: full=%llu incremental=%llu auto_escalations=%llu "
              "items_refreshed=%llu last_drift=%zu(%.1f%%)",
              static_cast<unsigned long long>(rs.full_retrains),
              static_cast<unsigned long long>(rs.incremental_retrains),
              static_cast<unsigned long long>(rs.auto_escalations),
              static_cast<unsigned long long>(rs.items_refreshed),
              static_cast<size_t>(rs.last_drift_candidates),
              100.0 * rs.last_drift_fraction);
  }
  if (!server_->config().durability.dir.empty()) {
    uint64_t wal_records = 0, snapshots = 0, snapshot_failures = 0;
    for (int32_t n = 0; n < server_->config().num_nodes; ++n) {
      if (auto* journal = server_->user_weight_journal(n); journal != nullptr) {
        wal_records += journal->records();
        snapshots += journal->snapshots_written();
        snapshot_failures += journal->snapshot_failures();
      }
    }
    const auto& recovery = server_->durability_recovery();
    os << "\n"
       << StrFormat(
              "durability: policy=%s wal_records=%llu snapshots=%llu "
              "snapshot_failures=%llu "
              "recovered(snapshot=%llu replayed=%llu skipped=%llu%s)",
              WalSyncPolicyName(server_->config().durability.wal.sync),
              static_cast<unsigned long long>(wal_records),
              static_cast<unsigned long long>(snapshots),
              static_cast<unsigned long long>(snapshot_failures),
              static_cast<unsigned long long>(recovery.snapshot_covered_records),
              static_cast<unsigned long long>(recovery.replayed_records),
              static_cast<unsigned long long>(recovery.skipped_records),
              recovery.clean ? "" : " TORN_TAIL");
  }
  return os.str();
}

Result<std::string> VeloxShell::CmdFail(const std::vector<std::string>& args) {
  if (args.size() != 1) return Status::InvalidArgument("usage: fail <node>");
  VELOX_ASSIGN_OR_RETURN(uint64_t node, ParseId(args[0], "node"));
  VELOX_RETURN_NOT_OK(server_->FailNode(static_cast<NodeId>(node)));
  return StrFormat("node %llu failed; ownership remapped to survivors",
                   static_cast<unsigned long long>(node));
}

Result<std::string> VeloxShell::CmdSave(const std::vector<std::string>& args) {
  if (args.size() != 1) return Status::InvalidArgument("usage: save <path>");
  VELOX_ASSIGN_OR_RETURN(std::shared_ptr<const ModelVersion> version,
                         server_->registry()->Current());
  RetrainOutput live;
  live.features = version->features;
  // Snapshot the live serving weights across all nodes.
  for (int32_t n = 0; n < server_->config().num_nodes; ++n) {
    for (auto& [uid, w] : server_->user_weights(n)->ExportWeights()) {
      live.user_weights[uid] = std::move(w);
    }
  }
  live.training_rmse = version->training_rmse;
  ModelSnapshot snapshot =
      ModelSnapshot::FromRetrainOutput(server_->model()->name(), live);
  VELOX_RETURN_NOT_OK(SaveModelSnapshot(snapshot, args[0]));
  return StrFormat("saved %zu item factors + %zu user weights to %s",
                   snapshot.item_factors.size(), snapshot.user_weights.size(),
                   args[0].c_str());
}

Result<std::string> VeloxShell::CmdLoad(const std::vector<std::string>& args) {
  if (args.size() != 1) return Status::InvalidArgument("usage: load <path>");
  VELOX_ASSIGN_OR_RETURN(ModelSnapshot snapshot, LoadModelSnapshot(args[0]));
  VELOX_ASSIGN_OR_RETURN(RetrainOutput output, snapshot.ToRetrainOutput());
  VELOX_ASSIGN_OR_RETURN(int32_t version, server_->InstallVersion(output));
  return StrFormat("installed snapshot '%s' as version %d",
                   snapshot.model_name.c_str(), version);
}

}  // namespace velox
