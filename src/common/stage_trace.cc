#include "common/stage_trace.h"

#include <sstream>

namespace velox {

const char* StageName(Stage stage) {
  switch (stage) {
    case Stage::kUserWeightLookup:
      return "user_weight_lookup";
    case Stage::kPredictionCacheProbe:
      return "prediction_cache_probe";
    case Stage::kFeatureResolveLocal:
      return "feature_resolve_local";
    case Stage::kFeatureResolveRemote:
      return "feature_resolve_remote";
    case Stage::kKernelScore:
      return "kernel_score";
    case Stage::kBanditOrder:
      return "bandit_order";
    case Stage::kOnlineSolve:
      return "online_solve";
    case Stage::kPersist:
      return "persist";
    case Stage::kStorageBackoff:
      return "storage_backoff";
    case Stage::kDegradedServe:
      return "degraded_serve";
    case Stage::kAnnCandidateProbe:
      return "ann_candidate_probe";
    case Stage::kAnnRescore:
      return "ann_rescore";
    case Stage::kQueueWait:
      return "queue_wait";
    case Stage::kAdmission:
      return "admission";
    case Stage::kShed:
      return "shed";
    case Stage::kRecoveryReplay:
      return "recovery_replay";
    case Stage::kDriftCheck:
      return "drift_check";
    case Stage::kIncrementalSolve:
      return "incremental_solve";
    case Stage::kBatchForm:
      return "batch_form";
    case Stage::kBatchExecute:
      return "batch_execute";
    case Stage::kInstallReplay:
      return "install_replay";
    case Stage::kSnapshotCut:
      return "snapshot_cut";
  }
  return "unknown";
}

std::string RenderStageBreakdownJson(const std::function<HistogramData(Stage)>& data) {
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (int s = 0; s < kNumStages; ++s) {
    Stage stage = static_cast<Stage>(s);
    HistogramSnapshot snap = data(stage).Summarize();
    if (snap.count == 0) continue;
    if (!first) os << ", ";
    first = false;
    os << "\"" << StageName(stage) << "\": {\"count\": " << snap.count
       << ", \"mean_us\": " << snap.mean << ", \"p50_us\": " << snap.p50
       << ", \"p95_us\": " << snap.p95 << ", \"p99_us\": " << snap.p99
       << ", \"max_us\": " << snap.max << "}";
  }
  os << "}";
  return os.str();
}

}  // namespace velox
