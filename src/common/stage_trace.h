// Per-request stage tracing for the serving and update hot paths.
//
// A request-scoped StageTimer accumulates elapsed microseconds per
// pipeline stage on the stack (no allocation, no locks, no clock reads
// when tracing is disabled) and flushes once, at end of request, into a
// StageRegistry — one bounded log-bucketed Histogram per stage. Each
// node owns a registry; VeloxServer merges the per-node HistogramData
// into one cluster-wide breakdown (Clipper-style latency attribution:
// where do the p99 microseconds actually go — caches, feature
// resolution, kernels, the solver, or the WAL?).
#ifndef VELOX_COMMON_STAGE_TRACE_H_
#define VELOX_COMMON_STAGE_TRACE_H_

#include <array>
#include <cstdint>
#include <functional>
#include <string>

#include "common/clock.h"
#include "common/histogram.h"

namespace velox {

// The serving/update pipeline stages. Keep in sync with StageName().
enum class Stage : int {
  kUserWeightLookup = 0,   // per-user weight fetch (incl. bootstrap)
  kPredictionCacheProbe,   // prediction-cache lookup
  kFeatureResolveLocal,    // f(x, θ): cache hit or node-local compute
  kFeatureResolveRemote,   // f(x, θ): fetched from a remote node
  kKernelScore,            // dot products / plane scans
  kBanditOrder,            // bandit policy ranking
  kOnlineSolve,            // per-observation weight update
  kPersist,                // observation WAL append + weight write
  kStorageBackoff,         // simulated retry/hedge waits on storage ops
  kDegradedServe,          // fallback answer after feature resolution failed
  kAnnCandidateProbe,      // IVF centroid ranking + inverted-list gather
  kAnnRescore,             // exact double rescore of ANN candidates
  kQueueWait,              // dispatch-queue residency before a worker ran it
  kAdmission,              // rate-limit + queue admission decision
  kShed,                   // degraded fast-path answer for a shed request
  kRecoveryReplay,         // snapshot restore + WAL replay at (re)start
  kDriftCheck,             // per-item drift merge + refresh-set selection
  kIncrementalSolve,       // frozen-basis re-solve of drifted item factors
  kBatchForm,              // cross-request batch formation (drain + linger)
  kBatchExecute,           // grouped batch execution through the frontend
  kInstallReplay,          // per-node log replay into a new version's user state
  kSnapshotCut,            // snapshot's all-stripe hold: re-check + image encode
};

inline constexpr int kNumStages = 22;

// Short stable identifier used in metrics names and JSON keys.
const char* StageName(Stage stage);

// JSON object keyed by stage name with count/mean/percentiles in
// microseconds, one entry per stage that has samples in `data` — the
// BENCH `stage_breakdown` section, over whichever merged view `data`
// returns.
std::string RenderStageBreakdownJson(const std::function<HistogramData(Stage)>& data);

// Per-node sink: one histogram of per-request microseconds per stage.
class StageRegistry {
 public:
  StageRegistry() = default;

  void Record(Stage stage, double micros) {
    histograms_[static_cast<size_t>(stage)].Record(micros);
  }

  HistogramData Data(Stage stage) const {
    return histograms_[static_cast<size_t>(stage)].Data();
  }
  HistogramSnapshot Snapshot(Stage stage) const {
    return histograms_[static_cast<size_t>(stage)].Snapshot();
  }

  void ResetStats() {
    for (auto& h : histograms_) h.ResetStats();
  }

 private:
  std::array<Histogram, kNumStages> histograms_;
};

// Stack-allocated per-request accumulator. Usage:
//
//   StageTimer timer(stage_registry_);       // null registry => no-op
//   { StageTimer::Scope s(timer, Stage::kKernelScore); ... }
//   timer.Add(Stage::kPersist, micros);      // for hand-measured spans
//   // flushes to the registry on destruction
//
// A stage touched multiple times in one request (e.g. feature resolve
// per candidate in TopK) contributes its total to a single histogram
// sample, so stage histograms stay per-request like the frontend's
// end-to-end latency histogram.
class StageTimer {
 public:
  explicit StageTimer(StageRegistry* registry) : registry_(registry) {
    micros_.fill(0.0);
  }
  ~StageTimer() { Flush(); }

  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

  bool enabled() const { return registry_ != nullptr; }

  void Add(Stage stage, double micros) {
    if (registry_ == nullptr) return;
    micros_[static_cast<size_t>(stage)] += micros;
    touched_[static_cast<size_t>(stage)] = true;
  }

  // Flushes accumulated totals (once; destruction flushes remainder).
  void Flush() {
    if (registry_ == nullptr) return;
    for (size_t i = 0; i < micros_.size(); ++i) {
      if (touched_[i]) registry_->Record(static_cast<Stage>(i), micros_[i]);
      touched_[i] = false;
      micros_[i] = 0.0;
    }
  }

  // RAII span: measures wall time into `stage` of `timer`. Reads the
  // clock only when the timer is enabled.
  class Scope {
   public:
    Scope(StageTimer& timer, Stage stage) : timer_(timer), stage_(stage) {
      if (timer_.enabled()) start_nanos_ = SteadyClock::Default()->NowNanos();
    }
    ~Scope() { Stop(); }

    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    // Ends the span early; later Stop() calls are no-ops. `stage`
    // overrides the charged stage (used when the span's classification
    // is only known at the end, e.g. local vs. remote feature fetch).
    void Stop() { Stop(stage_); }
    void Stop(Stage stage) {
      if (stopped_) return;
      stopped_ = true;
      if (!timer_.enabled()) return;
      const int64_t elapsed = SteadyClock::Default()->NowNanos() - start_nanos_;
      timer_.Add(stage, static_cast<double>(elapsed) / 1e3);
    }

   private:
    StageTimer& timer_;
    Stage stage_;
    int64_t start_nanos_ = 0;
    bool stopped_ = false;
  };

 private:
  StageRegistry* registry_;
  std::array<double, kNumStages> micros_;
  std::array<bool, kNumStages> touched_{};
};

}  // namespace velox

#endif  // VELOX_COMMON_STAGE_TRACE_H_
