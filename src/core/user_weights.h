// UserWeightStore: the per-node table of user weight vectors w_u and
// their online-learning sufficient statistics.
//
// Paper §5: W is partitioned by uid and every user's reads/writes are
// node-local; §4.2: online learning "exploits the independence of the
// user weights ... to permit lightweight conflict free per user
// updates". Each user's state is guarded by a striped lock (updates
// for one user never contend with another user's, matching the
// conflict-free claim while staying safe under arbitrary clients).
//
// Two update strategies implement Eq. 2:
//  * kNaiveNormalEquations — maintain (FᵀF, FᵀY), re-solve with
//    Cholesky per observation: O(d²) update + O(d³) solve. This is the
//    paper's "naive implementation" measured in Figure 3.
//  * kShermanMorrison — maintain (FᵀF + λI)^{-1} directly via rank-one
//    updates: O(d²) total, as the paper prescribes for production.
#ifndef VELOX_CORE_USER_WEIGHTS_H_
#define VELOX_CORE_USER_WEIGHTS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/stage_trace.h"
#include "core/bootstrap.h"
#include "linalg/ridge.h"
#include "linalg/sherman_morrison.h"
#include "linalg/vector.h"
#include "ml/als.h"
#include "ml/eval_metrics.h"
#include "storage/snapshot.h"

namespace velox {

enum class UpdateStrategy {
  kNaiveNormalEquations,
  kShermanMorrison,
};

const char* UpdateStrategyName(UpdateStrategy strategy);

struct UserWeightStoreOptions {
  size_t dim = 10;
  double lambda = 0.1;
  UpdateStrategy strategy = UpdateStrategy::kShermanMorrison;
  // Lock stripes for per-user mutual exclusion. Keep <= 63: the
  // snapshot consistency cut and version reset hold every stripe plus
  // the journal's WAL mutex at once, and TSan's deadlock detector
  // tracks at most 64 simultaneously-held locks per thread.
  size_t num_stripes = 32;
};

class UserWeightStore {
 public:
  // Fallback lookup for users missing from memory — e.g., after a node
  // failure remaps a user here, their last persisted weights are
  // fetched from the (replicated) storage tier. Returns nullopt when
  // nothing is recoverable.
  using RecoveryFn = std::function<std::optional<DenseVector>(uint64_t)>;

  // `bootstrapper` (may be null) is kept in sync with every user
  // add/update so new users can start from the mean weight vector.
  UserWeightStore(UserWeightStoreOptions options, Bootstrapper* bootstrapper);

  // Installs the recovery fallback consulted before bootstrapping an
  // unknown user. Not thread-safe against concurrent requests: wire it
  // during server construction.
  void SetRecoveryFunction(RecoveryFn fn) { recovery_ = std::move(fn); }

  // Attaches the durability journal (non-owning; must outlive the
  // store). Once attached, every mutation — seeds, online updates,
  // cold-start creations, version resets — appends one
  // UserWeightWalRecord under the mutated user's stripe lock, in the
  // same critical section as its change to the bootstrapper's running
  // sum, so replaying the journal through ApplyWalRecord reproduces
  // this store's state, sum included, exactly. Wire during server
  // construction, before any mutation.
  void AttachJournal(UserWeightJournal* journal) { journal_ = journal; }
  UserWeightJournal* journal() const { return journal_; }

  // Stage-latency sink for MaybeSnapshot's all-stripe hold
  // (`snapshot_cut`; borrowed, may be null => untimed). Wire during
  // server construction.
  void SetStageRegistry(StageRegistry* stages) { stages_ = stages; }

  // Result of absorbing one observation.
  struct UpdateResult {
    // Prediction with the *pre-update* weights (prequential loss input).
    double prediction_before = 0.0;
    DenseVector new_weights;
    uint64_t new_epoch = 0;
    int64_t num_observations = 0;
  };

  // Current weights; NotFound for unknown users.
  Result<DenseVector> GetWeights(uint64_t uid) const;

  // Current weights, creating the user from `bootstrap_weights` if
  // absent (the §5 cold-start path). `epoch` (optional) receives the
  // user's epoch from the same locked read, so a caller keying a cache
  // by (weights, epoch) never pairs old weights with a newer epoch.
  DenseVector GetOrBootstrapWeights(uint64_t uid, const DenseVector& bootstrap_weights,
                                    uint64_t* epoch = nullptr);

  bool HasUser(uint64_t uid) const;

  // Installs `weights` as the user's state (offline-trained W),
  // resetting online statistics. Tagged with the model version.
  void SeedUser(uint64_t uid, const DenseVector& weights, int32_t model_version);

  // Applies Eq. 2 for one (f, y) example under the configured strategy.
  // Creates the user (from zero weights) if absent.
  Result<UpdateResult> ApplyObservation(uint64_t uid, const DenseVector& features,
                                        double label);

  // One logged (f, y) example of a replayed run.
  struct LoggedExample {
    const DenseVector* features;
    double label;
  };

  // Applies `run` — one user's logged examples, in log order — exactly as
  // that many ApplyObservation calls would: the same state, epochs and
  // counts, one journal record and one bootstrapper update per example
  // (and a seed first if the user is absent), in the same order. It
  // holds the user's stripe lock and the log-order lock once for the
  // whole run and builds no UpdateResult. Returns how many examples
  // failed (each leaves the state as its failed ApplyObservation would).
  size_t ApplyObservationRun(uint64_t uid, std::span<const LoggedExample> run);

  // LinUCB uncertainty sqrt(fᵀ(FᵀF+λI)^{-1}f). Exact under
  // kShermanMorrison; under the naive strategy falls back to the
  // count-based proxy 1/sqrt(1 + n_u) (the inverse is not maintained).
  double Uncertainty(uint64_t uid, const DenseVector& features) const;
  // Uncertainty(uid, *features[i]) into out[i] for every i, under one
  // stripe-lock acquisition (bit-identical: same arithmetic per item).
  void Uncertainties(uint64_t uid, std::span<const DenseVector* const> features,
                     double* out) const;

  // Monotone per-user change counter (prediction-cache keying); 0 for
  // unknown users.
  uint64_t Epoch(uint64_t uid) const;

  int64_t NumObservations(uint64_t uid) const;

  // Drops all users and re-seeds from an offline-trained W (model
  // version swap). Online sufficient statistics reset: they were
  // accumulated against the old θ.
  void ResetForNewVersion(const FactorMap& trained_weights, int32_t model_version);

  // Copy of all current weights (input to warm-started retraining).
  FactorMap ExportWeights() const;

  // --- Durability (storage/snapshot.h) ---

  // Serializes the complete table — weights, priors, epochs,
  // observation counts, strategy sufficient statistics, and the
  // bootstrapper's running mean — into an opaque snapshot blob. Users
  // are emitted sorted by uid, so two stores with identical state
  // produce identical bytes regardless of hash-map iteration order.
  std::vector<uint8_t> SerializeState() const;

  // Replaces the table (and bootstrapper state) with a snapshot blob.
  // Never journals; callers replay the WAL suffix afterwards.
  Status RestoreState(const std::vector<uint8_t>& state);

  // Applies one journal record without re-journaling it: kSeed and
  // kObservationUpdate run the same state machine as SeedUser /
  // ApplyObservation (so sufficient statistics evolve bit-identically),
  // kVersionReset wipes the table. Replay never consults the recovery
  // fallback or storage — records are self-contained.
  Status ApplyWalRecord(const UserWeightWalRecord& record);

  // If a journal is attached and its snapshot interval elapsed, takes
  // an exact cut and persists it. With every stripe lock held it
  // re-checks SnapshotDue(), moves the journal's cadence point to the
  // cut and encodes the image; the locks are then released and the
  // file is written and fsynced on the calling thread. So each cadence
  // crossing is encoded and written once, however many observers cross
  // it together, and a failed write is retried at the next crossing,
  // not on the next call. A non-due call costs SnapshotDue(): an atomic
  // load and the WAL mutex. Call from the observe path.
  Status MaybeSnapshot();

  size_t num_users() const;
  const UserWeightStoreOptions& options() const { return options_; }

 private:
  struct UserState {
    DenseVector weights;
    // Ridge prior mean w₀ — the offline-trained (or bootstrap) weights
    // the user started from; online updates blend data with this prior
    // rather than relearning from zero.
    DenseVector prior;
    int64_t num_observations = 0;
    uint64_t epoch = 0;
    int32_t model_version = 0;
    // Strategy-specific state (only the configured one is populated).
    std::unique_ptr<RidgeAccumulator> acc;
    std::unique_ptr<ShermanMorrisonSolver> sm;
  };

  struct Stripe {
    mutable std::mutex mu;
    std::unordered_map<uint64_t, UserState> users;
  };

  Stripe& StripeFor(uint64_t uid) const;
  // Every stripe lock, in index order (the exact cut and version reset).
  std::vector<std::unique_lock<std::mutex>> LockAllStripes() const;
  // Creates strategy state for a fresh user.
  UserState MakeState(const DenseVector& weights, int32_t model_version) const;
  // Recovery attempt for an absent user; empty optional if none.
  std::optional<DenseVector> TryRecover(uint64_t uid) const;
  // SeedUser body; `journal` false on the WAL replay path.
  Status SeedUserInternal(uint64_t uid, const DenseVector& weights,
                          int32_t model_version, bool journal);
  // ApplyObservation body; `journal` false on the WAL replay path and
  // `allow_recovery` false there too (records are self-contained).
  Result<UpdateResult> ApplyObservationInternal(uint64_t uid,
                                                const DenseVector& features,
                                                double label, bool journal,
                                                bool allow_recovery);
  // A created user's starting weights, as the predict path picks them:
  // the recovery fallback (if allowed), else the bootstrap mean, else
  // zero. Caller holds the user's stripe lock.
  DenseVector InitialWeights(uint64_t uid, bool allow_recovery) const;
  // Eq. 2's update of `state` by one example under the configured
  // strategy. On failure (a naive solve that is not positive definite)
  // the example stays absorbed and the weights keep their old value.
  Status UpdateState(UserState& state, const DenseVector& features, double label) const;
  // The journal record of one observation update.
  static UserWeightWalRecord ObservationRecord(uint64_t uid, const UserState& state,
                                               const DenseVector& features,
                                               double label);
  // Appends to the attached journal if any; mutation proceeds even if
  // the append fails (serving availability over durability), matching
  // the observe path's degraded-mode policy.
  void JournalAppend(const UserWeightWalRecord& record);
  // Journals `record` (if `journal`) and applies `change` to the
  // bootstrapper (if any) as one step under log_order_mu_. Callers hold
  // the mutated user's stripe lock.
  template <typename SumChange>
  void LogInOrder(const UserWeightWalRecord& record, bool journal, SumChange&& change);
  // Version-reset body: wipes the table and the bootstrapper under every
  // stripe lock; `journal` false on the WAL replay path.
  void ResetTable(const UserWeightWalRecord& record, bool journal);
  // SerializeState body; caller holds every stripe lock.
  std::vector<uint8_t> SerializeStateLocked() const;

  UserWeightStoreOptions options_;
  Bootstrapper* bootstrapper_;
  RecoveryFn recovery_;
  UserWeightJournal* journal_ = nullptr;
  StageRegistry* stages_ = nullptr;
  std::vector<std::unique_ptr<Stripe>> stripes_;
  // Orders every mutation's journal append with its change to the
  // bootstrapper's running sum. Mutations on different stripes run
  // concurrently, and floating-point addition does not commute
  // bit-for-bit, so the sum must accumulate in record order for replay
  // to reproduce it. Taken inside a stripe lock, never around one.
  std::mutex log_order_mu_;
};

}  // namespace velox

#endif  // VELOX_CORE_USER_WEIGHTS_H_
