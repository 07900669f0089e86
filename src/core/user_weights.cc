#include "core/user_weights.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "cluster/router.h"
#include "common/bytes.h"
#include "common/logging.h"
#include "common/string_util.h"

namespace velox {

namespace {

// Snapshot state blob framing (wrapped in the CRC'd snapshot file —
// see storage/snapshot.cc — so this codec only needs structure, not
// integrity).
constexpr uint32_t kStateMagic = 0x56555753;  // "VUWS"
constexpr uint32_t kStateFormat = 1;

enum SolverKind : uint8_t { kSolverNone = 0, kSolverAcc = 1, kSolverSm = 2 };

void PutMatrix(ByteWriter* w, const DenseMatrix& m) {
  w->PutU32(static_cast<uint32_t>(m.rows()));
  w->PutU32(static_cast<uint32_t>(m.cols()));
  for (size_t r = 0; r < m.rows(); ++r) w->PutDoubles(m.RowPtr(r), m.cols());
}

UserWeightWalRecord SeedRecord(uint64_t uid, int32_t model_version,
                               const DenseVector& weights) {
  UserWeightWalRecord record;
  record.kind = UserWeightWalRecord::Kind::kSeed;
  record.uid = uid;
  record.model_version = model_version;
  record.weights = weights;
  return record;
}

// Encoded sizes, for reserving a state image up front.
size_t VectorBytes(size_t n) { return 4 + 8 * n; }
size_t MatrixBytes(const DenseMatrix& m) { return 8 + 8 * m.rows() * m.cols(); }

Result<DenseMatrix> GetMatrix(ByteReader* r) {
  VELOX_ASSIGN_OR_RETURN(uint32_t rows, r->GetU32());
  VELOX_ASSIGN_OR_RETURN(uint32_t cols, r->GetU32());
  // 8 bytes per element; reject corrupt dims before allocating.
  if (static_cast<uint64_t>(rows) * cols * 8 > r->remaining()) {
    return Status::OutOfRange("implausible matrix dimensions");
  }
  DenseMatrix m(rows, cols);
  for (uint32_t i = 0; i < rows; ++i) {
    for (uint32_t j = 0; j < cols; ++j) {
      VELOX_ASSIGN_OR_RETURN(m.At(i, j), r->GetDouble());
    }
  }
  return m;
}

}  // namespace

const char* UpdateStrategyName(UpdateStrategy strategy) {
  switch (strategy) {
    case UpdateStrategy::kNaiveNormalEquations:
      return "naive_normal_equations";
    case UpdateStrategy::kShermanMorrison:
      return "sherman_morrison";
  }
  return "unknown";
}

UserWeightStore::UserWeightStore(UserWeightStoreOptions options,
                                 Bootstrapper* bootstrapper)
    : options_(options), bootstrapper_(bootstrapper) {
  VELOX_CHECK_GT(options_.dim, 0u);
  VELOX_CHECK_GT(options_.lambda, 0.0);
  if (options_.num_stripes == 0) options_.num_stripes = 1;
  stripes_.reserve(options_.num_stripes);
  for (size_t i = 0; i < options_.num_stripes; ++i) {
    stripes_.push_back(std::make_unique<Stripe>());
  }
}

UserWeightStore::Stripe& UserWeightStore::StripeFor(uint64_t uid) const {
  return *stripes_[HashPartitioner::MixHash(uid) % stripes_.size()];
}

std::vector<std::unique_lock<std::mutex>> UserWeightStore::LockAllStripes() const {
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(stripes_.size());
  for (const auto& stripe : stripes_) locks.emplace_back(stripe->mu);
  return locks;
}

template <typename SumChange>
void UserWeightStore::LogInOrder(const UserWeightWalRecord& record, bool journal,
                                 SumChange&& change) {
  std::lock_guard<std::mutex> order(log_order_mu_);
  if (journal) JournalAppend(record);
  if (bootstrapper_ != nullptr) change(*bootstrapper_);
}

UserWeightStore::UserState UserWeightStore::MakeState(const DenseVector& weights,
                                                      int32_t model_version) const {
  UserState state;
  state.weights = weights;
  state.prior = weights;
  state.model_version = model_version;
  // Strategy state (O(d^2) per user) is allocated lazily on the first
  // observation — serving-only users cost O(d), not O(d^2).
  return state;
}

Result<DenseVector> UserWeightStore::GetWeights(uint64_t uid) const {
  Stripe& stripe = StripeFor(uid);
  std::lock_guard<std::mutex> lock(stripe.mu);
  auto it = stripe.users.find(uid);
  if (it == stripe.users.end()) {
    return Status::NotFound("unknown user");
  }
  return it->second.weights;
}

std::optional<DenseVector> UserWeightStore::TryRecover(uint64_t uid) const {
  if (!recovery_) return std::nullopt;
  auto recovered = recovery_(uid);
  if (recovered.has_value() && recovered->dim() != options_.dim) {
    return std::nullopt;  // stale snapshot from an incompatible version
  }
  return recovered;
}

void UserWeightStore::JournalAppend(const UserWeightWalRecord& record) {
  if (journal_ == nullptr) return;
  // An append failure must not take down serving (same policy as the
  // observe path's degraded mode); the journal simply under-covers.
  (void)journal_->Append(record);
}

DenseVector UserWeightStore::GetOrBootstrapWeights(uint64_t uid,
                                                   const DenseVector& bootstrap_weights,
                                                   uint64_t* epoch) {
  Stripe& stripe = StripeFor(uid);
  std::lock_guard<std::mutex> lock(stripe.mu);
  auto it = stripe.users.find(uid);
  if (it != stripe.users.end()) {
    if (epoch != nullptr) *epoch = it->second.epoch;
    return it->second.weights;
  }
  if (epoch != nullptr) *epoch = 0;  // a created user starts at epoch 0
  // Prefer the persisted snapshot (node-failure recovery) over the
  // cold-start mean.
  DenseVector initial;
  if (auto recovered = TryRecover(uid); recovered.has_value()) {
    initial = std::move(*recovered);
  } else {
    VELOX_CHECK_EQ(bootstrap_weights.dim(), options_.dim);
    initial = bootstrap_weights;
  }
  // Journal the creation with the exact vector chosen, so replay never
  // re-consults the recovery fallback or the bootstrap mean.
  stripe.users[uid] = MakeState(initial, 0);
  LogInOrder(SeedRecord(uid, 0, initial), /*journal=*/true,
             [&](Bootstrapper& boot) { boot.OnUserAdded(initial); });
  return initial;
}

bool UserWeightStore::HasUser(uint64_t uid) const {
  Stripe& stripe = StripeFor(uid);
  std::lock_guard<std::mutex> lock(stripe.mu);
  return stripe.users.count(uid) > 0;
}

void UserWeightStore::SeedUser(uint64_t uid, const DenseVector& weights,
                               int32_t model_version) {
  VELOX_CHECK_EQ(weights.dim(), options_.dim);
  (void)SeedUserInternal(uid, weights, model_version, /*journal=*/true);
}

Status UserWeightStore::SeedUserInternal(uint64_t uid, const DenseVector& weights,
                                         int32_t model_version, bool journal) {
  if (weights.dim() != options_.dim) {
    return Status::InvalidArgument("seed weight dimension mismatch");
  }
  Stripe& stripe = StripeFor(uid);
  std::lock_guard<std::mutex> lock(stripe.mu);
  journal = journal && journal_ != nullptr;
  UserWeightWalRecord record;
  if (journal) record = SeedRecord(uid, model_version, weights);
  auto it = stripe.users.find(uid);
  if (it != stripe.users.end()) {
    DenseVector old_weights = std::move(it->second.weights);
    uint64_t old_epoch = it->second.epoch;
    it->second = MakeState(weights, model_version);
    it->second.epoch = old_epoch + 1;
    LogInOrder(record, journal,
               [&](Bootstrapper& boot) { boot.OnUserUpdated(old_weights, weights); });
  } else {
    stripe.users[uid] = MakeState(weights, model_version);
    LogInOrder(record, journal,
               [&](Bootstrapper& boot) { boot.OnUserAdded(weights); });
  }
  return Status::OK();
}

Result<UserWeightStore::UpdateResult> UserWeightStore::ApplyObservation(
    uint64_t uid, const DenseVector& features, double label) {
  return ApplyObservationInternal(uid, features, label, /*journal=*/true,
                                  /*allow_recovery=*/true);
}

DenseVector UserWeightStore::InitialWeights(uint64_t uid, bool allow_recovery) const {
  // Same cold-start source as the predict path (GetOrBootstrapWeights):
  // persisted snapshot first, then the bootstrap mean. Seeding from
  // zero here would give observe-first users a different prior — and a
  // meaningless prediction_before — than predict-first users.
  std::optional<DenseVector> recovered;
  if (allow_recovery) recovered = TryRecover(uid);
  if (recovered.has_value()) return std::move(*recovered);
  if (bootstrapper_ != nullptr) return bootstrapper_->MeanWeights();
  return DenseVector(options_.dim);
}

Status UserWeightStore::UpdateState(UserState& state, const DenseVector& features,
                                    double label) const {
  if (options_.strategy == UpdateStrategy::kNaiveNormalEquations) {
    if (state.acc == nullptr) {
      state.acc = std::make_unique<RidgeAccumulator>(options_.dim);
    }
    state.acc->AddExample(features, label);
    Result<DenseVector> weights = state.acc->SolveWithPrior(options_.lambda, state.prior);
    if (!weights.ok()) return weights.status();
    state.weights = std::move(weights).value();
    return Status::OK();
  }
  if (state.sm == nullptr) {
    state.sm = std::make_unique<ShermanMorrisonSolver>(options_.dim, options_.lambda);
    state.sm->SetPriorMean(state.prior);
  }
  state.sm->AddExample(features, label);
  state.sm->WeightsInto(state.weights.data());
  return Status::OK();
}

UserWeightWalRecord UserWeightStore::ObservationRecord(uint64_t uid,
                                                       const UserState& state,
                                                       const DenseVector& features,
                                                       double label) {
  UserWeightWalRecord record;
  record.kind = UserWeightWalRecord::Kind::kObservationUpdate;
  record.uid = uid;
  record.model_version = state.model_version;
  record.features = features;
  record.label = label;
  return record;
}

Result<UserWeightStore::UpdateResult> UserWeightStore::ApplyObservationInternal(
    uint64_t uid, const DenseVector& features, double label, bool journal,
    bool allow_recovery) {
  if (features.dim() != options_.dim) {
    return Status::InvalidArgument("feature dimension mismatch");
  }
  Stripe& stripe = StripeFor(uid);
  std::lock_guard<std::mutex> lock(stripe.mu);
  auto it = stripe.users.find(uid);
  if (it == stripe.users.end()) {
    // On replay (allow_recovery false) this branch only fires for
    // corrupt logs: every creation is preceded by an explicit kSeed
    // record.
    DenseVector initial = InitialWeights(uid, allow_recovery);
    it = stripe.users.emplace(uid, MakeState(initial, 0)).first;
    LogInOrder(SeedRecord(uid, 0, initial), journal,
               [&](Bootstrapper& boot) { boot.OnUserAdded(initial); });
  }
  UserState& state = it->second;

  UpdateResult result;
  result.prediction_before = Dot(state.weights, features);

  // The pre-update weights, for the bootstrapper's running sum; the
  // solve overwrites state.weights. Per-thread, so no allocation.
  thread_local DenseVector old_weights;
  old_weights = state.weights;
  Status solved = UpdateState(state, features, label);
  // A failed naive solve still journals: its example is already in the
  // accumulator, and replay must add it too. Without a journal there is
  // no record to build.
  journal = journal && journal_ != nullptr;
  UserWeightWalRecord record;
  if (journal) record = ObservationRecord(uid, state, features, label);
  LogInOrder(record, journal, [&](Bootstrapper& boot) {
    if (solved.ok()) boot.OnUserUpdated(old_weights, state.weights);
  });
  VELOX_RETURN_NOT_OK(solved);
  ++state.num_observations;
  ++state.epoch;

  result.new_weights = state.weights;
  result.new_epoch = state.epoch;
  result.num_observations = state.num_observations;
  return result;
}

size_t UserWeightStore::ApplyObservationRun(uint64_t uid,
                                            std::span<const LoggedExample> run) {
  // A wrong-dimension example fails before touching anything, as in
  // ApplyObservation, so one that leads the run creates no user.
  size_t failed = 0;
  while (failed < run.size() && run[failed].features->dim() != options_.dim) ++failed;
  run = run.subspan(failed);
  if (run.empty()) return failed;
  Stripe& stripe = StripeFor(uid);
  std::lock_guard<std::mutex> lock(stripe.mu);
  auto it = stripe.users.find(uid);
  std::optional<DenseVector> created;
  if (it == stripe.users.end()) created = InitialWeights(uid, /*allow_recovery=*/true);
  std::lock_guard<std::mutex> order(log_order_mu_);
  if (created.has_value()) {
    it = stripe.users.emplace(uid, MakeState(*created, 0)).first;
    JournalAppend(SeedRecord(uid, 0, *created));
    if (bootstrapper_ != nullptr) bootstrapper_->OnUserAdded(*created);
  }
  UserState& state = it->second;
  thread_local DenseVector old_weights;
  for (const LoggedExample& example : run) {
    const DenseVector& features = *example.features;
    if (features.dim() != options_.dim) {
      ++failed;
      continue;
    }
    old_weights = state.weights;
    Status solved = UpdateState(state, features, example.label);
    if (journal_ != nullptr) {
      JournalAppend(ObservationRecord(uid, state, features, example.label));
    }
    if (!solved.ok()) {
      ++failed;
      continue;
    }
    if (bootstrapper_ != nullptr) bootstrapper_->OnUserUpdated(old_weights, state.weights);
    ++state.num_observations;
    ++state.epoch;
  }
  return failed;
}

double UserWeightStore::Uncertainty(uint64_t uid, const DenseVector& features) const {
  const DenseVector* one = &features;
  double out = 0.0;
  Uncertainties(uid, {&one, 1}, &out);
  return out;
}

void UserWeightStore::Uncertainties(uint64_t uid,
                                    std::span<const DenseVector* const> features,
                                    double* out) const {
  Stripe& stripe = StripeFor(uid);
  std::lock_guard<std::mutex> lock(stripe.mu);
  auto it = stripe.users.find(uid);
  for (size_t i = 0; i < features.size(); ++i) {
    if (it == stripe.users.end()) {
      // Unknown user: maximal uncertainty under the count proxy.
      out[i] = 1.0;
    } else if (it->second.sm != nullptr) {
      out[i] = it->second.sm->Uncertainty(*features[i]);
    } else if (options_.strategy == UpdateStrategy::kShermanMorrison) {
      // No observations yet: A^{-1} = (1/lambda) I, so the uncertainty
      // is ||f|| / sqrt(lambda) — what a fresh solver would report.
      out[i] = features[i]->Norm2() / std::sqrt(options_.lambda);
    } else {
      out[i] =
          1.0 / std::sqrt(1.0 + static_cast<double>(it->second.num_observations));
    }
  }
}

uint64_t UserWeightStore::Epoch(uint64_t uid) const {
  Stripe& stripe = StripeFor(uid);
  std::lock_guard<std::mutex> lock(stripe.mu);
  auto it = stripe.users.find(uid);
  return it == stripe.users.end() ? 0 : it->second.epoch;
}

int64_t UserWeightStore::NumObservations(uint64_t uid) const {
  Stripe& stripe = StripeFor(uid);
  std::lock_guard<std::mutex> lock(stripe.mu);
  auto it = stripe.users.find(uid);
  return it == stripe.users.end() ? 0 : it->second.num_observations;
}

void UserWeightStore::ResetTable(const UserWeightWalRecord& record, bool journal) {
  // All stripes locked while the reset record is journaled and the
  // bootstrapper reset: the wipe occupies one exact position in the log
  // relative to every other (stripe-locked) mutation, so replay wipes
  // at the same point.
  std::vector<std::unique_lock<std::mutex>> locks = LockAllStripes();
  LogInOrder(record, journal, [](Bootstrapper& boot) { boot.Reset(); });
  for (auto& stripe : stripes_) stripe->users.clear();
}

void UserWeightStore::ResetForNewVersion(const FactorMap& trained_weights,
                                         int32_t model_version) {
  UserWeightWalRecord record;
  record.kind = UserWeightWalRecord::Kind::kVersionReset;
  record.model_version = model_version;
  ResetTable(record, /*journal=*/true);
  for (const auto& [uid, w] : trained_weights) {
    if (w.dim() != options_.dim) continue;  // incompatible snapshot entry
    SeedUser(uid, w, model_version);
  }
}

FactorMap UserWeightStore::ExportWeights() const {
  FactorMap out;
  for (const auto& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe->mu);
    for (const auto& [uid, state] : stripe->users) {
      out[uid] = state.weights;
    }
  }
  return out;
}

size_t UserWeightStore::num_users() const {
  size_t n = 0;
  for (const auto& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe->mu);
    n += stripe->users.size();
  }
  return n;
}

std::vector<uint8_t> UserWeightStore::SerializeStateLocked() const {
  // Sorted by uid: identical state serializes to identical bytes no
  // matter how the hash maps happen to iterate (the crash-recovery
  // tests compare blobs for bit-equality). The image's exact size is
  // summed on the way, so the encoder allocates once.
  std::vector<std::pair<uint64_t, const UserState*>> users;
  DenseVector boot_sum;
  size_t size = 4 + 4 + 4 + 1 + 8 + 1;  // header, user count, bootstrapper flag
  if (bootstrapper_ != nullptr) {
    boot_sum = bootstrapper_->SumWeights();
    size += VectorBytes(boot_sum.dim()) + 8;
  }
  for (const auto& stripe : stripes_) {
    for (const auto& [uid, state] : stripe->users) {
      users.emplace_back(uid, &state);
      size += 8 + 4 + 8 + 8 + VectorBytes(state.weights.dim()) +
              VectorBytes(state.prior.dim()) + 1;
      if (state.acc != nullptr) {
        size += MatrixBytes(state.acc->ftf()) + VectorBytes(state.acc->fty().dim()) + 8;
      } else if (state.sm != nullptr) {
        size += MatrixBytes(state.sm->a_inverse()) + VectorBytes(state.sm->b().dim()) + 8;
      }
    }
  }
  std::sort(users.begin(), users.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  ByteWriter w;
  w.Reserve(size);
  w.PutU32(kStateMagic);
  w.PutU32(kStateFormat);
  w.PutU32(static_cast<uint32_t>(options_.dim));
  w.PutU8(static_cast<uint8_t>(options_.strategy));
  w.PutU64(users.size());
  for (const auto& [uid, state] : users) {
    w.PutU64(uid);
    w.PutU32(static_cast<uint32_t>(state->model_version));
    w.PutU64(state->epoch);
    w.PutI64(state->num_observations);
    w.PutDoubleVector(state->weights.values());
    w.PutDoubleVector(state->prior.values());
    if (state->acc != nullptr) {
      w.PutU8(kSolverAcc);
      PutMatrix(&w, state->acc->ftf());
      w.PutDoubleVector(state->acc->fty().values());
      w.PutI64(state->acc->num_examples());
    } else if (state->sm != nullptr) {
      w.PutU8(kSolverSm);
      PutMatrix(&w, state->sm->a_inverse());
      w.PutDoubleVector(state->sm->b().values());
      w.PutI64(state->sm->num_examples());
    } else {
      w.PutU8(kSolverNone);
    }
  }

  if (bootstrapper_ != nullptr) {
    w.PutU8(1);
    w.PutDoubleVector(boot_sum.values());
    w.PutI64(bootstrapper_->num_users());
  } else {
    w.PutU8(0);
  }
  VELOX_DCHECK(w.size() == size);
  return w.Release();
}

std::vector<uint8_t> UserWeightStore::SerializeState() const {
  std::vector<std::unique_lock<std::mutex>> locks = LockAllStripes();
  return SerializeStateLocked();
}

Status UserWeightStore::RestoreState(const std::vector<uint8_t>& state) {
  ByteReader r(state);
  VELOX_ASSIGN_OR_RETURN(uint32_t magic, r.GetU32());
  if (magic != kStateMagic) {
    return Status::InvalidArgument("not a user-weight state blob (bad magic)");
  }
  VELOX_ASSIGN_OR_RETURN(uint32_t format, r.GetU32());
  if (format != kStateFormat) {
    return Status::Unimplemented(
        StrFormat("unsupported user-weight state format %u", format));
  }
  VELOX_ASSIGN_OR_RETURN(uint32_t dim, r.GetU32());
  if (dim != options_.dim) {
    return Status::InvalidArgument(
        StrFormat("state dim %u != store dim %zu", dim, options_.dim));
  }
  VELOX_ASSIGN_OR_RETURN(uint8_t strategy, r.GetU8());
  if (strategy != static_cast<uint8_t>(options_.strategy)) {
    return Status::InvalidArgument("state strategy != store strategy");
  }

  VELOX_ASSIGN_OR_RETURN(uint64_t count, r.GetU64());
  // Each user consumes well over 32 bytes; reject corrupt counts.
  if (count > r.remaining() / 32) {
    return Status::OutOfRange("implausible user count in state blob");
  }

  // Decode fully before touching live state: a corrupt blob must not
  // leave the store half-restored.
  std::vector<std::pair<uint64_t, UserState>> users;
  users.reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t uid;
    VELOX_ASSIGN_OR_RETURN(uid, r.GetU64());
    UserState state;
    VELOX_ASSIGN_OR_RETURN(uint32_t version, r.GetU32());
    state.model_version = static_cast<int32_t>(version);
    VELOX_ASSIGN_OR_RETURN(state.epoch, r.GetU64());
    VELOX_ASSIGN_OR_RETURN(state.num_observations, r.GetI64());
    std::vector<double> values;
    VELOX_ASSIGN_OR_RETURN(values, r.GetDoubleVector());
    state.weights = DenseVector(std::move(values));
    VELOX_ASSIGN_OR_RETURN(values, r.GetDoubleVector());
    state.prior = DenseVector(std::move(values));
    if (state.weights.dim() != options_.dim || state.prior.dim() != options_.dim) {
      return Status::InvalidArgument("state vector dimension mismatch");
    }
    VELOX_ASSIGN_OR_RETURN(uint8_t solver_kind, r.GetU8());
    switch (solver_kind) {
      case kSolverNone:
        break;
      case kSolverAcc: {
        DenseMatrix ftf;
        VELOX_ASSIGN_OR_RETURN(ftf, GetMatrix(&r));
        VELOX_ASSIGN_OR_RETURN(values, r.GetDoubleVector());
        int64_t n;
        VELOX_ASSIGN_OR_RETURN(n, r.GetI64());
        if (ftf.rows() != options_.dim || ftf.cols() != options_.dim ||
            values.size() != options_.dim) {
          return Status::InvalidArgument("accumulator dimension mismatch");
        }
        state.acc = std::make_unique<RidgeAccumulator>(RidgeAccumulator::FromState(
            std::move(ftf), DenseVector(std::move(values)), n));
        break;
      }
      case kSolverSm: {
        DenseMatrix a_inv;
        VELOX_ASSIGN_OR_RETURN(a_inv, GetMatrix(&r));
        VELOX_ASSIGN_OR_RETURN(values, r.GetDoubleVector());
        int64_t n;
        VELOX_ASSIGN_OR_RETURN(n, r.GetI64());
        if (a_inv.rows() != options_.dim || a_inv.cols() != options_.dim ||
            values.size() != options_.dim) {
          return Status::InvalidArgument("solver dimension mismatch");
        }
        state.sm = std::make_unique<ShermanMorrisonSolver>(
            ShermanMorrisonSolver::FromState(options_.lambda, std::move(a_inv),
                                             DenseVector(std::move(values)), n));
        break;
      }
      default:
        return Status::InvalidArgument("unknown solver kind in state blob");
    }
    users.emplace_back(uid, std::move(state));
  }

  VELOX_ASSIGN_OR_RETURN(uint8_t has_bootstrapper, r.GetU8());
  DenseVector boot_sum;
  int64_t boot_count = 0;
  if (has_bootstrapper != 0) {
    std::vector<double> values;
    VELOX_ASSIGN_OR_RETURN(values, r.GetDoubleVector());
    boot_sum = DenseVector(std::move(values));
    VELOX_ASSIGN_OR_RETURN(boot_count, r.GetI64());
    if (boot_sum.dim() != options_.dim) {
      return Status::InvalidArgument("bootstrapper sum dimension mismatch");
    }
  }
  if (!r.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after user-weight state");
  }

  for (auto& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe->mu);
    stripe->users.clear();
  }
  for (auto& [uid, state] : users) {
    Stripe& stripe = StripeFor(uid);
    std::lock_guard<std::mutex> lock(stripe.mu);
    stripe.users[uid] = std::move(state);
  }
  // Restore the bootstrapper's running sum directly (no per-user
  // OnUserAdded replay: the serialized sum is the bit-exact original).
  if (bootstrapper_ != nullptr && has_bootstrapper != 0) {
    bootstrapper_->RestoreState(std::move(boot_sum), boot_count);
  }
  return Status::OK();
}

Status UserWeightStore::ApplyWalRecord(const UserWeightWalRecord& record) {
  switch (record.kind) {
    case UserWeightWalRecord::Kind::kSeed:
      return SeedUserInternal(record.uid, record.weights, record.model_version,
                              /*journal=*/false);
    case UserWeightWalRecord::Kind::kObservationUpdate: {
      auto result = ApplyObservationInternal(record.uid, record.features, record.label,
                                             /*journal=*/false,
                                             /*allow_recovery=*/false);
      return result.ok() ? Status::OK() : result.status();
    }
    case UserWeightWalRecord::Kind::kVersionReset:
      ResetTable(record, /*journal=*/false);
      return Status::OK();
  }
  return Status::InvalidArgument("unknown wal record kind");
}

Status UserWeightStore::MaybeSnapshot() {
  if (journal_ == nullptr || !journal_->SnapshotDue()) return Status::OK();
  std::vector<uint8_t> state;
  uint64_t cut = 0;
  uint64_t cut_bytes = 0;
  {
    // Exact cut: journal appends happen under stripe locks, so with
    // every stripe held the record count equals the mutations the
    // in-memory image reflects. Observers that crossed the cadence
    // together all queue here; the first one rearms the cadence at its
    // cut, so the others find nothing due and leave.
    StageTimer timer(stages_);
    StageTimer::Scope hold_span(timer, Stage::kSnapshotCut);
    std::vector<std::unique_lock<std::mutex>> locks = LockAllStripes();
    if (!journal_->SnapshotDue()) return Status::OK();
    cut = journal_->records();
    cut_bytes = journal_->bytes();
    journal_->AdvanceSnapshotCadence(cut);
    state = SerializeStateLocked();
  }
  // The write and fsync run with mutators running.
  return journal_->WriteSnapshot(state, cut, cut_bytes);
}

}  // namespace velox
