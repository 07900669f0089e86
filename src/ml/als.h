// Alternating least squares matrix factorization, expressed as a job
// on the batch-compute substrate — the offline training phase of the
// paper's running example (§2: matrix-factorization recommender
// trained periodically "using a large-scale cluster compute framework
// like Spark").
//
// Solves  argmin_{W,X}  λ(||W||² + ||X||²) + Σ_{(u,i)∈Obs} (r_ui − w_uᵀx_i)²
// by alternating ridge solves: fix X, solve every w_u; fix W, solve
// every x_i. Each half-iteration is one batch stage (users/items are
// independent given the other side) over dense, rank-strided factor
// arrays and a CSR view of the ratings built once per Train.
#ifndef VELOX_ML_ALS_H_
#define VELOX_ML_ALS_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "batch/executor.h"
#include "common/result.h"
#include "linalg/kernel_isa.h"
#include "linalg/vector.h"
#include "storage/observation_log.h"

namespace velox {

using FactorMap = std::unordered_map<uint64_t, DenseVector>;

// The output of offline training: user factors W and item factors X
// (X doubles as the materialized feature table θ for serving).
struct MfModel {
  size_t rank = 0;
  double lambda = 0.0;
  FactorMap user_factors;
  FactorMap item_factors;

  // w_uᵀ x_i, or `fallback` when either side is unknown.
  double PredictOr(uint64_t uid, uint64_t item_id, double fallback) const;

  // Mean of all user factor vectors — the paper's new-user bootstrap
  // (§5 "Bootstrapping"). Zero vector if no users.
  DenseVector MeanUserFactor() const;
};

struct AlsConfig {
  size_t rank = 10;
  double lambda = 0.1;
  int iterations = 10;
  uint64_t seed = 42;
  // Stddev of the Gaussian factor initialization.
  double init_stddev = 0.1;
  // Sets the order in which each entity's ratings are accumulated —
  // that of a round-robin split into this many partitions regrouped by
  // key: source partition (rating index % num_partitions), then index —
  // and the most tasks each half-step stage splits into.
  size_t num_partitions = 8;
  // ALS-WR (Zhou et al. 2008): scale each entity's regularizer by its
  // rating count (λ · n_u), so heavily-rated entities are not
  // under-regularized relative to sparse ones. Markedly better
  // held-out error on MovieLens-shaped data.
  bool weighted_regularization = false;
};

class AlsTrainer {
 public:
  explicit AlsTrainer(AlsConfig config);

  // Cold-start training: factors initialized from config.seed.
  Result<MfModel> Train(BatchExecutor* executor,
                        const std::vector<Observation>& ratings) const;

  // Warm-start: begins from `init`'s item factors (the paper's retrain
  // path "depends on the current user weights", §4.2); items absent
  // from `init` get fresh random factors. Users are solved first, so
  // `init`'s user factors never reach the result, and the result holds
  // exactly the users and items that `ratings` names, each map filled
  // in the order `ratings` first names its entities (an install reseeds
  // users in that order). `train_rmse` (optional) receives
  // MfTrainRmse(result, ratings), computed from the trainer's dense
  // factor arrays with the same Dot in rating order.
  Result<MfModel> TrainWarmStart(BatchExecutor* executor,
                                 const std::vector<Observation>& ratings,
                                 const MfModel& init,
                                 double* train_rmse = nullptr) const;

  const AlsConfig& config() const { return config_; }

 private:
  AlsConfig config_;
};

// Examples grouped by the entity being solved, in CSR form: row r's
// examples are positions [offsets[r], offsets[r + 1]) of `other` (a row
// of the fixed side's factor array) and `labels`, in accumulation order.
struct RatingCsr {
  std::vector<size_t> offsets{0};
  std::vector<uint32_t> other;
  std::vector<double> labels;

  size_t rows() const { return offsets.size() - 1; }
};

// Groups examples i = 0..n-1 — row row_of[i] against fixed row
// other_of[i] with label labels[i] — into a CSR of `rows` rows. Each
// row keeps its examples in the order a round-robin split into
// `num_partitions` partitions regrouped by row delivers them: source
// partition (i % num_partitions), then i. 1 keeps example order.
RatingCsr GroupRatings(size_t rows, const std::vector<uint32_t>& row_of,
                       const std::vector<uint32_t>& other_of,
                       const std::vector<double>& labels, size_t num_partitions);

// The ridge half-step that ALS and the nearline item refresh share. For
// every row r of `csr`, solves (Σ f fᵀ + reg·I) x = Σ y f over the row's
// examples in CSR order — f is row `other` of the rank-strided `fixed`
// array, reg is λ, or λ·n under ALS-WR — and writes x to row r of `out`.
// The arithmetic and its order are a RidgeAccumulator's fed the same
// examples and solved, so the results are bit-identical to it; only the
// Gram matrix's lower triangle, which Cholesky reads, is accumulated,
// in 4-wide column blocks, and four rows' systems are solved together
// by CholeskySolveLanes4. Rows split into at most `num_tasks`
// contiguous ranges of about equal rating counts that run as one stage.
// `solved[r]` is 0 where the system is not positive definite (row r of
// `out` is then unspecified), 1 elsewhere.
Status SolveRidgeRows(BatchExecutor* executor, const std::string& stage,
                      const RatingCsr& csr, const double* fixed, size_t rank,
                      double lambda, bool weighted_regularization, size_t num_tasks,
                      double* out, std::vector<uint8_t>* solved);

// One task of SolveRidgeRows: rows [lo, hi) on the calling thread, with
// the kernels built for `isa` (SolveRidgeRows passes BestKernelIsa()),
// writing `out` and solved[lo..hi).
void SolveRidgeRowRange(const RatingCsr& csr, const double* fixed, size_t rank,
                        double lambda, bool weighted_regularization, size_t lo,
                        size_t hi, KernelIsa isa, double* out, uint8_t* solved);

// Training-set RMSE of `model` on `ratings` (unknown entities predicted
// as 0).
double MfTrainRmse(const MfModel& model, const std::vector<Observation>& ratings);

// Deterministic per-entity factor init: depends only on (seed, id), not
// on data order.
DenseVector InitFactor(size_t rank, double stddev, uint64_t seed, uint64_t entity_id);

}  // namespace velox

#endif  // VELOX_ML_ALS_H_
