// VeloxModel — the paper's Listing 2 interface. A model bundles:
//  * a name and system-assigned version,
//  * shared state θ exposed through a feature function f(x, θ),
//  * a retrain procedure (the "opaque Spark UDF" run offline),
//  * a loss used for quality evaluation and staleness detection.
//
// Two concrete families mirror the paper's examples:
//  * MatrixFactorizationModel — materialized f (item latent-factor
//    lookup), retrained with ALS on the batch substrate;
//  * ComputationalModel — computed f (basis functions / SVM ensemble),
//    whose retrain re-solves all user weights against the fixed basis.
#ifndef VELOX_CORE_MODEL_H_
#define VELOX_CORE_MODEL_H_

#include <memory>
#include <string>
#include <vector>

#include "batch/executor.h"
#include "common/result.h"
#include "ml/als.h"
#include "ml/feature_function.h"
#include "ml/loss.h"
#include "ml/sgd.h"
#include "storage/observation_log.h"

namespace velox {

// What offline (re)training produces: a new θ (wrapped in a feature
// function snapshot) and new user weights W (paper §4.2: "The result of
// offline training are new feature parameters as well as potentially
// updated user weights").
struct RetrainOutput {
  std::shared_ptr<const FeatureFunction> features;
  FactorMap user_weights;
  // Training-set RMSE of the retrained model, recorded as the quality
  // baseline for staleness detection.
  double training_rmse = 0.0;
};

class VeloxModel {
 public:
  virtual ~VeloxModel() = default;

  virtual std::string name() const = 0;
  // Weight/feature dimension d.
  virtual size_t dim() const = 0;
  // The current feature function f(·, θ). Never null after training.
  virtual std::shared_ptr<const FeatureFunction> features() const = 0;

  // Offline (re)training over all observations, warm-started from the
  // current per-user weights. Runs on the batch substrate.
  virtual Result<RetrainOutput> Retrain(BatchExecutor* executor,
                                        const std::vector<Observation>& observations,
                                        const FactorMap& current_user_weights) const = 0;

  // Whether Retrain reads `current_user_weights`. When false, a full
  // retrain passes an empty map instead of exporting every live user.
  virtual bool ReadsWarmUserWeights() const { return true; }

  // Pointwise quality loss (Listing 2's `loss`). Default: squared error.
  virtual double Loss(double label, double predicted, const Item& x,
                      uint64_t uid) const;
};

// Matrix-factorization recommender (the paper's §2 running example).
// Offline training runs either ALS on the batch substrate (default) or
// sequential SGD (the Sparkler-style trainer the paper's related work
// cites) — both warm-started from the current user weights.
class MatrixFactorizationModel final : public VeloxModel {
 public:
  MatrixFactorizationModel(std::string name, AlsConfig als_config);
  // SGD-trained variant.
  MatrixFactorizationModel(std::string name, SgdConfig sgd_config);

  std::string name() const override { return name_; }
  size_t dim() const override { return als_config_.rank; }
  std::shared_ptr<const FeatureFunction> features() const override;

  Result<RetrainOutput> Retrain(BatchExecutor* executor,
                                const std::vector<Observation>& observations,
                                const FactorMap& current_user_weights) const override;
  // SGD starts from the warm user weights; ALS solves users first from
  // the item factors, so they never reach its result.
  bool ReadsWarmUserWeights() const override { return trainer_ == TrainerKind::kSgd; }

  // Installs an already-trained item-factor table as the current θ
  // (used when bootstrapping a server from an offline model).
  void InstallItemFactors(std::shared_ptr<const FactorMap> item_factors);

  const AlsConfig& als_config() const { return als_config_; }

 private:
  enum class TrainerKind { kAls, kSgd };

  std::string name_;
  TrainerKind trainer_ = TrainerKind::kAls;
  AlsConfig als_config_;
  SgdConfig sgd_config_;
  std::shared_ptr<const FeatureFunction> features_;
};

// Personalized linear model over a fixed computational basis (paper §6:
// e.g., "a set of SVMs learned offline and used as the feature
// transformation function"). Retraining keeps θ (the basis) and
// re-solves every user's ridge weights over all their observations.
class ComputationalModel final : public VeloxModel {
 public:
  // `item_catalog` maps item ids to their raw attributes; the batch
  // retrain needs it to featurize logged observations.
  ComputationalModel(std::string name,
                     std::shared_ptr<const FeatureFunction> basis,
                     std::shared_ptr<const std::unordered_map<uint64_t, Item>> item_catalog,
                     double lambda);

  std::string name() const override { return name_; }
  size_t dim() const override { return basis_->dim(); }
  std::shared_ptr<const FeatureFunction> features() const override { return basis_; }

  Result<RetrainOutput> Retrain(BatchExecutor* executor,
                                const std::vector<Observation>& observations,
                                const FactorMap& current_user_weights) const override;
  // Every user is re-solved from the log against the fixed basis.
  bool ReadsWarmUserWeights() const override { return false; }

 private:
  std::string name_;
  std::shared_ptr<const FeatureFunction> basis_;
  std::shared_ptr<const std::unordered_map<uint64_t, Item>> item_catalog_;
  double lambda_;
};

}  // namespace velox

#endif  // VELOX_CORE_MODEL_H_
