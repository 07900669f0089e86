#include "core/model.h"

#include <cmath>
#include <mutex>

#include "batch/dataset.h"
#include "common/logging.h"
#include "linalg/ridge.h"

namespace velox {

double VeloxModel::Loss(double label, double predicted, const Item& /*x*/,
                        uint64_t /*uid*/) const {
  double e = label - predicted;
  return 0.5 * e * e;
}

MatrixFactorizationModel::MatrixFactorizationModel(std::string name,
                                                   AlsConfig als_config)
    : name_(std::move(name)), trainer_(TrainerKind::kAls), als_config_(als_config) {
  // Start with an empty materialized table; training installs the real
  // one. Predictions before training return NotFound per item, which
  // the serving tier surfaces.
  auto empty = std::make_shared<const FactorMap>();
  features_ = std::make_shared<MaterializedFeatureFunction>(empty, als_config_.rank);
}

MatrixFactorizationModel::MatrixFactorizationModel(std::string name,
                                                   SgdConfig sgd_config)
    : name_(std::move(name)), trainer_(TrainerKind::kSgd), sgd_config_(sgd_config) {
  // dim() reads als_config_.rank; keep both configs rank-consistent.
  als_config_.rank = sgd_config_.rank;
  als_config_.lambda = sgd_config_.lambda;
  auto empty = std::make_shared<const FactorMap>();
  features_ = std::make_shared<MaterializedFeatureFunction>(empty, sgd_config_.rank);
}

std::shared_ptr<const FeatureFunction> MatrixFactorizationModel::features() const {
  return features_;
}

void MatrixFactorizationModel::InstallItemFactors(
    std::shared_ptr<const FactorMap> item_factors) {
  VELOX_CHECK(item_factors != nullptr);
  features_ =
      std::make_shared<MaterializedFeatureFunction>(std::move(item_factors),
                                                    als_config_.rank);
}

Result<RetrainOutput> MatrixFactorizationModel::Retrain(
    BatchExecutor* executor, const std::vector<Observation>& observations,
    const FactorMap& current_user_weights) const {
  MfModel warm;
  warm.rank = als_config_.rank;
  warm.lambda = als_config_.lambda;
  MfModel trained;
  RetrainOutput out;
  if (trainer_ == TrainerKind::kAls) {
    AlsTrainer trainer(als_config_);
    VELOX_ASSIGN_OR_RETURN(trained, trainer.TrainWarmStart(executor, observations, warm,
                                                           &out.training_rmse));
  } else {
    warm.user_factors = current_user_weights;
    SgdTrainer trainer(sgd_config_);
    VELOX_ASSIGN_OR_RETURN(trained, trainer.TrainWarmStart(observations, warm));
    out.training_rmse = MfTrainRmse(trained, observations);
  }
  auto table = std::make_shared<FactorMap>(std::move(trained.item_factors));
  out.features = std::make_shared<MaterializedFeatureFunction>(
      std::shared_ptr<const FactorMap>(table), als_config_.rank);
  out.user_weights = std::move(trained.user_factors);
  return out;
}

ComputationalModel::ComputationalModel(
    std::string name, std::shared_ptr<const FeatureFunction> basis,
    std::shared_ptr<const std::unordered_map<uint64_t, Item>> item_catalog,
    double lambda)
    : name_(std::move(name)),
      basis_(std::move(basis)),
      item_catalog_(std::move(item_catalog)),
      lambda_(lambda) {
  VELOX_CHECK(basis_ != nullptr);
  VELOX_CHECK(item_catalog_ != nullptr);
  VELOX_CHECK_GT(lambda_, 0.0);
}

Result<RetrainOutput> ComputationalModel::Retrain(
    BatchExecutor* executor, const std::vector<Observation>& observations,
    const FactorMap& /*current_user_weights*/) const {
  if (executor == nullptr) return Status::InvalidArgument("executor is null");
  if (observations.empty()) return Status::InvalidArgument("no observations");

  // Group the log by user and ridge-solve each user's weights against
  // the fixed basis — one batch stage, users independent.
  auto data = Dataset<Observation>::Parallelize(executor, observations, 8);
  auto by_user = data.GroupBy<uint64_t>([](const Observation& o) { return o.uid; });

  FactorMap weights;
  std::mutex mu;
  double total_sq = 0.0;
  size_t total_n = 0;
  std::vector<std::function<void()>> tasks;
  Status first_error;
  for (size_t p = 0; p < by_user.num_partitions(); ++p) {
    tasks.push_back([&, p] {
      FactorMap local;
      double local_sq = 0.0;
      size_t local_n = 0;
      for (const auto& [uid, group] : by_user.partition(p)) {
        RidgeAccumulator acc(basis_->dim());
        std::vector<std::pair<DenseVector, double>> examples;
        examples.reserve(group.size());
        for (const Observation& obs : group) {
          auto item_it = item_catalog_->find(obs.item_id);
          if (item_it == item_catalog_->end()) continue;
          auto feats = basis_->Features(item_it->second);
          if (!feats.ok()) continue;
          acc.AddExample(feats.value(), obs.label);
          examples.emplace_back(std::move(feats).value(), obs.label);
        }
        if (acc.num_examples() == 0) continue;
        auto solved = acc.Solve(lambda_);
        if (!solved.ok()) {
          std::lock_guard<std::mutex> lock(mu);
          if (first_error.ok()) first_error = solved.status();
          continue;
        }
        for (const auto& [f, y] : examples) {
          double e = y - Dot(solved.value(), f);
          local_sq += e * e;
          ++local_n;
        }
        local[uid] = std::move(solved).value();
      }
      std::lock_guard<std::mutex> lock(mu);
      for (auto& [k, v] : local) weights[k] = std::move(v);
      total_sq += local_sq;
      total_n += local_n;
    });
  }
  VELOX_RETURN_NOT_OK(executor->RunStage("computational-retrain", std::move(tasks)));
  VELOX_RETURN_NOT_OK(first_error);

  RetrainOutput out;
  out.features = basis_;
  out.user_weights = std::move(weights);
  out.training_rmse =
      total_n == 0 ? 0.0 : std::sqrt(total_sq / static_cast<double>(total_n));
  return out;
}

}  // namespace velox
