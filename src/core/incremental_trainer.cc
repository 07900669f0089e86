#include "core/incremental_trainer.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "cluster/router.h"
#include "common/logging.h"
#include "ml/als.h"
#include "ml/feature_function.h"

namespace velox {

ItemDriftTracker::ItemDriftTracker(size_t num_stripes) {
  VELOX_CHECK_GT(num_stripes, 0u);
  stripes_.reserve(num_stripes);
  for (size_t i = 0; i < num_stripes; ++i) {
    stripes_.push_back(std::make_unique<Stripe>());
  }
}

ItemDriftTracker::Stripe& ItemDriftTracker::StripeFor(uint64_t item_id) const {
  return *stripes_[HashPartitioner::MixHash(item_id) % stripes_.size()];
}

void ItemDriftTracker::Record(uint64_t item_id, double squared_error) {
  Stripe& stripe = StripeFor(item_id);
  {
    std::lock_guard<std::mutex> lock(stripe.mu);
    Cell& cell = stripe.items[item_id];
    ++cell.observations;
    cell.squared_error += squared_error;
  }
  total_observations_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<ItemDriftStat> ItemDriftTracker::Snapshot() const {
  std::vector<ItemDriftStat> stats;
  for (const auto& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe->mu);
    for (const auto& [item_id, cell] : stripe->items) {
      ItemDriftStat stat;
      stat.item_id = item_id;
      stat.observations = cell.observations;
      stat.squared_error = cell.squared_error;
      stats.push_back(stat);
    }
  }
  std::sort(stats.begin(), stats.end(),
            [](const ItemDriftStat& a, const ItemDriftStat& b) {
              return a.item_id < b.item_id;
            });
  return stats;
}

void ItemDriftTracker::ResetItems(const std::vector<uint64_t>& items) {
  for (uint64_t item_id : items) {
    Stripe& stripe = StripeFor(item_id);
    std::lock_guard<std::mutex> lock(stripe.mu);
    auto it = stripe.items.find(item_id);
    if (it == stripe.items.end()) continue;
    total_observations_.fetch_sub(it->second.observations,
                                  std::memory_order_relaxed);
    stripe.items.erase(it);
  }
}

void ItemDriftTracker::Clear() {
  for (const auto& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe->mu);
    for (const auto& [item_id, cell] : stripe->items) {
      total_observations_.fetch_sub(cell.observations, std::memory_order_relaxed);
    }
    stripe->items.clear();
  }
}

DriftSelection SelectDriftedItems(const std::vector<ItemDriftStat>& stats,
                                  const IncrementalPolicy& policy,
                                  size_t catalog_items) {
  DriftSelection selection;
  selection.candidates = stats.size();
  selection.catalog_items = catalog_items;
  for (const ItemDriftStat& stat : stats) {
    bool volume = policy.min_observations > 0 &&
                  stat.observations >= policy.min_observations;
    bool error = policy.error_threshold > 0.0 &&
                 stat.observations >= policy.error_min_count &&
                 stat.MeanSquaredError() >= policy.error_threshold;
    if (!volume && !error) continue;
    selection.items.push_back(stat.item_id);
    selection.drifted_observations += stat.observations;
  }
  selection.drift_fraction =
      static_cast<double>(selection.items.size()) /
      static_cast<double>(std::max<size_t>(catalog_items, 1));
  return selection;
}

std::vector<ItemDriftStat> MergeDriftSnapshots(
    const std::vector<const ItemDriftTracker*>& trackers) {
  std::unordered_map<uint64_t, ItemDriftStat> merged;
  for (const ItemDriftTracker* tracker : trackers) {
    if (tracker == nullptr) continue;
    for (const ItemDriftStat& stat : tracker->Snapshot()) {
      ItemDriftStat& cell = merged[stat.item_id];
      cell.item_id = stat.item_id;
      cell.observations += stat.observations;
      cell.squared_error += stat.squared_error;
    }
  }
  std::vector<ItemDriftStat> stats;
  stats.reserve(merged.size());
  for (auto& [item_id, stat] : merged) stats.push_back(stat);
  std::sort(stats.begin(), stats.end(),
            [](const ItemDriftStat& a, const ItemDriftStat& b) {
              return a.item_id < b.item_id;
            });
  return stats;
}

IncrementalTrainer::IncrementalTrainer(const VeloxModel* model) : model_(model) {
  VELOX_CHECK(model_ != nullptr);
}

Result<RetrainOutput> IncrementalTrainer::Refresh(
    BatchExecutor* executor, const std::vector<Observation>& observations,
    const FactorMap& warm_user_weights, const ModelVersion& previous,
    const std::vector<uint64_t>& refresh_items) const {
  if (executor == nullptr) return Status::InvalidArgument("executor is null");
  if (refresh_items.empty()) {
    return Status::InvalidArgument("no items selected for incremental refresh");
  }
  const auto* previous_table =
      dynamic_cast<const MaterializedFeatureFunction*>(previous.features.get());
  if (previous_table == nullptr) {
    return Status::FailedPrecondition(
        "incremental retrain requires a materialized feature function");
  }

  // Coverage check: a selection spanning every item θ or the log
  // mentions IS a full retrain — run the model's batch procedure over
  // the full log so the output is byte-identical to RetrainNow's, by
  // construction rather than by re-derivation.
  std::unordered_set<uint64_t> selected(refresh_items.begin(), refresh_items.end());
  bool covers_all = true;
  for (const auto& [item_id, factor] : previous_table->table()) {
    if (selected.count(item_id) == 0) {
      covers_all = false;
      break;
    }
  }
  if (covers_all) {
    for (const Observation& obs : observations) {
      if (selected.count(obs.item_id) == 0) {
        covers_all = false;
        break;
      }
    }
  }
  if (covers_all) {
    return model_->Retrain(executor, observations, warm_user_weights);
  }

  // Partial refresh: frozen-basis item-side solve (the Lambda-Learner
  // nearline update). Each drifted item's factor is re-solved by ridge
  // regression against the CURRENT user weights — x_i = (Σ_u w_u w_uᵀ +
  // λ_i I)⁻¹ Σ_u w_u y — never alternating, because alternating over a
  // restricted sub-log would let its user factors wander from the
  // global basis the unrefreshed θ and the serving-time W live in,
  // making the merged model internally inconsistent (measurably worse
  // than not refreshing at all; bench/ablation_incremental.cc).
  const auto* mf = dynamic_cast<const MatrixFactorizationModel*>(model_);
  if (mf == nullptr) {
    return Status::FailedPrecondition(
        "partial incremental refresh supports matrix-factorization models only");
  }
  const AlsConfig& als = mf->als_config();
  const size_t dim = model_->dim();
  const FactorMap* prior_weights = previous.trained_user_weights.get();
  // The frozen basis: one row per observing user — the live weight,
  // else the previous trained one — numbered on first use. A user with
  // neither (or a wrong-dimension one) has no row, and their
  // observations are skipped.
  std::unordered_map<uint64_t, int64_t> basis_row;
  std::vector<double> basis;
  std::unordered_map<uint64_t, uint32_t> item_row;
  std::vector<uint64_t> item_ids;
  std::vector<uint32_t> example_item;
  std::vector<uint32_t> example_user;
  std::vector<double> example_label;
  for (const Observation& obs : observations) {
    if (selected.count(obs.item_id) == 0) continue;
    auto [b, first_use] = basis_row.try_emplace(obs.uid, -1);
    if (first_use) {
      const DenseVector* w = nullptr;
      if (auto it = warm_user_weights.find(obs.uid); it != warm_user_weights.end()) {
        w = &it->second;
      } else if (prior_weights != nullptr) {
        if (auto it = prior_weights->find(obs.uid); it != prior_weights->end()) {
          w = &it->second;
        }
      }
      if (w != nullptr && w->dim() == dim) {
        b->second = static_cast<int64_t>(basis.size() / dim);
        basis.insert(basis.end(), w->data(), w->data() + dim);
      }
    }
    if (b->second < 0) continue;  // no basis row
    auto [it, new_item] =
        item_row.try_emplace(obs.item_id, static_cast<uint32_t>(item_ids.size()));
    if (new_item) item_ids.push_back(obs.item_id);
    example_item.push_back(it->second);
    example_user.push_back(static_cast<uint32_t>(b->second));
    example_label.push_back(obs.label);
  }
  if (item_ids.empty()) {
    return Status::FailedPrecondition(
        "selected items have no logged observations");
  }
  // Each item accumulates its observations in log order.
  const RatingCsr by_item = GroupRatings(item_ids.size(), example_item, example_user,
                                         example_label, /*num_partitions=*/1);
  std::vector<double> refreshed(item_ids.size() * dim);
  std::vector<uint8_t> solved;
  VELOX_RETURN_NOT_OK(SolveRidgeRows(executor, "incremental-solve-items", by_item,
                                     basis.data(), dim, als.lambda,
                                     als.weighted_regularization, als.num_partitions,
                                     refreshed.data(), &solved));

  // Merge θ: refreshed factors win; everything else keeps its
  // previous-version factor. A selected item with no usable
  // observations (or a singular system) keeps its old factor too.
  auto merged_factors = std::make_shared<FactorMap>(previous_table->table());
  for (size_t r = 0; r < item_ids.size(); ++r) {
    if (solved[r] == 0) continue;
    const double* x = refreshed.data() + r * dim;
    (*merged_factors)[item_ids[r]] = DenseVector(std::vector<double>(x, x + dim));
  }

  // W is untouched: the frozen-basis solve never moves user weights, so
  // the new version inherits the previous trained prior and the
  // post-install log replay rebuilds online state under the merged θ.
  RetrainOutput out;
  if (prior_weights != nullptr) out.user_weights = *prior_weights;
  out.features = std::make_shared<MaterializedFeatureFunction>(
      std::shared_ptr<const FactorMap>(merged_factors), model_->dim());

  // Quality baseline of the *merged* model over the *full* log — the
  // number a full retrain would report had it produced this model, so
  // the evaluator's staleness detection stays calibrated across modes.
  MfModel merged;
  merged.rank = model_->dim();
  merged.user_factors = out.user_weights;
  merged.item_factors = *merged_factors;
  out.training_rmse = MfTrainRmse(merged, observations);
  return out;
}

}  // namespace velox
