#include "ml/als.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "cluster/router.h"
#include "common/logging.h"
#include "common/random.h"
#include "linalg/cholesky.h"

namespace velox {

double MfModel::PredictOr(uint64_t uid, uint64_t item_id, double fallback) const {
  auto u = user_factors.find(uid);
  auto i = item_factors.find(item_id);
  if (u == user_factors.end() || i == item_factors.end()) return fallback;
  return Dot(u->second, i->second);
}

DenseVector MfModel::MeanUserFactor() const {
  DenseVector mean(rank);
  if (user_factors.empty()) return mean;
  for (const auto& [uid, w] : user_factors) mean.Axpy(1.0, w);
  mean.Scale(1.0 / static_cast<double>(user_factors.size()));
  return mean;
}

DenseVector InitFactor(size_t rank, double stddev, uint64_t seed, uint64_t entity_id) {
  Rng rng(seed ^ HashPartitioner::MixHash(entity_id));
  DenseVector v(rank);
  for (size_t k = 0; k < rank; ++k) v[k] = rng.Gaussian(0.0, stddev);
  return v;
}

RatingCsr GroupRatings(size_t rows, const std::vector<uint32_t>& row_of,
                       const std::vector<uint32_t>& other_of,
                       const std::vector<double>& labels, size_t num_partitions) {
  const size_t n = row_of.size();
  RatingCsr csr;
  csr.offsets.assign(rows + 1, 0);
  for (uint32_t r : row_of) ++csr.offsets[r + 1];
  for (size_t r = 0; r < rows; ++r) csr.offsets[r + 1] += csr.offsets[r];
  std::vector<size_t> cursor(csr.offsets.begin(), csr.offsets.end() - 1);
  csr.other.resize(n);
  csr.labels.resize(n);
  for (size_t p = 0; p < num_partitions; ++p) {
    for (size_t i = p; i < n; i += num_partitions) {
      const size_t pos = cursor[row_of[i]]++;
      csr.other[pos] = other_of[i];
      csr.labels[pos] = labels[i];
    }
  }
  return csr;
}

Status SolveRidgeRows(BatchExecutor* executor, const std::string& stage,
                      const RatingCsr& csr, const double* fixed, size_t rank,
                      double lambda, bool weighted_regularization, size_t num_tasks,
                      double* out, std::vector<uint8_t>* solved) {
  const size_t rows = csr.rows();
  solved->assign(rows, 1);
  num_tasks = std::max<size_t>(1, std::min(num_tasks, rows));
  std::vector<std::function<void()>> tasks;
  tasks.reserve(num_tasks);
  for (size_t t = 0; t < num_tasks; ++t) {
    const size_t lo = rows * t / num_tasks;
    const size_t hi = rows * (t + 1) / num_tasks;
    tasks.push_back([&csr, fixed, rank, lambda, weighted_regularization, out, solved,
                     lo, hi] {
      std::vector<double> gram(rank * rank);
      for (size_t r = lo; r < hi; ++r) {
        std::fill(gram.begin(), gram.end(), 0.0);
        double* x = out + r * rank;
        std::fill(x, x + rank, 0.0);
        const size_t begin = csr.offsets[r];
        const size_t end = csr.offsets[r + 1];
        for (size_t e = begin; e < end; ++e) {
          const double* f = fixed + static_cast<size_t>(csr.other[e]) * rank;
          // RidgeAccumulator::AddExample: FᵀF += f fᵀ (the Ger, zero
          // rows skipped), Fᵀy += y f.
          for (size_t i = 0; i < rank; ++i) {
            const double fi = f[i];
            if (fi == 0.0) continue;
            double* g = gram.data() + i * rank;
            for (size_t j = 0; j <= i; ++j) g[j] += fi * f[j];
          }
          const double y = csr.labels[e];
          for (size_t i = 0; i < rank; ++i) x[i] += y * f[i];
        }
        const double reg = weighted_regularization
                               ? lambda * static_cast<double>(end - begin)
                               : lambda;
        for (size_t i = 0; i < rank; ++i) gram[i * rank + i] += reg;
        if (!CholeskyFactorInPlace(gram.data(), rank)) {
          (*solved)[r] = 0;
          continue;
        }
        CholeskySolveInPlace(gram.data(), rank, x);
      }
    });
  }
  return executor->RunStage(stage, std::move(tasks));
}

AlsTrainer::AlsTrainer(AlsConfig config) : config_(config) {
  VELOX_CHECK_GT(config_.rank, 0u);
  VELOX_CHECK_GT(config_.lambda, 0.0);
  VELOX_CHECK_GT(config_.iterations, 0);
  VELOX_CHECK_GT(config_.num_partitions, 0u);
}

namespace {

// A singular system (which λ > 0 rules out short of non-finite data)
// keeps a deterministic factor rather than dropping the entity.
void FallBackWhereUnsolved(const std::vector<uint8_t>& solved,
                           const std::vector<uint64_t>& ids, const AlsConfig& config,
                           std::vector<double>* factors) {
  for (size_t r = 0; r < solved.size(); ++r) {
    if (solved[r] != 0) continue;
    DenseVector init = InitFactor(config.rank, config.init_stddev, config.seed, ids[r]);
    std::copy(init.data(), init.data() + config.rank, factors->data() + r * config.rank);
  }
}

FactorMap ToFactorMap(const std::vector<uint64_t>& ids,
                      const std::vector<double>& factors, size_t rank) {
  FactorMap out;
  out.reserve(ids.size());
  for (size_t r = 0; r < ids.size(); ++r) {
    const double* row = factors.data() + r * rank;
    out.emplace(ids[r], DenseVector(std::vector<double>(row, row + rank)));
  }
  return out;
}

}  // namespace

Result<MfModel> AlsTrainer::Train(BatchExecutor* executor,
                                  const std::vector<Observation>& ratings) const {
  MfModel init;
  init.rank = config_.rank;
  init.lambda = config_.lambda;
  return TrainWarmStart(executor, ratings, init);
}

Result<MfModel> AlsTrainer::TrainWarmStart(BatchExecutor* executor,
                                           const std::vector<Observation>& ratings,
                                           const MfModel& init) const {
  if (executor == nullptr) return Status::InvalidArgument("executor is null");
  if (ratings.empty()) return Status::InvalidArgument("no training ratings");
  if (!init.user_factors.empty() && init.rank != config_.rank) {
    return Status::InvalidArgument("warm-start rank mismatch");
  }
  if (ratings.size() > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument("too many training ratings");
  }
  const size_t rank = config_.rank;
  const size_t n = ratings.size();

  // Dense rows, numbered in order of first appearance.
  std::vector<uint64_t> user_ids;
  std::vector<uint64_t> item_ids;
  std::vector<uint32_t> user_row(n);
  std::vector<uint32_t> item_row(n);
  std::vector<double> labels(n);
  {
    std::unordered_map<uint64_t, uint32_t> users;
    std::unordered_map<uint64_t, uint32_t> items;
    for (size_t i = 0; i < n; ++i) {
      auto [u, new_user] =
          users.try_emplace(ratings[i].uid, static_cast<uint32_t>(user_ids.size()));
      if (new_user) user_ids.push_back(ratings[i].uid);
      user_row[i] = u->second;
      auto [it, new_item] =
          items.try_emplace(ratings[i].item_id, static_cast<uint32_t>(item_ids.size()));
      if (new_item) item_ids.push_back(ratings[i].item_id);
      item_row[i] = it->second;
      labels[i] = ratings[i].label;
    }
  }
  const RatingCsr by_user = GroupRatings(user_ids.size(), user_row, item_row, labels,
                                         config_.num_partitions);
  const RatingCsr by_item = GroupRatings(item_ids.size(), item_row, user_row, labels,
                                         config_.num_partitions);

  // Every item starts from its warm factor, or a seeded one.
  std::vector<double> item_factors(item_ids.size() * rank);
  for (size_t r = 0; r < item_ids.size(); ++r) {
    auto warm = init.item_factors.find(item_ids[r]);
    DenseVector x = warm != init.item_factors.end()
                        ? warm->second
                        : InitFactor(rank, config_.init_stddev, config_.seed, item_ids[r]);
    if (x.dim() != rank) return Status::InvalidArgument("warm-start rank mismatch");
    std::copy(x.data(), x.data() + rank, item_factors.data() + r * rank);
  }
  std::vector<double> user_factors(user_ids.size() * rank);

  std::vector<uint8_t> solved;
  for (int iter = 0; iter < config_.iterations; ++iter) {
    VELOX_RETURN_NOT_OK(SolveRidgeRows(
        executor, "als-solve-users", by_user, item_factors.data(), rank,
        config_.lambda, config_.weighted_regularization, config_.num_partitions,
        user_factors.data(), &solved));
    FallBackWhereUnsolved(solved, user_ids, config_, &user_factors);
    VELOX_RETURN_NOT_OK(SolveRidgeRows(
        executor, "als-solve-items", by_item, user_factors.data(), rank,
        config_.lambda, config_.weighted_regularization, config_.num_partitions,
        item_factors.data(), &solved));
    FallBackWhereUnsolved(solved, item_ids, config_, &item_factors);
  }

  MfModel model;
  model.rank = rank;
  model.lambda = config_.lambda;
  model.user_factors = ToFactorMap(user_ids, user_factors, rank);
  model.item_factors = ToFactorMap(item_ids, item_factors, rank);
  return model;
}

double MfTrainRmse(const MfModel& model, const std::vector<Observation>& ratings) {
  if (ratings.empty()) return 0.0;
  double sq = 0.0;
  for (const Observation& obs : ratings) {
    double e = obs.label - model.PredictOr(obs.uid, obs.item_id, 0.0);
    sq += e * e;
  }
  return std::sqrt(sq / static_cast<double>(ratings.size()));
}

}  // namespace velox
