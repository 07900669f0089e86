#include "ml/als.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "cluster/router.h"
#include "common/logging.h"
#include "common/random.h"
#include "linalg/cholesky.h"
#include "linalg/scoring_kernels.h"

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

namespace {

#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wpsabi"

using kernel_detail::LoadV;
using kernel_detail::StoreV;
using kernel_detail::Vec2d;
using kernel_detail::Vec4d;

// Row r's normal equations, in column blocks of one vector V (4 doubles
// in the AVX2 build, 2 in the baseline one, which has no 4-wide
// registers): `g` holds rank rows of `stride` (at least rank rounded up
// to V's width) entries, of which row i's blocks up to column i are
// written — its lower triangle plus entries past the diagonal, which
// Cholesky never reads — and `x` holds Fᵀy. Per entry, the examples add
// in CSR order exactly as the scalar RidgeAccumulator::AddExample does
// (plain multiply then add). Its f[i] == 0 skip becomes a mask to +0.0,
// a no-op on a sum that starts at +0.0 (such a sum is never -0.0).
// Factor rows are read only up to `rank`: the last block's missing
// entries are +0.0. kBlocks is the block count when fixed at compile
// time (0: computed from `rank`), so common ranks unroll fully.
template <typename V, size_t kBlocks>
__attribute__((always_inline)) inline void AccumulateRowBody(const RatingCsr& csr,
                                                             size_t r,
                                                             const double* fixed,
                                                             size_t rank, size_t stride,
                                                             double* g, double* x) {
  using Mask = decltype(V{} != V{});
  constexpr size_t kWidth = sizeof(V) / sizeof(double);
  const size_t blocks = kBlocks != 0 ? kBlocks : (rank + kWidth - 1) / kWidth;
  const size_t last = (blocks - 1) * kWidth;  // first entry of the last block
  for (size_t i = 0; i < rank; ++i) {
    std::fill(g + i * stride, g + i * stride + (i / kWidth + 1) * kWidth, 0.0);
  }
  std::fill(x, x + blocks * kWidth, 0.0);
  const uint32_t* other = csr.other.data();
  const double* labels = csr.labels.data();
  for (size_t e = csr.offsets[r]; e < csr.offsets[r + 1]; ++e) {
    const double* f = fixed + static_cast<size_t>(other[e]) * rank;
    V tail = {};
    for (size_t l = 0; l < kWidth && last + l < rank; ++l) tail[l] = f[last + l];
#pragma GCC unroll 4
    for (size_t bi = 0; bi < blocks; ++bi) {
#pragma GCC unroll 4
      for (size_t k = 0; k < kWidth; ++k) {
        const size_t i = bi * kWidth + k;
        if (i >= rank) break;
        const double fi = f[i];
        const long long keep = fi != 0.0 ? -1 : 0;
        double* gi = g + i * stride;
#pragma GCC unroll 4
        for (size_t bj = 0; bj <= bi; ++bj) {
          const V fj = bj + 1 < blocks ? LoadV<V>(f + bj * kWidth) : tail;
          StoreV(gi + bj * kWidth,
                 LoadV<V>(gi + bj * kWidth) + (V)((Mask)(fi * fj) & keep));
        }
      }
    }
    const double y = labels[e];
#pragma GCC unroll 4
    for (size_t bj = 0; bj < blocks; ++bj) {
      const V fj = bj + 1 < blocks ? LoadV<V>(f + bj * kWidth) : tail;
      StoreV(x + bj * kWidth, LoadV<V>(x + bj * kWidth) + y * fj);
    }
  }
}

void AccumulateRowPortable(const RatingCsr& csr, size_t r, const double* fixed,
                           size_t rank, size_t stride, double* g, double* x) {
  AccumulateRowBody<Vec2d, 0>(csr, r, fixed, rank, stride, g, x);
}

#ifdef VELOX_KERNELS_AVX2
__attribute__((target("avx2"))) void AccumulateRowAvx2(const RatingCsr& csr, size_t r,
                                                       const double* fixed, size_t rank,
                                                       size_t stride, double* g,
                                                       double* x) {
  switch ((rank + 3) / 4) {
    case 1:
      return AccumulateRowBody<Vec4d, 1>(csr, r, fixed, rank, stride, g, x);
    case 2:
      return AccumulateRowBody<Vec4d, 2>(csr, r, fixed, rank, stride, g, x);
    case 3:
      return AccumulateRowBody<Vec4d, 3>(csr, r, fixed, rank, stride, g, x);
    case 4:
      return AccumulateRowBody<Vec4d, 4>(csr, r, fixed, rank, stride, g, x);
    default:
      return AccumulateRowBody<Vec4d, 0>(csr, r, fixed, rank, stride, g, x);
  }
}
#endif

#pragma GCC diagnostic pop

}  // namespace

void SolveRidgeRowRange(const RatingCsr& csr, const double* fixed, size_t rank,
                        double lambda, bool weighted_regularization, size_t lo,
                        size_t hi, KernelIsa isa, double* out, uint8_t* solved) {
  auto accumulate = AccumulateRowPortable;
#ifdef VELOX_KERNELS_AVX2
  if (isa == KernelIsa::kAvx2) accumulate = AccumulateRowAvx2;
#endif
  const size_t stride = (rank + 3) / 4 * 4;
  std::vector<double> g(rank * stride);
  std::vector<double> x(stride);
  // Four rows' systems, interleaved by lane (CholeskySolveLanes4).
  std::vector<double> a(rank * rank * 4);
  std::vector<double> b(rank * 4);
  for (size_t r0 = lo; r0 < hi; r0 += 4) {
    const size_t lanes = std::min<size_t>(4, hi - r0);
    for (size_t k = 0; k < 4; ++k) {
      if (k >= lanes) {
        // An idle lane solves I x = 0.
        for (size_t i = 0; i < rank; ++i) {
          for (size_t j = 0; j <= i; ++j) a[(i * rank + j) * 4 + k] = i == j ? 1.0 : 0.0;
          b[i * 4 + k] = 0.0;
        }
        continue;
      }
      const size_t r = r0 + k;
      accumulate(csr, r, fixed, rank, stride, g.data(), x.data());
      const double reg =
          weighted_regularization
              ? lambda * static_cast<double>(csr.offsets[r + 1] - csr.offsets[r])
              : lambda;
      for (size_t i = 0; i < rank; ++i) {
        for (size_t j = 0; j < i; ++j) a[(i * rank + j) * 4 + k] = g[i * stride + j];
        a[(i * rank + i) * 4 + k] = g[i * stride + i] + reg;
        b[i * 4 + k] = x[i];
      }
    }
    const unsigned ok = CholeskySolveLanes4(a.data(), rank, b.data(), isa);
    for (size_t k = 0; k < lanes; ++k) {
      const bool row_ok = (ok >> k) & 1u;
      solved[r0 + k] = row_ok ? 1 : 0;
      if (!row_ok) continue;
      double* row = out + (r0 + k) * rank;
      for (size_t i = 0; i < rank; ++i) row[i] = b[i * 4 + k];
    }
  }
}

Status SolveRidgeRows(BatchExecutor* executor, const std::string& stage,
                      const RatingCsr& csr, const double* fixed, size_t rank,
                      double lambda, bool weighted_regularization, size_t num_tasks,
                      double* out, std::vector<uint8_t>* solved) {
  const size_t rows = csr.rows();
  solved->assign(rows, 1);
  num_tasks = std::max<size_t>(1, std::min(num_tasks, rows));
  // Task t starts at the first row whose ratings begin at or after
  // t/num_tasks of the total, so tasks carry equal rating counts, not
  // equal row counts; a row heavier than a share leaves tasks empty.
  const size_t total = csr.offsets[rows];
  const KernelIsa isa = BestKernelIsa();
  std::vector<std::function<void()>> tasks;
  tasks.reserve(num_tasks);
  size_t lo = 0;
  for (size_t t = 1; t <= num_tasks; ++t) {
    const size_t hi =
        t == num_tasks
            ? rows
            : static_cast<size_t>(std::lower_bound(csr.offsets.begin() + lo,
                                                   csr.offsets.begin() + rows,
                                                   total * t / num_tasks) -
                                  csr.offsets.begin());
    if (hi == lo) continue;
    tasks.push_back([&csr, fixed, rank, lambda, weighted_regularization, lo, hi, isa,
                     out, solved] {
      SolveRidgeRowRange(csr, fixed, rank, lambda, weighted_regularization, lo, hi, isa,
                         out, solved->data());
    });
    lo = hi;
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
                                           const MfModel& init,
                                           double* train_rmse) const {
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

  if (train_rmse != nullptr) {
    // MfTrainRmse's sum over the dense rows: every rated entity has one.
    double sq = 0.0;
    for (size_t i = 0; i < n; ++i) {
      double e = labels[i] - DotKernel(user_factors.data() + user_row[i] * rank,
                                       item_factors.data() + item_row[i] * rank, rank);
      sq += e * e;
    }
    *train_rmse = std::sqrt(sq / static_cast<double>(n));
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
