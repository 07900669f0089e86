// velox_e2e workloads: the four traffic mixes, and the seeded generators
// for the ratings each server bootstraps from and the request streams
// each phase offers.
//
// The generators are the benchmark's own (not src/data), so a change to
// the program cannot change the inputs it is measured on. Every request
// names a user and items that appear in the bootstrap ratings, so no
// request fails for naming an unknown item.
#ifndef VELOX_BENCH_E2E_WORKLOADS_H_
#define VELOX_BENCH_E2E_WORKLOADS_H_

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "data/workload.h"
#include "storage/observation_log.h"

namespace velox_e2e {

// SplitMix64: tiny, fully specified, identical on every platform.
class Rand {
 public:
  explicit Rand(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  // Uniform in [0, 1).
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  uint64_t Below(uint64_t n) { return Next() % n; }
  double Gaussian() {
    const double u1 = 1.0 - Uniform();
    const double u2 = Uniform();
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
  }
  double Exponential(double rate) { return -std::log1p(-Uniform()) / rate; }

 private:
  uint64_t state_;
};

// Derives an independent stream seed for `purpose` from the run seed.
uint64_t SubSeed(uint64_t seed, uint64_t purpose);

struct WorkloadSpec {
  std::string name;
  std::string why;
  // Bootstrap ratings from a planted rank-`kRank` model.
  int64_t users = 5000;
  int64_t items = 5000;
  int64_t min_ratings = 10;
  int64_t max_ratings = 30;
  // Item popularity skew, shared by the ratings and the requests.
  double zipf = 1.0;
  // Request mix; the remainder observes.
  double predict_frac = 1.0;
  double topk_frac = 0.0;
  int64_t topk_candidates = 10;
  // Server shape.
  int32_t nodes = 1;
  bool distribute_item_features = false;
  int32_t replication = 1;
  size_t feature_cache_capacity = 1 << 16;
  // Journal every user-weight mutation with an fsync per append.
  bool durable = false;
  // Cross-request batching in the dispatcher.
  bool batching = false;
  // Absolute offered rates, req/s.
  double nominal_rps = 1000.0;
  double overload_rps = 2000.0;
  // Incremental then full retrain during the nominal phase.
  bool retrains = false;
};

inline constexpr size_t kRank = 10;
inline constexpr size_t kTopK = 10;
// LinUCB exploration weight of the server's default bandit policy
// ("linucb:0.5"); topK answers are ordered by score + kAlpha * uncertainty.
inline constexpr double kAlpha = 0.5;

const std::vector<WorkloadSpec>& Workloads();
// Null when no workload has that name.
const WorkloadSpec* FindWorkload(const std::string& name);

// Samples values by Zipf rank: values[r] has weight 1 / (r + 1)^s.
class ZipfTable {
 public:
  ZipfTable() = default;
  ZipfTable(std::vector<uint64_t> values, double exponent);
  // Index into values().
  size_t SampleIndex(Rand& rng) const;
  const std::vector<uint64_t>& values() const { return values_; }

 private:
  std::vector<uint64_t> values_;
  std::vector<double> cdf_;
};

struct Dataset {
  std::vector<velox::Observation> ratings;
  // Item ids present in `ratings`, by descending popularity rank.
  ZipfTable catalog;
  int64_t users = 0;
  // Planted factors, row-major: user u at [u * kRank], item i at
  // [i * kRank] (item ids are 0-based dense).
  std::vector<double> user_factors;
  std::vector<double> item_factors;

  // A fresh noisy rating of `item` by `uid` from the planted model.
  double Rating(uint64_t uid, uint64_t item, Rand& rng) const;
};

Dataset MakeDataset(const WorkloadSpec& spec, uint64_t seed);

// One scheduled request. Item ids live in Plan::items[first, first+count);
// topK candidate lists are sorted ascending and duplicate-free.
struct Planned {
  int64_t offset_nanos = 0;  // scheduled arrival, from phase start
  uint32_t uid = 0;
  velox::RequestType type = velox::RequestType::kPredict;
  uint32_t first = 0;
  uint32_t count = 0;
  float label = 0.0f;
};

struct Plan {
  std::vector<Planned> requests;
  std::vector<uint64_t> items;

  velox::Request ToRequest(size_t i) const;
};

// An open-loop Poisson schedule at `rps` for `seconds`.
Plan MakePlan(const WorkloadSpec& spec, const Dataset& data, double rps,
              double seconds, uint64_t seed);

}  // namespace velox_e2e

#endif  // VELOX_BENCH_E2E_WORKLOADS_H_
