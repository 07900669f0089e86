#include "workloads.h"

#include <algorithm>
#include <numeric>

namespace velox_e2e {

uint64_t SubSeed(uint64_t seed, uint64_t purpose) {
  Rand mix(seed * 0x9e3779b97f4a7c15ULL + purpose);
  return mix.Next();
}

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = [] {
    std::vector<WorkloadSpec> w;

    WorkloadSpec hot;
    hot.name = "predict_hot";
    hot.why =
        "cheap cache-hit predicts, so the server plane (admission, lanes, "
        "callbacks) dominates and storage, WAL and lifecycle are bypassed";
    hot.zipf = 1.1;
    hot.predict_frac = 0.9;
    hot.topk_frac = 0.1;
    hot.topk_candidates = 10;
    hot.nodes = 2;
    hot.nominal_rps = 30000;
    hot.overload_rps = 120000;
    w.push_back(hot);

    WorkloadSpec topk;
    topk.name = "topk_candidates";
    topk.why =
        "topK over 200 candidates on 4 nodes with remote item features and a "
        "small feature cache: feature resolution, kernels and LinUCB ordering";
    topk.zipf = 1.0;
    topk.predict_frac = 0.25;
    topk.topk_frac = 0.70;
    topk.topk_candidates = 200;
    topk.nodes = 4;
    topk.distribute_item_features = true;
    topk.replication = 2;
    topk.feature_cache_capacity = 2000;
    topk.nominal_rps = 2000;
    topk.overload_rps = 6000;
    w.push_back(topk);

    WorkloadSpec durable;
    durable.name = "observe_durable";
    durable.why =
        "60% observes with an fsync per WAL append, batched group commit and "
        "default snapshots: the write path, and the only kill-and-recover";
    durable.predict_frac = 0.30;
    durable.topk_frac = 0.10;
    durable.topk_candidates = 50;
    durable.nodes = 1;
    durable.durable = true;
    durable.batching = true;
    durable.nominal_rps = 15000;
    durable.overload_rps = 60000;
    w.push_back(durable);

    WorkloadSpec swap;
    swap.name = "retrain_swap";
    swap.why =
        "600k ratings; an incremental and a full retrain run under load, so "
        "batch ALS, model install, cache warming and replay compete with serving";
    swap.users = 20000;
    swap.min_ratings = 20;
    swap.max_ratings = 40;
    swap.predict_frac = 0.60;
    swap.topk_frac = 0.25;
    swap.topk_candidates = 50;
    swap.nodes = 2;
    swap.nominal_rps = 15000;
    swap.overload_rps = 60000;
    swap.retrains = true;
    w.push_back(swap);
    return w;
  }();
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

ZipfTable::ZipfTable(std::vector<uint64_t> values, double exponent)
    : values_(std::move(values)) {
  cdf_.resize(values_.size());
  double total = 0.0;
  for (size_t r = 0; r < values_.size(); ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), exponent);
    cdf_[r] = total;
  }
  for (double& c : cdf_) c /= total;
}

size_t ZipfTable::SampleIndex(Rand& rng) const {
  const double u = rng.Uniform();
  size_t idx = static_cast<size_t>(std::upper_bound(cdf_.begin(), cdf_.end(), u) -
                                   cdf_.begin());
  return std::min(idx, cdf_.size() - 1);
}

double Dataset::Rating(uint64_t uid, uint64_t item, Rand& rng) const {
  double dot = 0.0;
  for (size_t k = 0; k < kRank; ++k) {
    dot += user_factors[uid * kRank + k] * item_factors[item * kRank + k];
  }
  const double raw = 3.5 + dot + 0.4 * rng.Gaussian();
  return std::clamp(std::round(raw * 2.0) / 2.0, 0.5, 5.0);
}

Dataset MakeDataset(const WorkloadSpec& spec, uint64_t seed) {
  Dataset data;
  data.users = spec.users;
  Rand rng(SubSeed(seed, 1));
  // Factor scale so that w_u . x_i has unit variance.
  const double scale = std::pow(static_cast<double>(kRank), -0.25);
  data.user_factors.resize(static_cast<size_t>(spec.users) * kRank);
  data.item_factors.resize(static_cast<size_t>(spec.items) * kRank);
  for (double& f : data.user_factors) f = scale * rng.Gaussian();
  for (double& f : data.item_factors) f = scale * rng.Gaussian();

  // Popularity rank -> item id, shuffled so popularity is unrelated to id.
  std::vector<uint64_t> by_rank(static_cast<size_t>(spec.items));
  std::iota(by_rank.begin(), by_rank.end(), 0);
  for (size_t i = by_rank.size(); i > 1; --i) {
    std::swap(by_rank[i - 1], by_rank[rng.Below(i)]);
  }
  const ZipfTable popularity(by_rank, spec.zipf);

  std::vector<uint32_t> seen_stamp(by_rank.size(), 0);
  std::vector<bool> rated(by_rank.size(), false);
  int64_t timestamp = 0;
  for (int64_t u = 0; u < spec.users; ++u) {
    const auto stamp = static_cast<uint32_t>(u + 1);
    const int64_t n =
        spec.min_ratings +
        static_cast<int64_t>(rng.Below(
            static_cast<uint64_t>(spec.max_ratings - spec.min_ratings + 1)));
    for (int64_t j = 0; j < n;) {
      const size_t r = popularity.SampleIndex(rng);
      if (seen_stamp[r] == stamp) continue;
      seen_stamp[r] = stamp;
      ++j;
      const uint64_t item = by_rank[r];
      rated[r] = true;
      velox::Observation obs;
      obs.uid = static_cast<uint64_t>(u);
      obs.item_id = item;
      obs.label = data.Rating(obs.uid, item, rng);
      obs.timestamp = ++timestamp;
      data.ratings.push_back(obs);
    }
  }

  // Requests draw only rated items, keeping their popularity order.
  std::vector<uint64_t> catalog;
  for (size_t r = 0; r < by_rank.size(); ++r) {
    if (rated[r]) catalog.push_back(by_rank[r]);
  }
  data.catalog = ZipfTable(std::move(catalog), spec.zipf);
  return data;
}

velox::Request Plan::ToRequest(size_t i) const {
  const Planned& p = requests[i];
  velox::Request request;
  request.uid = p.uid;
  request.items.assign(items.begin() + p.first, items.begin() + p.first + p.count);
  request.label = p.label;
  request.type = p.type;
  return request;
}

Plan MakePlan(const WorkloadSpec& spec, const Dataset& data, double rps,
              double seconds, uint64_t seed) {
  Plan plan;
  Rand rng(seed);
  const std::vector<uint64_t>& catalog = data.catalog.values();
  const auto candidates =
      static_cast<size_t>(std::min<int64_t>(spec.topk_candidates,
                                            static_cast<int64_t>(catalog.size())));
  std::vector<uint32_t> seen_stamp(catalog.size(), 0);
  uint32_t stamp = 0;
  plan.requests.reserve(static_cast<size_t>(rps * seconds * 1.05) + 16);
  double t = 0.0;
  while (true) {
    t += rng.Exponential(rps);
    if (t >= seconds) break;
    Planned p;
    p.offset_nanos = static_cast<int64_t>(t * 1e9);
    p.uid = static_cast<uint32_t>(rng.Below(static_cast<uint64_t>(data.users)));
    p.first = static_cast<uint32_t>(plan.items.size());
    const double mix = rng.Uniform();
    if (mix < spec.predict_frac + spec.topk_frac && mix >= spec.predict_frac) {
      p.type = velox::RequestType::kTopK;
      ++stamp;
      for (size_t j = 0; j < candidates;) {
        const size_t idx = data.catalog.SampleIndex(rng);
        if (seen_stamp[idx] == stamp) continue;
        seen_stamp[idx] = stamp;
        plan.items.push_back(catalog[idx]);
        ++j;
      }
      std::sort(plan.items.begin() + p.first, plan.items.end());
      p.count = static_cast<uint32_t>(candidates);
    } else {
      p.type = mix < spec.predict_frac ? velox::RequestType::kPredict
                                       : velox::RequestType::kObserve;
      const uint64_t item = catalog[data.catalog.SampleIndex(rng)];
      plan.items.push_back(item);
      p.count = 1;
      if (p.type == velox::RequestType::kObserve) {
        p.label = static_cast<float>(data.Rating(p.uid, item, rng));
      }
    }
    plan.requests.push_back(p);
  }
  return plan;
}

}  // namespace velox_e2e
