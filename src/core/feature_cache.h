// Feature Cache (paper Figure 2, §5 "Caching"): memoizes f(x, θ) per
// item. For materialized f it absorbs remote latent-factor lookups
// (hot Zipfian items stay node-local); for computational f it
// eliminates re-evaluating expensive basis functions. Entries are only
// invalidated by offline retraining, which installs a new θ (§5:
// "because the materialized features for each item are only updated
// during the offline batch retraining, cached items are invalidated
// infrequently").
#ifndef VELOX_CORE_FEATURE_CACHE_H_
#define VELOX_CORE_FEATURE_CACHE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/lru.h"
#include "linalg/vector.h"

namespace velox {

// Shared handle to an immutable cached factor. Entries are immutable
// by construction (features only change when retraining installs a new
// θ, which clears the cache wholesale), so hits hand out refcounted
// pointers instead of copying the vector — a hit is allocation-free.
using FeaturePtr = std::shared_ptr<const DenseVector>;

class FeatureCache {
 public:
  explicit FeatureCache(size_t capacity, size_t num_shards = 8);

  // nullptr on miss.
  FeaturePtr Get(uint64_t item_id);
  // Get without promoting the entry or counting a hit or a miss.
  FeaturePtr Peek(uint64_t item_id) const;
  void Put(uint64_t item_id, DenseVector features);
  void Put(uint64_t item_id, FeaturePtr features);
  bool Invalidate(uint64_t item_id);
  // Full flush — the model-version-swap path.
  void Clear();

  // Most-recently-used item ids (the warm set recomputed during
  // offline retraining, §4.2).
  std::vector<uint64_t> HotItems(size_t limit_per_shard = 64) const;

  CacheStats stats() const { return cache_.stats(); }
  void ResetStats() { cache_.ResetStats(); }
  size_t size() const { return cache_.size(); }

 private:
  LruCache<uint64_t, FeaturePtr> cache_;
};

}  // namespace velox

#endif  // VELOX_CORE_FEATURE_CACHE_H_
