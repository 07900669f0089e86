#include "core/feature_cache.h"

namespace velox {

FeatureCache::FeatureCache(size_t capacity, size_t num_shards)
    : cache_(capacity, num_shards) {}

FeaturePtr FeatureCache::Get(uint64_t item_id) {
  auto hit = cache_.Get(item_id);
  return hit.has_value() ? std::move(*hit) : nullptr;
}

FeaturePtr FeatureCache::Peek(uint64_t item_id) const {
  auto hit = cache_.Peek(item_id);
  return hit.has_value() ? std::move(*hit) : nullptr;
}

void FeatureCache::Put(uint64_t item_id, DenseVector features) {
  cache_.Put(item_id, std::make_shared<const DenseVector>(std::move(features)));
}

void FeatureCache::Put(uint64_t item_id, FeaturePtr features) {
  cache_.Put(item_id, std::move(features));
}

bool FeatureCache::Invalidate(uint64_t item_id) { return cache_.Erase(item_id); }

void FeatureCache::Clear() { cache_.Clear(); }

std::vector<uint64_t> FeatureCache::HotItems(size_t limit_per_shard) const {
  return cache_.HotKeys(limit_per_shard);
}

}  // namespace velox
