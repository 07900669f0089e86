// Sharded LRU cache template, the engine behind the Feature Cache and
// Prediction Cache in the Velox predictor (paper §5 "Caching": "caching
// the hot items on each machine using a simple cache eviction strategy
// like LRU will tend to have a high hit rate").
//
// Sharding bounds lock contention under concurrent serving threads;
// hit/miss/eviction counters are atomics readable without locks.
#ifndef VELOX_COMMON_LRU_H_
#define VELOX_COMMON_LRU_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/logging.h"

namespace velox {

struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t invalidations = 0;
  uint64_t entries = 0;

  double HitRate() const {
    uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }
};

template <typename K, typename V, typename Hash = std::hash<K>>
class LruCache {
 public:
  // `capacity` is the total entry budget split across shards. The
  // remainder is distributed one entry at a time (the first
  // capacity % num_shards shards hold one extra) so the shard budgets
  // sum to exactly `capacity` — rounding every shard up would let the
  // cache hold up to num_shards-1 entries over budget.
  explicit LruCache(size_t capacity, size_t num_shards = 8) {
    VELOX_CHECK_GT(capacity, 0u);
    if (num_shards == 0) num_shards = 1;
    if (num_shards > capacity) num_shards = capacity;
    size_t base = capacity / num_shards;
    size_t remainder = capacity % num_shards;
    shards_.reserve(num_shards);
    for (size_t i = 0; i < num_shards; ++i) {
      shards_.push_back(std::make_unique<Shard>(base + (i < remainder ? 1 : 0)));
    }
  }

  // Returns the cached value or nullopt; promotes on hit.
  std::optional<V> Get(const K& key) {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(key);
    if (it == shard.index.end()) {
      misses_.fetch_add(1, std::memory_order_relaxed);
      return std::nullopt;
    }
    hits_.fetch_add(1, std::memory_order_relaxed);
    shard.order.splice(shard.order.begin(), shard.order, it->second);
    return it->second->second;
  }

  // The cached value or nullopt, without promoting it or counting a hit
  // or a miss.
  std::optional<V> Peek(const K& key) const {
    const Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(key);
    if (it == shard.index.end()) return std::nullopt;
    return it->second->second;
  }

  // Inserts or overwrites; evicts the shard's LRU entry when full.
  void Put(const K& key, V value) {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      it->second->second = std::move(value);
      shard.order.splice(shard.order.begin(), shard.order, it->second);
      return;
    }
    if (shard.index.size() >= shard.capacity) {
      auto& victim = shard.order.back();
      shard.index.erase(victim.first);
      shard.order.pop_back();
      evictions_.fetch_add(1, std::memory_order_relaxed);
    }
    shard.order.emplace_front(key, std::move(value));
    shard.index[key] = shard.order.begin();
  }

  // Removes one key if present; returns whether it was present.
  bool Erase(const K& key) {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(key);
    if (it == shard.index.end()) return false;
    shard.order.erase(it->second);
    shard.index.erase(it);
    invalidations_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  // Drops every entry (model-version swap invalidation path).
  void Clear() {
    for (auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mu);
      invalidations_.fetch_add(shard->index.size(), std::memory_order_relaxed);
      shard->index.clear();
      shard->order.clear();
    }
  }

  // Snapshot of the most-recently-used keys, up to `limit` per shard.
  // Used to compute the warm set to precompute during offline retrain
  // (paper §4.2: the batch job recomputes "all predictions and feature
  // transformations that were cached at the time").
  std::vector<K> HotKeys(size_t limit_per_shard) const {
    std::vector<K> keys;
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mu);
      size_t taken = 0;
      for (const auto& [k, v] : shard->order) {
        if (taken++ >= limit_per_shard) break;
        keys.push_back(k);
      }
    }
    return keys;
  }

  size_t size() const {
    size_t total = 0;
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mu);
      total += shard->index.size();
    }
    return total;
  }

  CacheStats stats() const {
    CacheStats s;
    s.hits = hits_.load(std::memory_order_relaxed);
    s.misses = misses_.load(std::memory_order_relaxed);
    s.evictions = evictions_.load(std::memory_order_relaxed);
    s.invalidations = invalidations_.load(std::memory_order_relaxed);
    s.entries = size();
    return s;
  }

  void ResetStats() {
    hits_.store(0, std::memory_order_relaxed);
    misses_.store(0, std::memory_order_relaxed);
    evictions_.store(0, std::memory_order_relaxed);
    invalidations_.store(0, std::memory_order_relaxed);
  }

 private:
  struct Shard {
    explicit Shard(size_t cap) : capacity(cap) {}
    mutable std::mutex mu;
    size_t capacity;
    std::list<std::pair<K, V>> order;  // front = most recent
    std::unordered_map<K, typename std::list<std::pair<K, V>>::iterator, Hash> index;
  };

  Shard& ShardFor(const K& key) const {
    size_t h = Hash{}(key);
    // Mix so that low-entropy hashes (e.g., identity for ints) spread.
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    return *shards_[h % shards_.size()];
  }

  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> invalidations_{0};
};

}  // namespace velox

#endif  // VELOX_COMMON_LRU_H_
