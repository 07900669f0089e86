#include "common/lru.h"

#include <gtest/gtest.h>

#include <list>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"

namespace velox {
namespace {

TEST(LruCacheTest, PutGetRoundTrip) {
  LruCache<int, std::string> cache(10, 1);
  cache.Put(1, "one");
  auto v = cache.Get(1);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, "one");
}

TEST(LruCacheTest, MissReturnsNullopt) {
  LruCache<int, int> cache(10, 1);
  EXPECT_FALSE(cache.Get(99).has_value());
}

TEST(LruCacheTest, OverwriteUpdatesValue) {
  LruCache<int, int> cache(10, 1);
  cache.Put(1, 100);
  cache.Put(1, 200);
  EXPECT_EQ(cache.Get(1).value(), 200);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(LruCacheTest, EvictsLeastRecentlyUsed) {
  LruCache<int, int> cache(3, 1);
  cache.Put(1, 1);
  cache.Put(2, 2);
  cache.Put(3, 3);
  // Touch 1 so 2 becomes LRU.
  ASSERT_TRUE(cache.Get(1).has_value());
  cache.Put(4, 4);
  EXPECT_TRUE(cache.Get(1).has_value());
  EXPECT_FALSE(cache.Get(2).has_value());
  EXPECT_TRUE(cache.Get(3).has_value());
  EXPECT_TRUE(cache.Get(4).has_value());
}

TEST(LruCacheTest, CapacityNeverExceededSingleShard) {
  LruCache<int, int> cache(5, 1);
  for (int i = 0; i < 100; ++i) cache.Put(i, i);
  EXPECT_LE(cache.size(), 5u);
}

TEST(LruCacheTest, CapacityBoundHoldsAcrossShards) {
  LruCache<int, int> cache(64, 8);
  for (int i = 0; i < 10000; ++i) cache.Put(i, i);
  EXPECT_LE(cache.size(), 64u);
}

TEST(LruCacheTest, ShardBudgetsSumToExactCapacity) {
  // 10 entries over 4 shards splits 3+3+2+2: the remainder is
  // distributed, not rounded up per shard. The old ceil split would
  // let this cache hold 12 entries — pin the exact bound.
  LruCache<int, int> cache(10, 4);
  for (int i = 0; i < 10000; ++i) cache.Put(i, i);
  // Enough distinct keys to drive every shard to its budget, so the
  // steady-state size is exactly the requested capacity.
  EXPECT_EQ(cache.size(), 10u);
}

TEST(LruCacheTest, EraseRemovesEntry) {
  LruCache<int, int> cache(10, 2);
  cache.Put(1, 1);
  EXPECT_TRUE(cache.Erase(1));
  EXPECT_FALSE(cache.Get(1).has_value());
  EXPECT_FALSE(cache.Erase(1));
}

TEST(LruCacheTest, ClearEmptiesEverything) {
  LruCache<int, int> cache(100, 4);
  for (int i = 0; i < 50; ++i) cache.Put(i, i);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  for (int i = 0; i < 50; ++i) EXPECT_FALSE(cache.Get(i).has_value());
}

TEST(LruCacheTest, StatsCountHitsMissesEvictions) {
  LruCache<int, int> cache(2, 1);
  cache.Put(1, 1);
  cache.Put(2, 2);
  cache.Get(1);       // hit
  cache.Get(99);      // miss
  cache.Put(3, 3);    // evicts 2
  auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_DOUBLE_EQ(stats.HitRate(), 0.5);
}

TEST(LruCacheTest, HitRateZeroWhenUntouched) {
  LruCache<int, int> cache(2, 1);
  EXPECT_DOUBLE_EQ(cache.stats().HitRate(), 0.0);
}

TEST(LruCacheTest, ResetStatsKeepsEntries) {
  LruCache<int, int> cache(4, 1);
  cache.Put(1, 1);
  cache.Get(1);
  cache.ResetStats();
  auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_TRUE(cache.Get(1).has_value());
}

TEST(LruCacheTest, HotKeysReturnsMostRecentFirst) {
  LruCache<int, int> cache(10, 1);
  cache.Put(1, 1);
  cache.Put(2, 2);
  cache.Put(3, 3);
  auto hot = cache.HotKeys(2);
  ASSERT_EQ(hot.size(), 2u);
  EXPECT_EQ(hot[0], 3);
  EXPECT_EQ(hot[1], 2);
}

TEST(LruCacheTest, ZipfWorkloadGetsHighHitRateWithSmallCache) {
  // The §5 claim in miniature: Zipf(1.2) over 10k items, cache of 500.
  LruCache<uint64_t, int> cache(500, 8);
  Rng rng(17);
  ZipfDistribution zipf(10000, 1.2);
  for (int i = 0; i < 50000; ++i) {
    uint64_t item = static_cast<uint64_t>(zipf.Sample(&rng));
    if (!cache.Get(item).has_value()) cache.Put(item, 1);
  }
  EXPECT_GT(cache.stats().HitRate(), 0.6);
}

// Reference-model property test: a single-shard LruCache must behave
// exactly like a textbook list-based LRU for any operation sequence.
class ReferenceLru {
 public:
  explicit ReferenceLru(size_t capacity) : capacity_(capacity) {}

  std::optional<int> Get(int key) {
    for (auto it = order_.begin(); it != order_.end(); ++it) {
      if (it->first == key) {
        auto entry = *it;
        order_.erase(it);
        order_.push_front(entry);
        return entry.second;
      }
    }
    return std::nullopt;
  }

  void Put(int key, int value) {
    for (auto it = order_.begin(); it != order_.end(); ++it) {
      if (it->first == key) {
        it->second = value;
        auto entry = *it;
        order_.erase(it);
        order_.push_front(entry);
        return;
      }
    }
    if (order_.size() >= capacity_) order_.pop_back();
    order_.push_front({key, value});
  }

  bool Erase(int key) {
    for (auto it = order_.begin(); it != order_.end(); ++it) {
      if (it->first == key) {
        order_.erase(it);
        return true;
      }
    }
    return false;
  }

 private:
  size_t capacity_;
  std::list<std::pair<int, int>> order_;
};

TEST(LruCacheTest, MatchesReferenceModelOnRandomOperations) {
  const size_t capacity = 16;
  LruCache<int, int> cache(capacity, /*num_shards=*/1);
  ReferenceLru reference(capacity);
  Rng rng(2024);
  for (int step = 0; step < 50000; ++step) {
    int key = static_cast<int>(rng.UniformU64(48));  // 3x capacity keyspace
    switch (rng.UniformU64(3)) {
      case 0: {
        int value = static_cast<int>(rng.UniformU64(1000));
        cache.Put(key, value);
        reference.Put(key, value);
        break;
      }
      case 1: {
        auto got = cache.Get(key);
        auto expected = reference.Get(key);
        ASSERT_EQ(got.has_value(), expected.has_value()) << "step " << step;
        if (got.has_value()) {
          ASSERT_EQ(*got, *expected) << "step " << step;
        }
        break;
      }
      default:
        ASSERT_EQ(cache.Erase(key), reference.Erase(key)) << "step " << step;
    }
  }
}

TEST(LruCacheTest, ConcurrentMixedOperationsStayConsistent) {
  LruCache<int, int> cache(128, 8);
  const int threads = 4;
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&cache, t] {
      Rng rng(1000 + static_cast<uint64_t>(t));
      for (int i = 0; i < 20000; ++i) {
        int key = static_cast<int>(rng.UniformU64(256));
        switch (rng.UniformU64(3)) {
          case 0:
            cache.Put(key, key * 2);
            break;
          case 1: {
            auto v = cache.Get(key);
            if (v.has_value()) {
              EXPECT_EQ(*v, key * 2);
            }
            break;
          }
          default:
            cache.Erase(key);
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_LE(cache.size(), 128u);
}

}  // namespace
}  // namespace velox
