// A single storage partition: a mutex-protected hash map shard of a
// table. Partitions are the unit of distribution (assigned to nodes by
// the router) and the unit of parallelism for batch scans.
#ifndef VELOX_STORAGE_PARTITION_H_
#define VELOX_STORAGE_PARTITION_H_

#include <cstdint>
#include <functional>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/result.h"

namespace velox {

using Key = uint64_t;
using Value = std::vector<uint8_t>;

class Partition {
 public:
  Partition() = default;
  Partition(const Partition&) = delete;
  Partition& operator=(const Partition&) = delete;

  Result<Value> Get(Key key) const;
  // Inserts or overwrites.
  void Put(Key key, Value value);
  bool Contains(Key key) const;

  // Invokes fn(key, value) for every entry under the partition lock;
  // fn must not call back into this partition.
  void Scan(const std::function<void(Key, const Value&)>& fn) const;

  // Copies all entries out (consistent point-in-time view of the
  // partition, used by Snapshot).
  std::vector<std::pair<Key, Value>> Dump() const;

  size_t size() const;
  // Approximate resident bytes (keys + values).
  uint64_t SizeBytes() const;

 private:
  mutable std::mutex mu_;
  std::unordered_map<Key, Value> map_;
};

}  // namespace velox

#endif  // VELOX_STORAGE_PARTITION_H_
