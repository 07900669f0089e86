// Per-node in-memory key-value store with named, partitioned tables —
// the role Tachyon plays in the paper's architecture ("a fault-
// tolerant, memory-optimized distributed storage system in BDAS"). A
// StorageCluster (storage/storage_cluster.h) composes one KvStore per
// simulated node.
#ifndef VELOX_STORAGE_KV_STORE_H_
#define VELOX_STORAGE_KV_STORE_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cluster/router.h"
#include "common/result.h"
#include "storage/partition.h"

namespace velox {

class KvTable {
 public:
  KvTable(std::string name, int32_t num_partitions);

  const std::string& name() const { return name_; }
  int32_t num_partitions() const { return partitioner_.num_partitions(); }

  Result<Value> Get(Key key) const;
  // Inserts or overwrites. Fails (Unavailable) while the table is
  // rejecting writes — replica-write callers must check this or
  // replicas silently diverge.
  Status Put(Key key, Value value);
  bool Contains(Key key) const;

  // Batched point lookups: one Result per input key, in input order
  // (NotFound entries for absent keys — a partial answer, not an op
  // failure).
  std::vector<Result<Value>> MultiGet(const std::vector<Key>& keys) const;
  // Batched upserts: one Status per input entry, in input order.
  // Entries fail individually (Unavailable) while the table is
  // rejecting writes.
  std::vector<Status> MultiPut(std::vector<std::pair<Key, Value>> entries);

  // Simulates a wedged replica (disk full, read-only remount): reads
  // keep working, writes fail until cleared.
  void SetFailWrites(bool fail) { fail_writes_.store(fail, std::memory_order_relaxed); }
  bool fail_writes() const { return fail_writes_.load(std::memory_order_relaxed); }

  // Point-in-time copy of all rows (per-partition consistency).
  std::vector<std::pair<Key, Value>> Snapshot() const;

  Partition* partition(int32_t index) { return partitions_[index].get(); }
  const Partition* partition(int32_t index) const { return partitions_[index].get(); }

  size_t size() const;
  uint64_t SizeBytes() const;

 private:
  std::string name_;
  HashPartitioner partitioner_;
  std::vector<std::unique_ptr<Partition>> partitions_;
  std::atomic<bool> fail_writes_{false};
};

class KvStore {
 public:
  KvStore() = default;

  // Creates a table; AlreadyExists if the name is taken.
  Result<KvTable*> CreateTable(const std::string& name, int32_t num_partitions = 16);
  Result<KvTable*> GetTable(const std::string& name) const;
  // Creates if absent, returns existing otherwise.
  KvTable* GetOrCreateTable(const std::string& name, int32_t num_partitions = 16);
  Status DropTable(const std::string& name);

  std::vector<std::string> TableNames() const;
  uint64_t TotalSizeBytes() const;

  // Wedges (or un-wedges) every table on this store, existing and
  // future: reads succeed, writes fail Unavailable.
  void SetFailWrites(bool fail);

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<KvTable>> tables_;
  bool fail_writes_ = false;
};

}  // namespace velox

#endif  // VELOX_STORAGE_KV_STORE_H_
