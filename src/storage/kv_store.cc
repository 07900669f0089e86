#include "storage/kv_store.h"

#include "common/logging.h"

namespace velox {

KvTable::KvTable(std::string name, int32_t num_partitions)
    : name_(std::move(name)), partitioner_(num_partitions) {
  partitions_.reserve(static_cast<size_t>(num_partitions));
  for (int32_t i = 0; i < num_partitions; ++i) {
    partitions_.push_back(std::make_unique<Partition>());
  }
}

Result<Value> KvTable::Get(Key key) const {
  return partitions_[static_cast<size_t>(partitioner_.PartitionForKey(key))]->Get(key);
}

Status KvTable::Put(Key key, Value value) {
  if (fail_writes_.load(std::memory_order_relaxed)) {
    return Status::Unavailable("table '" + name_ + "' is rejecting writes");
  }
  partitions_[static_cast<size_t>(partitioner_.PartitionForKey(key))]->Put(
      key, std::move(value));
  return Status::OK();
}

std::vector<Result<Value>> KvTable::MultiGet(const std::vector<Key>& keys) const {
  std::vector<Result<Value>> out;
  out.reserve(keys.size());
  for (Key key : keys) out.push_back(Get(key));
  return out;
}

std::vector<Status> KvTable::MultiPut(std::vector<std::pair<Key, Value>> entries) {
  std::vector<Status> out;
  out.reserve(entries.size());
  for (auto& [key, value] : entries) out.push_back(Put(key, std::move(value)));
  return out;
}

bool KvTable::Contains(Key key) const {
  return partitions_[static_cast<size_t>(partitioner_.PartitionForKey(key))]->Contains(
      key);
}

std::vector<std::pair<Key, Value>> KvTable::Snapshot() const {
  std::vector<std::pair<Key, Value>> out;
  for (const auto& p : partitions_) {
    auto rows = p->Dump();
    out.insert(out.end(), std::make_move_iterator(rows.begin()),
               std::make_move_iterator(rows.end()));
  }
  return out;
}

size_t KvTable::size() const {
  size_t total = 0;
  for (const auto& p : partitions_) total += p->size();
  return total;
}

uint64_t KvTable::SizeBytes() const {
  uint64_t total = 0;
  for (const auto& p : partitions_) total += p->SizeBytes();
  return total;
}

Result<KvTable*> KvStore::CreateTable(const std::string& name, int32_t num_partitions) {
  std::lock_guard<std::mutex> lock(mu_);
  if (tables_.count(name) > 0) {
    return Status::AlreadyExists("table exists: " + name);
  }
  auto table = std::make_unique<KvTable>(name, num_partitions);
  table->SetFailWrites(fail_writes_);
  KvTable* ptr = table.get();
  tables_[name] = std::move(table);
  return ptr;
}

Result<KvTable*> KvStore::GetTable(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tables_.find(name);
  if (it == tables_.end()) return Status::NotFound("no such table: " + name);
  return it->second.get();
}

KvTable* KvStore::GetOrCreateTable(const std::string& name, int32_t num_partitions) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tables_.find(name);
  if (it != tables_.end()) return it->second.get();
  auto table = std::make_unique<KvTable>(name, num_partitions);
  table->SetFailWrites(fail_writes_);
  KvTable* ptr = table.get();
  tables_[name] = std::move(table);
  return ptr;
}

Status KvStore::DropTable(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (tables_.erase(name) == 0) return Status::NotFound("no such table: " + name);
  return Status::OK();
}

std::vector<std::string> KvStore::TableNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, table] : tables_) names.push_back(name);
  return names;
}

void KvStore::SetFailWrites(bool fail) {
  std::lock_guard<std::mutex> lock(mu_);
  fail_writes_ = fail;
  for (auto& [name, table] : tables_) table->SetFailWrites(fail);
}

uint64_t KvStore::TotalSizeBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const auto& [name, table] : tables_) total += table->SizeBytes();
  return total;
}

}  // namespace velox
