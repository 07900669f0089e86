#include "storage/partition.h"

#include "common/string_util.h"

namespace velox {

Result<Value> Partition::Get(Key key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(key);
  if (it == map_.end()) {
    return Status::NotFound(StrFormat("key %llu", static_cast<unsigned long long>(key)));
  }
  return it->second;
}

void Partition::Put(Key key, Value value) {
  std::lock_guard<std::mutex> lock(mu_);
  map_[key] = std::move(value);
}

bool Partition::Contains(Key key) const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.count(key) > 0;
}

void Partition::Scan(const std::function<void(Key, const Value&)>& fn) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [k, v] : map_) fn(k, v);
}

std::vector<std::pair<Key, Value>> Partition::Dump() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<Key, Value>> out;
  out.reserve(map_.size());
  for (const auto& [k, v] : map_) out.emplace_back(k, v);
  return out;
}

size_t Partition::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.size();
}

uint64_t Partition::SizeBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t bytes = 0;
  for (const auto& [k, v] : map_) bytes += sizeof(k) + v.size();
  return bytes;
}

}  // namespace velox
