#include "storage/observation_log.h"

#include <algorithm>

namespace velox {

std::vector<uint8_t> Observation::Serialize() const {
  ByteWriter w;
  w.PutU64(uid);
  w.PutU64(item_id);
  w.PutDouble(label);
  w.PutI64(timestamp);
  return w.Release();
}

Result<Observation> Observation::Deserialize(const std::vector<uint8_t>& bytes) {
  ByteReader r(bytes);
  Observation obs;
  VELOX_ASSIGN_OR_RETURN(obs.uid, r.GetU64());
  VELOX_ASSIGN_OR_RETURN(obs.item_id, r.GetU64());
  VELOX_ASSIGN_OR_RETURN(obs.label, r.GetDouble());
  VELOX_ASSIGN_OR_RETURN(obs.timestamp, r.GetI64());
  return obs;
}

uint64_t ObservationLog::Append(const Observation& obs) {
  std::lock_guard<std::mutex> lock(mu_);
  log_.push_back(obs);
  return base_seq_ + log_.size() - 1;
}

void ObservationLog::AppendBatch(std::span<const Observation> batch) {
  std::lock_guard<std::mutex> lock(mu_);
  log_.insert(log_.end(), batch.begin(), batch.end());
}

void ObservationLog::CopyTo(std::vector<Observation>* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  out->insert(out->end(), log_.begin(), log_.end());
}

std::vector<Observation> ObservationLog::ReadFrom(uint64_t from_seq) const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t start = std::max(from_seq, base_seq_);
  if (start >= base_seq_ + log_.size()) return {};
  return std::vector<Observation>(
      log_.begin() + static_cast<ptrdiff_t>(start - base_seq_), log_.end());
}

std::vector<Observation> ObservationLog::ReadRange(uint64_t from_seq,
                                                   uint64_t to_seq) const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t end_seq = base_seq_ + log_.size();
  from_seq = std::clamp(from_seq, base_seq_, end_seq);
  to_seq = std::clamp(to_seq, base_seq_, end_seq);
  if (from_seq >= to_seq) return {};
  return std::vector<Observation>(
      log_.begin() + static_cast<ptrdiff_t>(from_seq - base_seq_),
      log_.begin() + static_cast<ptrdiff_t>(to_seq - base_seq_));
}

uint64_t ObservationLog::NextSeq() const {
  std::lock_guard<std::mutex> lock(mu_);
  return base_seq_ + log_.size();
}

uint64_t ObservationLog::FirstSeq() const {
  std::lock_guard<std::mutex> lock(mu_);
  return base_seq_;
}

uint64_t ObservationLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return log_.size();
}

uint64_t ObservationLog::Compact(uint64_t keep_from_seq) {
  std::lock_guard<std::mutex> lock(mu_);
  if (keep_from_seq <= base_seq_) return 0;
  uint64_t end_seq = base_seq_ + log_.size();
  uint64_t drop = std::min(keep_from_seq, end_seq) - base_seq_;
  log_.erase(log_.begin(), log_.begin() + static_cast<ptrdiff_t>(drop));
  base_seq_ += drop;
  return drop;
}

}  // namespace velox
