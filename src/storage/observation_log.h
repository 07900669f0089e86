// Append-only observation log.
//
// Paper §4.1: "In addition to being used to trigger online updates, the
// observation is written to Tachyon for use by Spark when retraining
// the model offline." This log is that durable record: every observe()
// call appends an Observation; the offline retraining job reads a
// sequence-consistent snapshot.
#ifndef VELOX_STORAGE_OBSERVATION_LOG_H_
#define VELOX_STORAGE_OBSERVATION_LOG_H_

#include <cstdint>
#include <mutex>
#include <span>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"

namespace velox {

// One observation: user `uid` gave label `label` (e.g., a rating) to
// item `item_id` at logical time `timestamp`.
struct Observation {
  uint64_t uid = 0;
  uint64_t item_id = 0;
  double label = 0.0;
  int64_t timestamp = 0;

  std::vector<uint8_t> Serialize() const;
  static Result<Observation> Deserialize(const std::vector<uint8_t>& bytes);

  friend bool operator==(const Observation& a, const Observation& b) {
    return a.uid == b.uid && a.item_id == b.item_id && a.label == b.label &&
           a.timestamp == b.timestamp;
  }
};

class ObservationLog {
 public:
  ObservationLog() = default;

  // Appends and returns the record's sequence number (0-based, dense).
  uint64_t Append(const Observation& obs);
  // Appends `batch` in order under one lock acquisition.
  void AppendBatch(std::span<const Observation> batch);

  // All records with sequence number in [from_seq, NextSeq()).
  std::vector<Observation> ReadFrom(uint64_t from_seq) const;

  // Records in [from_seq, to_seq).
  std::vector<Observation> ReadRange(uint64_t from_seq, uint64_t to_seq) const;
  // Appends every retained record to `out`, in sequence order.
  void CopyTo(std::vector<Observation>* out) const;

  // The sequence number the next Append will get.
  uint64_t NextSeq() const;

  // Sequence number of the oldest retained record (> 0 after
  // compaction). Reads below it return nothing.
  uint64_t FirstSeq() const;

  // Retained record count (NextSeq() - FirstSeq()).
  uint64_t size() const;

  // Compaction: drops all records with sequence number < keep_from_seq.
  // Sequence numbers of retained and future records are unchanged, so
  // readers holding offsets stay correct. Pairs with windowed
  // retraining (RetrainSchedulerOptions.max_observations) to bound the
  // log's memory. Returns the number of records dropped.
  uint64_t Compact(uint64_t keep_from_seq);

 private:
  mutable std::mutex mu_;
  // log_[i] holds sequence number base_seq_ + i.
  uint64_t base_seq_ = 0;
  std::vector<Observation> log_;
};

}  // namespace velox

#endif  // VELOX_STORAGE_OBSERVATION_LOG_H_
