// Durable user-weight serving state: mutation journal + snapshots.
//
// The paper assumes the storage tier is fault-tolerant; in this
// reproduction each user's weight vector w_u and its online-learning
// sufficient statistics live only in the owning node's memory. The
// UserWeightJournal closes that gap, Clipper-style ("serving state is
// rebuildable from logs"):
//
//  * every UserWeightStore mutation appends one UserWeightWalRecord to
//    a per-node write-ahead log (storage/wal.h) — seeds carry the
//    exact initial vector, observation updates carry the resolved
//    feature vector + label, version resets mark a table wipe — so
//    replaying the log through the store's own state machine
//    reconstructs W *and* the sufficient statistics bit-identically
//    (every update is a deterministic FP-op sequence on logged data;
//    replay never consults θ, the bootstrapper, or storage);
//  * once per `snapshot_every` records the whole table is encoded at
//    an exact cut: the store holds every stripe lock, so no mutation
//    runs on the node while the image is encoded, and the cut's record
//    count is exactly what the image reflects. The locks are then
//    released and the image is written (tmp + fsync + rename) on the
//    same thread into a snapshot file stamped with the WAL record count
//    it covers, so restart recovery is "load newest valid snapshot,
//    replay the WAL suffix" instead of replaying from genesis.
//
// Loss bounds per WalSyncPolicy (see storage/wal.h): under kFsync
// (every-N group commit) at most the last N-1 acknowledged mutations
// can be lost to a machine crash and none to a process crash; under
// kFlush a process crash loses nothing but a machine crash can lose
// any OS-buffered suffix; under kNone nothing is promised.
#ifndef VELOX_STORAGE_SNAPSHOT_H_
#define VELOX_STORAGE_SNAPSHOT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "linalg/vector.h"
#include "storage/wal.h"

namespace velox {

// One logged mutation of a UserWeightStore.
struct UserWeightWalRecord {
  enum class Kind : uint8_t {
    // User created or reset to an explicit weight vector (offline seed,
    // bootstrap-mean cold start, or storage-tier failover recovery).
    kSeed = 1,
    // One Eq. 2 online update: the resolved feature vector + label.
    kObservationUpdate = 2,
    // Whole-table wipe at a model version swap; kSeed records for the
    // new version's users follow.
    kVersionReset = 3,
  };

  Kind kind = Kind::kSeed;
  uint64_t uid = 0;
  int32_t model_version = 0;
  DenseVector weights;   // kSeed: the seeded vector
  DenseVector features;  // kObservationUpdate
  double label = 0.0;    // kObservationUpdate

  std::vector<uint8_t> Serialize() const;
  static Result<UserWeightWalRecord> Deserialize(const std::vector<uint8_t>& bytes);
};

// Snapshot file codec: [magic][format][wal_records_covered]
// [wal_bytes_covered][crc32(state)][state blob]. The state blob is an
// opaque UserWeightStore::SerializeState() image; the byte offset lets
// the next Open() seek straight past the covered WAL prefix instead of
// re-scanning it, so restart cost is O(suffix), not O(log). Saved
// atomically (<path>.tmp + fsync + rename), so a crash mid-snapshot
// leaves the previous snapshot intact.
Status SaveUserWeightSnapshotFile(const std::string& path,
                                  const std::vector<uint8_t>& state,
                                  uint64_t wal_records_covered,
                                  uint64_t wal_bytes_covered);
struct LoadedUserWeightSnapshot {
  std::vector<uint8_t> state;
  uint64_t wal_records_covered = 0;
  uint64_t wal_bytes_covered = 0;
};
Result<LoadedUserWeightSnapshot> LoadUserWeightSnapshotFile(const std::string& path);

struct UserWeightJournalOptions {
  std::string wal_path;
  std::string snapshot_path;
  WalOptions wal;
  // Write a snapshot once this many records accumulate past the last
  // one; 0 disables automatic snapshots (WriteSnapshot still works).
  uint64_t snapshot_every = 0;
};

// Everything recovered at Open(): the newest valid snapshot (if any)
// and the WAL records past the point it covers (the WAL scan starts at
// the snapshot's covered byte offset, so only the suffix is read). A
// missing or invalid snapshot degrades to genesis replay (empty state,
// full suffix); a WAL torn shorter than the snapshot's cover point
// degrades to the snapshot alone (it is the more durable artifact).
struct UserWeightRecovery {
  std::vector<uint8_t> snapshot_state;  // empty when none loaded
  uint64_t snapshot_covers = 0;
  bool snapshot_loaded = false;
  std::vector<UserWeightWalRecord> suffix;  // replay these, in order
  uint64_t wal_records = 0;                 // valid records in the WAL
  bool wal_clean = true;                    // false if a torn tail was truncated
  // CRC-valid WAL payloads that failed to decode as records (count).
  uint64_t undecodable = 0;
};

class UserWeightJournal {
 public:
  static Result<std::unique_ptr<UserWeightJournal>> Open(UserWeightJournalOptions options);

  // Appends one mutation under the WAL's sync policy. UserWeightStore
  // appends under the mutated user's stripe lock, together with the
  // mutation's change to the bootstrapper's running sum, so record
  // order is mutation order per user and summation order across users.
  Status Append(const UserWeightWalRecord& record);

  // Group-commit window forwarded to the underlying WAL (see
  // WriteAheadLog::BeginGroup): appends between the calls defer their
  // per-record sync; EndGroupCommit performs one policy-appropriate
  // sync for the whole window. A batch of observations acknowledged
  // after EndGroupCommit has exactly the per-record durability of the
  // configured WalSyncPolicy at a single sync's cost.
  void BeginGroupCommit() { wal_->BeginGroup(); }
  Status EndGroupCommit() { return wal_->EndGroup(); }
  uint64_t group_commits() const { return wal_->group_commits(); }

  // True when snapshot_every > 0 and that many records accumulated
  // past the cadence point (the last cut taken or written). Reads the
  // record count under the WAL mutex.
  bool SnapshotDue() const;

  // Moves the cadence point to `wal_records_covered` if that is later
  // than it; it never moves back. A store calls it at its cut, before
  // encoding, so observers that arrive while the image is written find
  // the crossing already taken.
  void AdvanceSnapshotCadence(uint64_t wal_records_covered);

  // Persists `state` as covering the first `wal_records_covered` WAL
  // records (`wal_bytes_covered` bytes — both taken from records() /
  // bytes() at the same consistent cut). Syncs the WAL first so the
  // cover point is itself durable, then advances the cadence point to
  // the cut. Serialized internally; concurrent callers queue. A failed
  // sync or write counts in snapshot_failures().
  Status WriteSnapshot(const std::vector<uint8_t>& state, uint64_t wal_records_covered,
                       uint64_t wal_bytes_covered);

  // Recovery artifacts computed at Open(); destructive (the suffix is
  // released to the caller).
  UserWeightRecovery TakeRecovered();

  // Total records in the journal: recovered + appended through this
  // handle. This is the cut offset a snapshot of current state covers.
  uint64_t records() const { return wal_->total_records(); }
  // Valid journal bytes at the same cut (the seek point a snapshot
  // stamps for the next restart).
  uint64_t bytes() const { return wal_->total_bytes(); }
  // Records appended through this handle (the wal.appends metric).
  uint64_t appends() const { return wal_->records_appended(); }
  uint64_t snapshots_written() const {
    return snapshots_.load(std::memory_order_relaxed);
  }
  // WriteSnapshot calls whose WAL sync or file write failed (the
  // wal.snapshot_failures metric). Recovery then replays a longer
  // suffix; nothing served is affected.
  uint64_t snapshot_failures() const {
    return snapshot_failures_.load(std::memory_order_relaxed);
  }

  const UserWeightJournalOptions& options() const { return options_; }

 private:
  UserWeightJournal(UserWeightJournalOptions options,
                    std::unique_ptr<WriteAheadLog> wal);

  UserWeightJournalOptions options_;
  std::unique_ptr<WriteAheadLog> wal_;
  UserWeightRecovery recovered_;
  std::mutex snapshot_mu_;
  // Cadence point: the latest cut taken or written. Only advances.
  std::atomic<uint64_t> last_snapshot_covers_{0};
  std::atomic<uint64_t> snapshots_{0};
  std::atomic<uint64_t> snapshot_failures_{0};
};

}  // namespace velox

#endif  // VELOX_STORAGE_SNAPSHOT_H_
