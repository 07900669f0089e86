#include "storage/snapshot.h"

#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include "common/bytes.h"
#include "common/string_util.h"

namespace velox {

namespace {

constexpr uint32_t kSnapshotMagic = 0x56585557;  // "VXUW"
// Format 2 added wal_bytes_covered (the suffix seek point).
constexpr uint32_t kSnapshotFormat = 2;

// First byte of every journal record; rejects files that hold some
// other payload type (e.g. an observation log opened by mistake).
constexpr uint8_t kRecordMagic = 0xA7;

}  // namespace

std::vector<uint8_t> UserWeightWalRecord::Serialize() const {
  ByteWriter w;
  w.PutU8(kRecordMagic);
  w.PutU8(static_cast<uint8_t>(kind));
  w.PutU64(uid);
  w.PutU32(static_cast<uint32_t>(model_version));
  switch (kind) {
    case Kind::kSeed:
      w.PutDoubleVector(weights.values());
      break;
    case Kind::kObservationUpdate:
      w.PutDoubleVector(features.values());
      w.PutDouble(label);
      break;
    case Kind::kVersionReset:
      break;
  }
  return w.Release();
}

Result<UserWeightWalRecord> UserWeightWalRecord::Deserialize(
    const std::vector<uint8_t>& bytes) {
  ByteReader r(bytes);
  VELOX_ASSIGN_OR_RETURN(uint8_t magic, r.GetU8());
  if (magic != kRecordMagic) {
    return Status::InvalidArgument("not a user-weight wal record (bad magic)");
  }
  VELOX_ASSIGN_OR_RETURN(uint8_t kind_byte, r.GetU8());
  UserWeightWalRecord record;
  VELOX_ASSIGN_OR_RETURN(record.uid, r.GetU64());
  VELOX_ASSIGN_OR_RETURN(uint32_t version, r.GetU32());
  record.model_version = static_cast<int32_t>(version);
  switch (kind_byte) {
    case static_cast<uint8_t>(Kind::kSeed): {
      record.kind = Kind::kSeed;
      VELOX_ASSIGN_OR_RETURN(std::vector<double> values, r.GetDoubleVector());
      record.weights = DenseVector(std::move(values));
      break;
    }
    case static_cast<uint8_t>(Kind::kObservationUpdate): {
      record.kind = Kind::kObservationUpdate;
      VELOX_ASSIGN_OR_RETURN(std::vector<double> values, r.GetDoubleVector());
      record.features = DenseVector(std::move(values));
      VELOX_ASSIGN_OR_RETURN(record.label, r.GetDouble());
      break;
    }
    case static_cast<uint8_t>(Kind::kVersionReset):
      record.kind = Kind::kVersionReset;
      break;
    default:
      return Status::InvalidArgument(
          StrFormat("unknown user-weight wal record kind %u", kind_byte));
  }
  if (!r.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after user-weight wal record");
  }
  return record;
}

Status SaveUserWeightSnapshotFile(const std::string& path,
                                  const std::vector<uint8_t>& state,
                                  uint64_t wal_records_covered,
                                  uint64_t wal_bytes_covered) {
  ByteWriter w;
  w.PutU32(kSnapshotMagic);
  w.PutU32(kSnapshotFormat);
  w.PutU64(wal_records_covered);
  w.PutU64(wal_bytes_covered);
  w.PutU32(Crc32(state));
  w.PutBytes(state);
  const std::vector<uint8_t>& bytes = w.data();

  // tmp + fsync + rename: a crash at any point leaves either the old
  // snapshot or the complete new one, never a torn file under `path`.
  std::string tmp = path + ".tmp";
  std::FILE* file = std::fopen(tmp.c_str(), "wb");
  if (file == nullptr) {
    return Status::IoError("cannot open snapshot for write: " + tmp);
  }
  bool ok = std::fwrite(bytes.data(), 1, bytes.size(), file) == bytes.size();
  ok = ok && std::fflush(file) == 0;
  ok = ok && ::fdatasync(::fileno(file)) == 0;
  if (std::fclose(file) != 0) ok = false;
  if (!ok) {
    std::remove(tmp.c_str());
    return Status::IoError("snapshot write failed: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IoError("snapshot rename failed: " + path);
  }
  return Status::OK();
}

Result<LoadedUserWeightSnapshot> LoadUserWeightSnapshotFile(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return Status::IoError("cannot open snapshot: " + path);
  }
  std::vector<uint8_t> bytes;
  uint8_t chunk[1 << 16];
  size_t got;
  while ((got = std::fread(chunk, 1, sizeof(chunk), file)) > 0) {
    bytes.insert(bytes.end(), chunk, chunk + got);
  }
  bool read_error = std::ferror(file) != 0;
  std::fclose(file);
  if (read_error) return Status::IoError("snapshot read failed: " + path);

  ByteReader r(bytes);
  VELOX_ASSIGN_OR_RETURN(uint32_t magic, r.GetU32());
  if (magic != kSnapshotMagic) {
    return Status::InvalidArgument("not a user-weight snapshot (bad magic)");
  }
  VELOX_ASSIGN_OR_RETURN(uint32_t format, r.GetU32());
  if (format != kSnapshotFormat) {
    return Status::Unimplemented(
        StrFormat("unsupported user-weight snapshot format %u", format));
  }
  LoadedUserWeightSnapshot loaded;
  VELOX_ASSIGN_OR_RETURN(loaded.wal_records_covered, r.GetU64());
  VELOX_ASSIGN_OR_RETURN(loaded.wal_bytes_covered, r.GetU64());
  VELOX_ASSIGN_OR_RETURN(uint32_t crc, r.GetU32());
  VELOX_ASSIGN_OR_RETURN(loaded.state, r.GetBytes());
  if (!r.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after snapshot payload");
  }
  if (Crc32(loaded.state) != crc) {
    return Status::IoError("user-weight snapshot crc mismatch: " + path);
  }
  return loaded;
}

UserWeightJournal::UserWeightJournal(UserWeightJournalOptions options,
                                     std::unique_ptr<WriteAheadLog> wal)
    : options_(std::move(options)), wal_(std::move(wal)) {}

Result<std::unique_ptr<UserWeightJournal>> UserWeightJournal::Open(
    UserWeightJournalOptions options) {
  UserWeightRecovery recovery;
  // Load the snapshot FIRST: its covered byte offset becomes the WAL
  // resume point, so the covered prefix is never read — restart cost
  // is O(suffix), not O(log). The snapshot is best-effort: missing or
  // invalid means replay from genesis; it is never fatal (the WAL is
  // the source of truth).
  WalOptions wal_options = options.wal;
  if (!options.snapshot_path.empty()) {
    auto loaded = LoadUserWeightSnapshotFile(options.snapshot_path);
    if (loaded.ok()) {
      recovery.snapshot_state = std::move(loaded.value().state);
      recovery.snapshot_covers = loaded.value().wal_records_covered;
      recovery.snapshot_loaded = true;
      wal_options.resume_offset_bytes = loaded.value().wal_bytes_covered;
      wal_options.resume_offset_records = loaded.value().wal_records_covered;
    }
  }
  // Open() handles a WAL torn shorter than the resume point itself:
  // the snapshot (fdatasync'd before rename) is the more durable
  // artifact, so the unverifiable remainder is dropped and the scan
  // yields no suffix.
  VELOX_ASSIGN_OR_RETURN(std::unique_ptr<WriteAheadLog> wal,
                         WriteAheadLog::Open(options.wal_path, wal_options));
  recovery.wal_clean = wal->recovered_clean();
  std::vector<std::vector<uint8_t>> payloads = wal->TakeRecoveredPayloads();
  recovery.wal_records = wal->total_records();

  for (size_t i = 0; i < payloads.size(); ++i) {
    auto record = UserWeightWalRecord::Deserialize(payloads[i]);
    if (!record.ok()) {
      // CRC-valid but undecodable: stop at the prefix, like a torn
      // tail; later records may depend on this one.
      recovery.undecodable = payloads.size() - i;
      recovery.wal_clean = false;
      break;
    }
    recovery.suffix.push_back(std::move(record).value());
  }

  auto journal = std::unique_ptr<UserWeightJournal>(
      new UserWeightJournal(std::move(options), std::move(wal)));
  journal->last_snapshot_covers_.store(recovery.snapshot_covers,
                                       std::memory_order_relaxed);
  journal->recovered_ = std::move(recovery);
  return journal;
}

Status UserWeightJournal::Append(const UserWeightWalRecord& record) {
  return wal_->AppendPayload(record.Serialize());
}

bool UserWeightJournal::SnapshotDue() const {
  if (options_.snapshot_every == 0 || options_.snapshot_path.empty()) return false;
  return wal_->total_records() >=
         last_snapshot_covers_.load(std::memory_order_relaxed) + options_.snapshot_every;
}

void UserWeightJournal::AdvanceSnapshotCadence(uint64_t wal_records_covered) {
  uint64_t current = last_snapshot_covers_.load(std::memory_order_relaxed);
  while (current < wal_records_covered &&
         !last_snapshot_covers_.compare_exchange_weak(current, wal_records_covered,
                                                      std::memory_order_relaxed)) {
  }
}

Status UserWeightJournal::WriteSnapshot(const std::vector<uint8_t>& state,
                                        uint64_t wal_records_covered,
                                        uint64_t wal_bytes_covered) {
  if (options_.snapshot_path.empty()) {
    return Status::FailedPrecondition("journal has no snapshot path");
  }
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  // The snapshot claims the first `wal_records_covered` records are
  // reflected in `state`; make sure those records are on disk too, or
  // a machine crash could leave a snapshot covering records the WAL
  // never persisted (harmless) while losing newer ones it should have
  // kept (also harmless — but sync keeps the artifacts consistent).
  Status written = wal_->Sync();
  if (written.ok()) {
    written = SaveUserWeightSnapshotFile(options_.snapshot_path, state,
                                         wal_records_covered, wal_bytes_covered);
  }
  if (!written.ok()) {
    snapshot_failures_.fetch_add(1, std::memory_order_relaxed);
    return written;
  }
  AdvanceSnapshotCadence(wal_records_covered);
  snapshots_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

UserWeightRecovery UserWeightJournal::TakeRecovered() {
  return std::move(recovered_);
}

}  // namespace velox
