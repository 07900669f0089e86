#include "storage/wal.h"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <sys/stat.h>

#include "common/bytes.h"
#include "common/string_util.h"

namespace velox {

const char* WalSyncPolicyName(WalSyncPolicy policy) {
  switch (policy) {
    case WalSyncPolicy::kNone:
      return "none";
    case WalSyncPolicy::kFlush:
      return "flush";
    case WalSyncPolicy::kFsync:
      return "fsync";
  }
  return "unknown";
}

WriteAheadLog::WriteAheadLog(std::string path, std::FILE* file, WalOptions options)
    : path_(std::move(path)), options_(options), file_(file) {}

WriteAheadLog::~WriteAheadLog() {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ != nullptr) {
    // Clean shutdown keeps the policy's promise: under kFsync the last
    // group-commit window must not ride on fclose's flush alone.
    if (options_.sync == WalSyncPolicy::kFsync &&
        (unsynced_ > 0 || group_pending_ > 0)) {
      (void)SyncLocked();
    }
    std::fclose(file_);
  }
}

Result<std::unique_ptr<WriteAheadLog>> WriteAheadLog::Open(const std::string& path,
                                                           WalOptions options) {
  RawRecoveryResult recovery;
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) {
    if (errno != ENOENT) {
      // EACCES/EIO/ENOTDIR may hide an existing log; opening "ab" here
      // could silently shadow (or append past) history we cannot see.
      return Status::IoError(StrFormat("cannot stat wal %s: %s", path.c_str(),
                                       std::strerror(errno)));
    }
    // ENOENT: genuinely fresh log. With a resume offset this means the
    // snapshot outlived the WAL; the index space still continues past
    // the records the snapshot covers.
    if (options.resume_offset_bytes > 0) recovery.clean = false;
  } else if (options.resume_offset_bytes > static_cast<uint64_t>(st.st_size)) {
    // WAL torn below the snapshot's cover point. The snapshot
    // (fsync'd before rename) is the more durable artifact; drop the
    // unverifiable remainder so appends never land after bytes
    // recovery cannot vouch for.
    if (::truncate(path.c_str(), 0) != 0) {
      return Status::IoError("cannot truncate wal below resume point: " + path);
    }
    recovery.clean = false;
  } else {
    VELOX_ASSIGN_OR_RETURN(recovery, RecoverRaw(path, options.resume_offset_bytes));
    // Truncate a torn tail so new appends start at a valid boundary —
    // appending after garbage would make every later record
    // unrecoverable (recovery stops at the first invalid record).
    if (!recovery.clean) {
      if (::truncate(path.c_str(), static_cast<off_t>(recovery.valid_bytes)) != 0) {
        return Status::IoError("cannot truncate torn wal tail: " + path);
      }
    }
  }
  std::FILE* file = std::fopen(path.c_str(), "ab");
  if (file == nullptr) {
    return Status::IoError("cannot open wal for append: " + path);
  }
  auto wal = std::unique_ptr<WriteAheadLog>(new WriteAheadLog(path, file, options));
  wal->recovered_records_ = recovery.payloads.size();
  wal->base_records_ = options.resume_offset_records;
  wal->total_bytes_ = recovery.valid_bytes;
  wal->recovered_clean_ = recovery.clean;
  wal->recovered_payloads_ = std::move(recovery.payloads);
  return wal;
}

Status WriteAheadLog::SyncLocked() {
  if (std::fflush(file_) != 0) {
    return Status::IoError("wal flush failed: " + path_);
  }
  if (::fdatasync(::fileno(file_)) != 0) {
    return Status::IoError("wal fdatasync failed: " + path_);
  }
  unsynced_ = 0;
  return Status::OK();
}

Status WriteAheadLog::AppendPayload(const std::vector<uint8_t>& payload) {
  ByteWriter header;
  header.PutU32(static_cast<uint32_t>(payload.size()));
  header.PutU32(Crc32(payload));

  std::lock_guard<std::mutex> lock(mu_);
  if (file_ == nullptr) return Status::FailedPrecondition("wal closed");
  // An empty payload has no data pointer to hand fwrite; its header
  // alone is the record.
  if (std::fwrite(header.data().data(), 1, header.size(), file_) != header.size() ||
      (!payload.empty() &&
       std::fwrite(payload.data(), 1, payload.size(), file_) != payload.size())) {
    return Status::IoError("wal append failed: " + path_);
  }
  if (group_depth_ > 0) {
    // Inside a group-commit window: defer every sync to EndGroup().
    ++group_pending_;
  } else {
    switch (options_.sync) {
      case WalSyncPolicy::kNone:
        break;
      case WalSyncPolicy::kFlush:
        if (std::fflush(file_) != 0) {
          return Status::IoError("wal flush failed: " + path_);
        }
        break;
      case WalSyncPolicy::kFsync:
        if (++unsynced_ >= std::max<int64_t>(1, options_.fsync_every_n)) {
          VELOX_RETURN_NOT_OK(SyncLocked());
        } else if (std::fflush(file_) != 0) {
          // Between group commits the record still reaches the OS, so a
          // process crash inside the window loses nothing.
          return Status::IoError("wal flush failed: " + path_);
        }
        break;
    }
  }
  ++records_;
  total_bytes_ += header.size() + payload.size();
  return Status::OK();
}

Status WriteAheadLog::Append(const Observation& obs) {
  return AppendPayload(obs.Serialize());
}

Status WriteAheadLog::Sync() {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ == nullptr) return Status::FailedPrecondition("wal closed");
  return SyncLocked();
}

void WriteAheadLog::BeginGroup() {
  std::lock_guard<std::mutex> lock(mu_);
  ++group_depth_;
}

Status WriteAheadLog::EndGroup() {
  std::lock_guard<std::mutex> lock(mu_);
  if (group_depth_ == 0) return Status::OK();
  if (--group_depth_ > 0) return Status::OK();
  const int64_t pending = group_pending_;
  group_pending_ = 0;
  if (pending == 0 || file_ == nullptr) return Status::OK();
  switch (options_.sync) {
    case WalSyncPolicy::kNone:
      break;
    case WalSyncPolicy::kFlush:
      if (std::fflush(file_) != 0) {
        return Status::IoError("wal flush failed: " + path_);
      }
      ++group_commits_;
      break;
    case WalSyncPolicy::kFsync:
      // One durable point for the whole window; resets the
      // fsync_every_n countdown too (SyncLocked zeroes unsynced_).
      VELOX_RETURN_NOT_OK(SyncLocked());
      ++group_commits_;
      break;
  }
  return Status::OK();
}

uint64_t WriteAheadLog::group_commits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return group_commits_;
}

uint64_t WriteAheadLog::records_appended() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_;
}

uint64_t WriteAheadLog::total_records() const {
  std::lock_guard<std::mutex> lock(mu_);
  return base_records_ + recovered_records_ + records_;
}

uint64_t WriteAheadLog::total_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_bytes_;
}

std::vector<std::vector<uint8_t>> WriteAheadLog::TakeRecoveredPayloads() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::move(recovered_payloads_);
}

Result<WriteAheadLog::RawRecoveryResult> WriteAheadLog::RecoverRaw(
    const std::string& path, uint64_t start_offset) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return Status::IoError("cannot open wal: " + path);

  RawRecoveryResult result;
  uint64_t offset = start_offset;
  result.valid_bytes = start_offset;
  if (start_offset > 0 &&
      std::fseek(file, static_cast<long>(start_offset), SEEK_SET) != 0) {
    std::fclose(file);
    return Status::IoError("cannot seek wal to resume offset: " + path);
  }
  while (true) {
    uint8_t header[8];
    size_t got = std::fread(header, 1, sizeof(header), file);
    if (got == 0) break;  // clean EOF
    if (got < sizeof(header)) {
      result.clean = false;  // torn header
      break;
    }
    ByteReader hr(header, sizeof(header));
    uint32_t len = hr.GetU32().value();
    uint32_t crc = hr.GetU32().value();
    // Reject absurd lengths (corrupt header) without huge allocation:
    // a serving-state record is at most a few KB.
    if (len > (1u << 20)) {
      result.clean = false;
      break;
    }
    std::vector<uint8_t> payload(len);
    if (std::fread(payload.data(), 1, len, file) != len) {
      result.clean = false;  // torn payload
      break;
    }
    if (Crc32(payload) != crc) {
      result.clean = false;  // corrupt record
      break;
    }
    result.payloads.push_back(std::move(payload));
    offset += sizeof(header) + len;
    result.valid_bytes = offset;
  }
  std::fclose(file);
  return result;
}

Result<WriteAheadLog::RecoveryResult> WriteAheadLog::Recover(const std::string& path) {
  VELOX_ASSIGN_OR_RETURN(RawRecoveryResult raw, RecoverRaw(path));
  RecoveryResult result;
  result.clean = raw.clean;
  uint64_t offset = 0;
  for (const std::vector<uint8_t>& payload : raw.payloads) {
    auto obs = Observation::Deserialize(payload);
    if (!obs.ok()) {
      result.clean = false;
      break;
    }
    result.records.push_back(std::move(obs).value());
    offset += 8 + payload.size();
    result.valid_bytes = offset;
  }
  return result;
}

DurableObservationLog::DurableObservationLog(std::unique_ptr<WriteAheadLog> wal,
                                             std::vector<Observation> recovered)
    : wal_(std::move(wal)) {
  for (const Observation& obs : recovered) log_.Append(obs);
}

Result<std::unique_ptr<DurableObservationLog>> DurableObservationLog::Open(
    const std::string& path, WalOptions options) {
  // Open() recovers and truncates the torn tail itself; only ENOENT is
  // "fresh" — any other stat failure surfaces as IoError instead of
  // silently discarding history.
  VELOX_ASSIGN_OR_RETURN(std::unique_ptr<WriteAheadLog> wal,
                         WriteAheadLog::Open(path, options));
  std::vector<Observation> recovered;
  for (const std::vector<uint8_t>& payload : wal->TakeRecoveredPayloads()) {
    auto obs = Observation::Deserialize(payload);
    // A CRC-valid payload that is not an Observation means the file
    // holds something else; stop at the prefix like typed Recover().
    if (!obs.ok()) break;
    recovered.push_back(std::move(obs).value());
  }
  return std::unique_ptr<DurableObservationLog>(
      new DurableObservationLog(std::move(wal), std::move(recovered)));
}

Result<uint64_t> DurableObservationLog::Append(const Observation& obs) {
  // WAL first: if the durable write fails, memory must not get ahead.
  VELOX_RETURN_NOT_OK(wal_->Append(obs));
  return log_.Append(obs);
}

}  // namespace velox
