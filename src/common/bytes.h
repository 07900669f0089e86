// Byte-level serialization used by the storage layer (table values,
// observation-log records) and model snapshots. Fixed-width
// little-endian encoding; readers validate bounds and return Status
// rather than crashing on corrupt input.
#ifndef VELOX_COMMON_BYTES_H_
#define VELOX_COMMON_BYTES_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace velox {

// Append-only encoder. Each Put grows the buffer once and stores the
// value's little-endian bytes in place, so a vector costs one growth,
// not one per byte.
class ByteWriter {
 public:
  ByteWriter() = default;

  // Capacity hint for an encoder that knows its final size.
  void Reserve(size_t n) { buf_.reserve(n); }

  void PutU8(uint8_t v) { buf_.push_back(v); }
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }
  void PutDouble(double v);
  void PutString(std::string_view s);           // length-prefixed
  void PutDoubleVector(const std::vector<double>& v);
  // `n` doubles with no length prefix (e.g. one matrix row).
  void PutDoubles(const double* v, size_t n);
  void PutBytes(const std::vector<uint8_t>& b);  // u64-length-prefixed

  const std::vector<uint8_t>& data() const { return buf_; }
  std::vector<uint8_t> Release() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  // Appends `n` bytes and returns where they start.
  uint8_t* Grow(size_t n);

  std::vector<uint8_t> buf_;
};

// Bounds-checked decoder over a borrowed buffer.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit ByteReader(const std::vector<uint8_t>& buf)
      : ByteReader(buf.data(), buf.size()) {}

  Result<uint8_t> GetU8();
  Result<uint32_t> GetU32();
  Result<uint64_t> GetU64();
  Result<int64_t> GetI64();
  Result<double> GetDouble();
  Result<std::string> GetString();
  Result<std::vector<double>> GetDoubleVector();
  Result<std::vector<uint8_t>> GetBytes();

  size_t remaining() const { return size_ - pos_; }
  bool AtEnd() const { return pos_ == size_; }

 private:
  Status Need(size_t n) const;

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

// CRC-32 (IEEE 802.3 polynomial, reflected) over a byte buffer —
// integrity checksum for write-ahead-log records and snapshots.
uint32_t Crc32(const uint8_t* data, size_t size);
inline uint32_t Crc32(const std::vector<uint8_t>& buf) {
  return Crc32(buf.data(), buf.size());
}

}  // namespace velox

#endif  // VELOX_COMMON_BYTES_H_
