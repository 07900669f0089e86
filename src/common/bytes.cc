#include "common/bytes.h"

namespace velox {

namespace {

// Byte i of the result holds bits 8i..8i+7 of `v` on every host; the
// compiler merges the shifts into one store where the host is
// little-endian.
void StoreLe32(uint8_t* p, uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<uint8_t>(v >> (8 * i));
}

void StoreLe64(uint8_t* p, uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<uint8_t>(v >> (8 * i));
}

uint64_t DoubleBits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

}  // namespace

uint8_t* ByteWriter::Grow(size_t n) {
  size_t at = buf_.size();
  buf_.resize(at + n);
  return buf_.data() + at;
}

void ByteWriter::PutU32(uint32_t v) { StoreLe32(Grow(4), v); }

void ByteWriter::PutU64(uint64_t v) { StoreLe64(Grow(8), v); }

void ByteWriter::PutDouble(double v) { PutU64(DoubleBits(v)); }

void ByteWriter::PutString(std::string_view s) {
  PutU32(static_cast<uint32_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void ByteWriter::PutDoubleVector(const std::vector<double>& v) {
  PutU32(static_cast<uint32_t>(v.size()));
  PutDoubles(v.data(), v.size());
}

void ByteWriter::PutDoubles(const double* v, size_t n) {
  if (n == 0) return;
  uint8_t* p = Grow(8 * n);
  for (size_t i = 0; i < n; ++i) StoreLe64(p + 8 * i, DoubleBits(v[i]));
}

void ByteWriter::PutBytes(const std::vector<uint8_t>& b) {
  PutU64(b.size());
  buf_.insert(buf_.end(), b.begin(), b.end());
}

Status ByteReader::Need(size_t n) const {
  if (pos_ + n > size_) {
    return Status::OutOfRange("byte buffer underflow");
  }
  return Status::OK();
}

Result<uint8_t> ByteReader::GetU8() {
  VELOX_RETURN_NOT_OK(Need(1));
  return data_[pos_++];
}

Result<uint32_t> ByteReader::GetU32() {
  VELOX_RETURN_NOT_OK(Need(4));
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 4;
  return v;
}

Result<uint64_t> ByteReader::GetU64() {
  VELOX_RETURN_NOT_OK(Need(8));
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 8;
  return v;
}

Result<int64_t> ByteReader::GetI64() {
  VELOX_ASSIGN_OR_RETURN(uint64_t v, GetU64());
  return static_cast<int64_t>(v);
}

Result<double> ByteReader::GetDouble() {
  VELOX_ASSIGN_OR_RETURN(uint64_t bits, GetU64());
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

Result<std::string> ByteReader::GetString() {
  VELOX_ASSIGN_OR_RETURN(uint32_t len, GetU32());
  VELOX_RETURN_NOT_OK(Need(len));
  std::string s(reinterpret_cast<const char*>(data_ + pos_), len);
  pos_ += len;
  return s;
}

Result<std::vector<double>> ByteReader::GetDoubleVector() {
  VELOX_ASSIGN_OR_RETURN(uint32_t len, GetU32());
  // Each double occupies 8 bytes; validate before allocating.
  VELOX_RETURN_NOT_OK(Need(static_cast<size_t>(len) * 8));
  std::vector<double> v;
  v.reserve(len);
  for (uint32_t i = 0; i < len; ++i) {
    VELOX_ASSIGN_OR_RETURN(double d, GetDouble());
    v.push_back(d);
  }
  return v;
}

Result<std::vector<uint8_t>> ByteReader::GetBytes() {
  VELOX_ASSIGN_OR_RETURN(uint64_t len, GetU64());
  if (len > remaining()) {
    return Status::OutOfRange("byte buffer underflow");
  }
  std::vector<uint8_t> b(data_ + pos_, data_ + pos_ + len);
  pos_ += static_cast<size_t>(len);
  return b;
}

uint32_t Crc32(const uint8_t* data, size_t size) {
  // Table generated on first use from the reflected polynomial.
  static const uint32_t* table = [] {
    static uint32_t t[256];
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1) != 0 ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  uint32_t crc = 0xffffffffu;
  for (size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ data[i]) & 0xffu] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

}  // namespace velox
