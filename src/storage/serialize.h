#ifndef CORRTRACK_STORAGE_SERIALIZE_H_
#define CORRTRACK_STORAGE_SERIALIZE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace corrtrack::storage {

/// Little-endian binary encoder for checkpoint payloads. Fixed-width
/// integers only (the state being serialised is counter-table sized; varint
/// savings are not worth the decode branches), doubles as IEEE-754 bit
/// patterns — the encoding must round-trip *bit-identically*, coefficients
/// included, because the kill-restore differential tests compare doubles
/// with operator==.
class ByteWriter {
 public:
  void PutU8(uint8_t v) { out_.push_back(static_cast<char>(v)); }

  void PutU32(uint32_t v) { PutFixed(&v, sizeof(v)); }
  void PutU64(uint64_t v) { PutFixed(&v, sizeof(v)); }
  void PutI64(int64_t v) { PutFixed(&v, sizeof(v)); }

  void PutDouble(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    PutU64(bits);
  }

  void PutBytes(std::string_view data) {
    PutU64(data.size());
    out_.append(data.data(), data.size());
  }

  const std::string& str() const { return out_; }
  std::string Take() { return std::move(out_); }

 private:
  void PutFixed(const void* v, size_t n) {
    // Little-endian hosts only (x86-64/aarch64, the supported targets):
    // memcpy of the native representation IS the wire format.
    const char* p = static_cast<const char*>(v);
    out_.append(p, n);
  }

  std::string out_;
};

/// Bounds-checked decoder over a byte view. Every Get returns false on
/// truncation and leaves the output untouched; callers bubble the failure
/// up as StatusCode::kCorruption (the frame CRC has already passed by the
/// time payloads are decoded, so a short read here means an encoder bug or
/// version skew, not bit rot — still never silently loaded).
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  bool GetU8(uint8_t* v) {
    if (data_.size() < 1) return false;
    *v = static_cast<uint8_t>(data_[0]);
    data_.remove_prefix(1);
    return true;
  }

  bool GetU32(uint32_t* v) { return GetFixed(v, sizeof(*v)); }
  bool GetU64(uint64_t* v) { return GetFixed(v, sizeof(*v)); }
  bool GetI64(int64_t* v) { return GetFixed(v, sizeof(*v)); }

  bool GetDouble(double* v) {
    uint64_t bits;
    if (!GetU64(&bits)) return false;
    std::memcpy(v, &bits, sizeof(*v));
    return true;
  }

  bool GetBytes(std::string_view* out) {
    uint64_t n;
    if (!GetU64(&n)) return false;
    if (data_.size() < n) return false;
    *out = data_.substr(0, static_cast<size_t>(n));
    data_.remove_prefix(static_cast<size_t>(n));
    return true;
  }

  bool GetString(std::string* out) {
    std::string_view view;
    if (!GetBytes(&view)) return false;
    out->assign(view.data(), view.size());
    return true;
  }

  /// Reads a u64 element count and refuses it unless the remaining bytes
  /// can hold that many elements of at least `min_element_bytes` each, so
  /// a corrupt count fails the decode instead of driving a huge
  /// reserve/resize before the first element is read.
  bool GetCount(uint64_t* n, size_t min_element_bytes) {
    return GetU64(n) && *n <= remaining() / min_element_bytes;
  }

  bool empty() const { return data_.empty(); }
  size_t remaining() const { return data_.size(); }

 private:
  bool GetFixed(void* v, size_t n) {
    if (data_.size() < n) return false;
    std::memcpy(v, data_.data(), n);
    data_.remove_prefix(n);
    return true;
  }

  std::string_view data_;
};

}  // namespace corrtrack::storage

#endif  // CORRTRACK_STORAGE_SERIALIZE_H_
