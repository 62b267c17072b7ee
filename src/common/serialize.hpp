#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"

namespace mp5 {

/// Little-endian binary encoder for checkpoint payloads and trace files.
/// All integers are written as fixed-width little-endian regardless of
/// host byte order so checkpoint files are portable across machines.
class ByteWriter {
public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }

  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  }

  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  }

  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

  void f64(double v) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }

  void boolean(bool v) { u8(v ? 1 : 0); }

  void bytes(const void* p, std::size_t n) {
    buf_.append(static_cast<const char*>(p), n);
  }

  void str(std::string_view s) {
    u64(s.size());
    buf_.append(s.data(), s.size());
  }

  const std::string& buffer() const { return buf_; }
  std::string take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

private:
  std::string buf_;
};

/// Bounds-checked decoder over a byte range. Any read past the end
/// throws Error — a truncated or corrupted checkpoint must surface as a
/// diagnostic, never as undefined behavior.
class ByteReader {
public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(data_[pos_++]);
  }

  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(
               static_cast<std::uint8_t>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 4;
    return v;
  }

  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(
               static_cast<std::uint8_t>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 8;
    return v;
  }

  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

  double f64() {
    const std::uint64_t bits = u64();
    double v = 0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  bool boolean() {
    const std::uint8_t v = u8();
    if (v > 1) throw Error("serialized bool has value " + std::to_string(v));
    return v != 0;
  }

  std::string str() {
    const std::uint64_t n = u64();
    need(n);
    std::string s(data_.substr(pos_, n));
    pos_ += n;
    return s;
  }

  /// Read a count that will be used to size a container, rejecting
  /// values that could not possibly fit in the remaining bytes (each
  /// element needs at least `min_elem_bytes`). Guards against a
  /// corrupted length field causing a giant allocation.
  std::uint64_t count(std::size_t min_elem_bytes = 1) {
    const std::uint64_t n = u64();
    if (min_elem_bytes > 0 && n > remaining() / min_elem_bytes) {
      throw Error("serialized count " + std::to_string(n) +
                  " exceeds remaining payload");
    }
    return n;
  }

  std::size_t remaining() const { return data_.size() - pos_; }
  bool done() const { return pos_ == data_.size(); }

  void expect_done() const {
    if (!done()) {
      throw Error("checkpoint payload has " + std::to_string(remaining()) +
                  " trailing bytes");
    }
  }

private:
  void need(std::size_t n) const {
    if (data_.size() - pos_ < n) {
      throw Error("checkpoint payload truncated (need " + std::to_string(n) +
                  " bytes, have " + std::to_string(data_.size() - pos_) + ")");
    }
  }

  std::string_view data_;
  std::size_t pos_ = 0;
};

inline constexpr std::uint64_t kFnv1aOffset = 0xcbf29ce484222325ull;
inline constexpr std::uint64_t kFnv1aPrime = 0x100000001b3ull;

/// FNV-1a 64-bit — used for checkpoint checksums and config
/// fingerprints. Not cryptographic; detects truncation and bit rot.
inline std::uint64_t fnv1a(std::string_view data,
                           std::uint64_t hash = kFnv1aOffset) {
  for (const char c : data) {
    hash ^= static_cast<std::uint8_t>(c);
    hash *= kFnv1aPrime;
  }
  return hash;
}

/// FNV-1a over a stream of 64-bit words (little-endian bytes): the hash
/// behind result digests.
class Fnv1aDigest {
public:
  void add(std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (word >> (8 * i)) & 0xffU;
      h_ *= kFnv1aPrime;
    }
  }
  std::uint64_t value() const { return h_; }

private:
  std::uint64_t h_ = kFnv1aOffset;
};

} // namespace mp5
