#pragma once

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"

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

// ---------------------------------------------------------------------------
// Checkpoint field listings
// ---------------------------------------------------------------------------
//
// A checkpointed class lists its fields once, in a member template
// `transfer(Io& io)`, and runs that one listing with SaveIo to write and
// with LoadIo to read. The two adaptors have the same members and take
// every field by reference, so save and load cannot disagree on a field's
// order or width. Load-only work (validity checks, rebuilding derived
// state) sits in the listing: io.check() is a no-op on save, and
// `if constexpr (Io::kLoad)` guards the rest.

namespace detail {

/// Element type of a checkpointed set (its key) or map (a key/value pair
/// with a mutable key).
template <class C> struct ElemOfT {
  using type = typename C::key_type;
};
template <class C>
  requires requires { typename C::mapped_type; }
struct ElemOfT<C> {
  using type = std::pair<typename C::key_type, typename C::mapped_type>;
};
template <class C> using ElemOf = typename ElemOfT<C>::type;

template <class K, class V> const K& key_of(const std::pair<K, V>& e) {
  return e.first;
}
template <class K> const K& key_of(const K& e) { return e; }

} // namespace detail

class SaveIo {
public:
  static constexpr bool kLoad = false;
  explicit SaveIo(ByteWriter& w) : w_(w) {}

  template <std::integral T> void u8(T& v) {
    w_.u8(static_cast<std::uint8_t>(v));
  }
  template <std::integral T> void u32(T& v) {
    w_.u32(static_cast<std::uint32_t>(v));
  }
  template <std::integral T> void u64(T& v) {
    w_.u64(static_cast<std::uint64_t>(v));
  }
  template <std::integral T> void i64(T& v) {
    w_.i64(static_cast<std::int64_t>(v));
  }
  void boolean(bool& v) { w_.boolean(v); }
  void boolean(std::vector<bool>::reference v) { w_.boolean(v); }
  void str(std::string& s) { w_.str(s); }

  /// An enum stored as one byte; on load a byte above `max` throws
  /// `message`.
  template <class E> void u8_enum(E& e, E /*max*/, const char* /*message*/) {
    w_.u8(static_cast<std::uint8_t>(e));
  }

  /// A container size. On load it is read through ByteReader::count, so
  /// it cannot exceed the remaining payload at `min_bytes` per element.
  template <std::integral T> void count(T& n, std::size_t /*min_bytes*/) {
    w_.u64(static_cast<std::uint64_t>(n));
  }

  /// A size the loading side already knows (a shape fixed by the program
  /// or the configuration): written on save; on load it must equal `n`,
  /// or `message` is thrown.
  void size_equal(std::uint64_t n, const char* /*message*/) { w_.u64(n); }

  /// A size-prefixed sequence: its size, then `each(element)` for every
  /// element. On load the container is emptied and resized first.
  template <class Seq, class Each>
  void seq(Seq& s, std::size_t /*min_bytes*/, Each&& each) {
    w_.u64(s.size());
    for (auto& e : s) each(e);
  }

  /// A size-prefixed vector of Values.
  void values(std::vector<Value>& v) {
    w_.u64(v.size());
    for (const Value x : v) w_.i64(x);
  }

  /// A set or map as a size-prefixed sequence in key order (`less` on
  /// keys), so the payload does not depend on a hash table's layout.
  /// `each` gets the key, or a (key, value) pair for a map; on load the
  /// container is refilled from the elements read.
  template <class C, class Each, class Less = std::less<>>
  void sorted(C& c, std::size_t /*min_bytes*/, Each&& each, Less less = {}) {
    std::vector<detail::ElemOf<C>> elems(c.begin(), c.end());
    std::sort(elems.begin(), elems.end(), [&](const auto& a, const auto& b) {
      return less(detail::key_of(a), detail::key_of(b));
    });
    seq(elems, 0, each);
  }

  /// A load-side validity check; nothing on save.
  void check(bool /*ok*/, const char* /*message*/) {}

private:
  ByteWriter& w_;
};

class LoadIo {
public:
  static constexpr bool kLoad = true;
  explicit LoadIo(ByteReader& r) : r_(r) {}

  template <std::integral T> void u8(T& v) { v = static_cast<T>(r_.u8()); }
  template <std::integral T> void u32(T& v) { v = static_cast<T>(r_.u32()); }
  template <std::integral T> void u64(T& v) { v = static_cast<T>(r_.u64()); }
  template <std::integral T> void i64(T& v) { v = static_cast<T>(r_.i64()); }
  void boolean(bool& v) { v = r_.boolean(); }
  void boolean(std::vector<bool>::reference v) { v = r_.boolean(); }
  void str(std::string& s) { s = r_.str(); }

  template <class E> void u8_enum(E& e, E max, const char* message) {
    const std::uint8_t v = r_.u8();
    check(v <= static_cast<std::uint8_t>(max), message);
    e = static_cast<E>(v);
  }

  template <std::integral T> void count(T& n, std::size_t min_bytes) {
    n = static_cast<T>(r_.count(min_bytes));
  }

  void size_equal(std::uint64_t n, const char* message) {
    check(r_.u64() == n, message);
  }

  template <class Seq, class Each>
  void seq(Seq& s, std::size_t min_bytes, Each&& each) {
    s.clear();
    s.resize(static_cast<std::size_t>(r_.count(min_bytes)));
    for (auto& e : s) each(e);
  }

  void values(std::vector<Value>& v) {
    v.resize(static_cast<std::size_t>(r_.count(8)));
    for (Value& x : v) x = r_.i64();
  }

  template <class C, class Each, class Less = std::less<>>
  void sorted(C& c, std::size_t min_bytes, Each&& each, Less = {}) {
    std::vector<detail::ElemOf<C>> elems;
    seq(elems, min_bytes, each);
    c.clear();
    c.insert(std::make_move_iterator(elems.begin()),
             std::make_move_iterator(elems.end()));
  }

  void check(bool ok, const char* message) {
    if (!ok) throw Error(message);
  }

private:
  ByteReader& r_;
};

/// Write `obj` through its transfer() listing. The listing is a non-const
/// member because loading assigns through the same references; saving
/// only reads them.
template <class T> void save_fields(ByteWriter& w, const T& obj) {
  SaveIo io(w);
  const_cast<T&>(obj).transfer(io);
}

/// Read `obj` through its transfer() listing.
template <class T> void load_fields(ByteReader& r, T& obj) {
  LoadIo io(r);
  obj.transfer(io);
}

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
