// Small open-addressing hash map keyed by packet sequence number.
//
// The stage FIFO's phantom directory (§3.3) inserts one entry per phantom
// and erases it when the data packet arrives, millions of times a run.
// std::unordered_map allocates a node for each insert; this table does
// not, once it has reached its working size:
//   * linear probing over a power-of-two array of (key, value) slots;
//   * backward-shift erase, so there are no tombstones and a steady
//     insert/erase churn never degrades the probe lengths;
//   * the array doubles when an insert would pass half load;
//   * nothing is allocated until the first insert, so an idle map costs
//     no memory.
// kInvalidSeqNo marks an empty slot and cannot be a key. Iteration order
// is unspecified; callers that need a stable order sort.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"

namespace mp5 {

/// Fibonacci hashing: multiply by 2^64/phi and keep the high bits. Spreads
/// the dense, ascending sequence numbers the simulator hands out.
struct SeqHash {
  std::uint64_t operator()(SeqNo key) const noexcept {
    return key * 0x9e3779b97f4a7c15ULL;
  }
};

template <typename V, typename Hash = SeqHash>
class SeqMap {
public:
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  /// Number of slots (0 before the first insert).
  std::size_t capacity() const noexcept { return slots_.size(); }

  V* find(SeqNo key) noexcept {
    if (size_ == 0) return nullptr;
    for (std::size_t i = home(key);; i = next(i)) {
      if (slots_[i].key == key) return &slots_[i].value;
      if (slots_[i].key == kInvalidSeqNo) return nullptr;
    }
  }
  const V* find(SeqNo key) const noexcept {
    return const_cast<SeqMap*>(this)->find(key);
  }
  bool contains(SeqNo key) const noexcept { return find(key) != nullptr; }

  /// Insert `key`, or overwrite its value when present.
  void insert_or_assign(SeqNo key, V value) {
    if (key == kInvalidSeqNo) {
      throw Error("SeqMap: kInvalidSeqNo cannot be a key");
    }
    if (2 * (size_ + 1) > slots_.size()) grow();
    std::size_t i = home(key);
    while (slots_[i].key != kInvalidSeqNo && slots_[i].key != key) i = next(i);
    if (slots_[i].key == kInvalidSeqNo) ++size_;
    slots_[i] = Slot{key, std::move(value)};
  }

  /// Remove `key`; returns false when it was absent.
  bool erase(SeqNo key) noexcept {
    if (size_ == 0) return false;
    std::size_t hole = home(key);
    while (slots_[hole].key != key) {
      if (slots_[hole].key == kInvalidSeqNo) return false;
      hole = next(hole);
    }
    // Backward shift: pull each later entry of the probe run into the
    // hole unless that would move it before its home slot.
    for (std::size_t j = next(hole); slots_[j].key != kInvalidSeqNo;
         j = next(j)) {
      const std::size_t k = home(slots_[j].key);
      if (((j - k) & mask()) >= ((j - hole) & mask())) {
        slots_[hole] = std::move(slots_[j]);
        hole = j;
      }
    }
    slots_[hole].key = kInvalidSeqNo;
    --size_;
    return true;
  }

  /// Empty the map, keeping its slots.
  void clear() noexcept {
    for (Slot& s : slots_) s.key = kInvalidSeqNo;
    size_ = 0;
  }

  /// Call fn(key, value) for every entry, in unspecified order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Slot& s : slots_) {
      if (s.key != kInvalidSeqNo) fn(s.key, s.value);
    }
  }

private:
  struct Slot {
    SeqNo key = kInvalidSeqNo;
    V value{};
  };

  static constexpr std::size_t kInitialSlots = 16;

  std::size_t mask() const noexcept { return slots_.size() - 1; }
  std::size_t next(std::size_t i) const noexcept { return (i + 1) & mask(); }
  std::size_t home(SeqNo key) const noexcept {
    return static_cast<std::size_t>(Hash{}(key) >> shift_);
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.empty() ? kInitialSlots : 2 * old.size(), Slot{});
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(slots_.size()));
    size_ = 0;
    for (Slot& s : old) {
      if (s.key != kInvalidSeqNo) insert_or_assign(s.key, std::move(s.value));
    }
  }

  std::vector<Slot> slots_;
  unsigned shift_ = 64;
  std::size_t size_ = 0;
};

} // namespace mp5
