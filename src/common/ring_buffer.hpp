// Fixed-capacity ring buffer with stable virtual addresses.
//
// The paper's per-stage FIFOs (§3.2) are "implemented as independent ring
// buffers" supporting three operations: push (tail append, drop when full),
// insert (replace a previously pushed phantom packet *in place* with its
// data packet), and pop (head removal). The in-place insert requires an
// address that stays valid while the entry is queued; RingFifo exposes a
// monotonically increasing *virtual index* per pushed entry for this.
//
// capacity == 0 selects unbounded mode (the buffer grows on demand). The
// simulator uses this to model the paper's "dynamically adapt per-stage
// FIFO sizes to ensure no packet loss" configuration (§4.3.1) while still
// recording the depth high-water mark.
#pragma once

#include <bit>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/error.hpp"

namespace mp5 {

template <typename T>
class RingFifo {
public:
  /// capacity == 0 means unbounded (grow on demand).
  explicit RingFifo(std::size_t capacity = 0)
      : bounded_(capacity != 0),
        buf_(capacity != 0 ? capacity : kInitialUnboundedSlots),
        pow2_(std::has_single_bit(buf_.size())) {}

  bool empty() const noexcept { return size_ == 0; }
  bool full() const noexcept { return bounded_ && size_ == buf_.size(); }
  std::size_t size() const noexcept { return size_; }
  std::size_t capacity() const noexcept { return bounded_ ? buf_.size() : 0; }

  /// Greatest size() ever observed; used for queue-depth reporting.
  std::size_t high_water_mark() const noexcept { return high_water_; }

  /// Append at the tail. Returns the entry's virtual index, or nullopt if
  /// the FIFO is bounded and full (the caller drops the packet).
  std::optional<std::uint64_t> push(T value) {
    if (full()) return std::nullopt;
    if (size_ == buf_.size()) grow();
    buf_[physical(head_vidx_ + size_)] = std::move(value);
    ++size_;
    if (size_ > high_water_) high_water_ = size_;
    return head_vidx_ + size_ - 1;
  }

  /// True while the entry pushed with virtual index `vidx` is still queued.
  bool contains(std::uint64_t vidx) const noexcept {
    return vidx >= head_vidx_ && vidx < head_vidx_ + size_;
  }

  /// Access a queued entry by virtual index. Precondition: contains(vidx).
  T& at(std::uint64_t vidx) {
    if (!contains(vidx)) throw Error("RingFifo::at: stale virtual index");
    return buf_[physical(vidx)];
  }
  const T& at(std::uint64_t vidx) const {
    if (!contains(vidx)) throw Error("RingFifo::at: stale virtual index");
    return buf_[physical(vidx)];
  }

  /// Replace a queued entry in place (the FIFO `insert` operation).
  void replace(std::uint64_t vidx, T value) { at(vidx) = std::move(value); }

  T& front() {
    if (empty()) throw Error("RingFifo::front: empty");
    return buf_[physical(head_vidx_)];
  }
  const T& front() const {
    if (empty()) throw Error("RingFifo::front: empty");
    return buf_[physical(head_vidx_)];
  }

  /// Virtual index of the current head. Precondition: !empty().
  std::uint64_t front_vidx() const {
    if (empty()) throw Error("RingFifo::front_vidx: empty");
    return head_vidx_;
  }

  void pop_front() {
    if (empty()) throw Error("RingFifo::pop_front: empty");
    buf_[physical(head_vidx_)] = T{}; // release any owned resources
    ++head_vidx_;
    --size_;
  }

  void clear() {
    while (!empty()) pop_front();
  }

  /// Virtual index of the next entry to be popped (== the vidx the next
  /// push returns when empty). Exposed for checkpoint serialization.
  std::uint64_t base_vidx() const noexcept { return head_vidx_; }

  /// Checkpoint restore: reset the virtual-index origin and high-water
  /// mark on an *empty* ring, so subsequent push() calls reproduce the
  /// exact virtual indexes of the checkpointed run (entry vidx =
  /// head_vidx + position; the physical layout is unobservable).
  void restore_base(std::uint64_t head_vidx, std::size_t high_water) {
    if (!empty()) {
      throw Error("RingFifo::restore_base: ring is not empty");
    }
    head_vidx_ = head_vidx;
    high_water_ = high_water;
  }

private:
  static constexpr std::size_t kInitialUnboundedSlots = 16;

  std::size_t physical(std::uint64_t vidx) const noexcept {
    // Unbounded buffers only double, so they mask instead of dividing.
    return static_cast<std::size_t>(pow2_ ? vidx & (buf_.size() - 1)
                                          : vidx % buf_.size());
  }

  void grow() {
    // Unbounded mode only: re-lay entries out into a doubled buffer,
    // preserving virtual indexes (physical slot = vidx % new_size).
    std::vector<T> bigger(buf_.size() * 2);
    for (std::uint64_t v = head_vidx_; v < head_vidx_ + size_; ++v) {
      bigger[static_cast<std::size_t>(v % bigger.size())] =
          std::move(buf_[physical(v)]);
    }
    buf_ = std::move(bigger);
  }

  bool bounded_;
  std::vector<T> buf_;
  bool pow2_; // buf_.size() is a power of two
  std::uint64_t head_vidx_ = 0;
  std::size_t size_ = 0;
  std::size_t high_water_ = 0;
};

} // namespace mp5
