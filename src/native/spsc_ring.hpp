// Single-producer/single-consumer packet ring for the native multicore
// backend (ISSUE 9).
//
// The native backend moves packets between CPU cores exclusively through
// these rings: dispatcher -> worker, worker -> worker (one ring per
// ordered pair), worker -> dispatcher (egress). Design follows the
// classic cache-friendly SPSC queue (NFOS / DPDK lineage):
//
//   * fixed capacity, rounded up to a power of two (mask indexing);
//   * head (consumer) and tail (producer) live on their own cache lines
//     so the two sides never false-share;
//   * each side keeps a *cached* copy of the other side's index and only
//     re-reads the shared atomic when the cached value says the ring
//     looks full/empty — the hot path is one relaxed load + one release
//     store per batch;
//   * batch push/pop amortize even that: one index publication per batch
//     instead of per element.
//
// The release/acquire pair on tail (push -> pop) and head (pop -> push
// slot reuse) is also what makes the backend's plain shared arrays
// (packet headers, access plans, register values) race-free: every
// handoff of a packet ref between threads goes through exactly one ring,
// so writes made by the sender happen-before reads by the receiver.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/error.hpp"

namespace mp5::native {

inline constexpr std::size_t kCacheLine = 64;

template <typename T>
class SpscRing {
public:
  /// Capacity is rounded up to the next power of two (minimum 2). The
  /// ring holds exactly `capacity()` elements when full.
  explicit SpscRing(std::size_t capacity) {
    if (capacity < 2) capacity = 2;
    std::size_t pow2 = 2;
    while (pow2 < capacity) {
      if (pow2 > (std::size_t{1} << 62)) {
        throw ConfigError("SpscRing: capacity too large");
      }
      pow2 <<= 1;
    }
    buf_.resize(pow2);
    mask_ = pow2 - 1;
  }

  std::size_t capacity() const noexcept { return buf_.size(); }

  // -- producer side ------------------------------------------------------

  /// Append up to `n` items; returns how many were accepted (0 when the
  /// ring is full). Accepted items are published with one release store.
  std::size_t push_batch(const T* items, std::size_t n) {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    std::size_t room = capacity() - static_cast<std::size_t>(tail - head_cache_);
    if (room < n) {
      head_cache_ = head_.load(std::memory_order_acquire);
      room = capacity() - static_cast<std::size_t>(tail - head_cache_);
      if (room == 0) return 0;
    }
    const std::size_t take = n < room ? n : room;
    for (std::size_t i = 0; i < take; ++i) {
      buf_[static_cast<std::size_t>(tail + i) & mask_] = items[i];
    }
    tail_.store(tail + take, std::memory_order_release);
    return take;
  }

  bool try_push(const T& item) { return push_batch(&item, 1) == 1; }

  // -- consumer side ------------------------------------------------------

  /// Remove up to `max` items into `out`; returns how many were popped.
  std::size_t pop_batch(T* out, std::size_t max) {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    std::size_t ready = static_cast<std::size_t>(tail_cache_ - head);
    if (ready == 0) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      ready = static_cast<std::size_t>(tail_cache_ - head);
      if (ready == 0) return 0;
    }
    const std::size_t take = max < ready ? max : ready;
    for (std::size_t i = 0; i < take; ++i) {
      out[i] = buf_[static_cast<std::size_t>(head + i) & mask_];
    }
    head_.store(head + take, std::memory_order_release);
    return take;
  }

  bool try_pop(T& out) { return pop_batch(&out, 1) == 1; }

  /// Consumer-side emptiness check (exact for the consumer: it re-reads
  /// the producer index). Used for termination, not for flow control.
  bool empty_consumer() {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    if (tail_cache_ != head) return false;
    tail_cache_ = tail_.load(std::memory_order_acquire);
    return tail_cache_ == head;
  }

private:
  std::vector<T> buf_;
  std::size_t mask_ = 0;

  alignas(kCacheLine) std::atomic<std::uint64_t> head_{0}; // consumer
  alignas(kCacheLine) std::atomic<std::uint64_t> tail_{0}; // producer
  /// Producer-private cache of head_ (same line as nothing shared).
  alignas(kCacheLine) std::uint64_t head_cache_ = 0;
  /// Consumer-private cache of tail_.
  alignas(kCacheLine) std::uint64_t tail_cache_ = 0;
};

/// Items a producer has handed out but its ring has not accepted yet. A
/// consumed-prefix offset keeps a partially accepted batch in FIFO order
/// without a memmove per flush; the prefix is compacted away once it
/// reaches half the vector, so under steady backpressure the vector
/// stays within about twice the most items ever pending at once.
template <typename T>
class RingBacklog {
public:
  void push(const T& item) { buf_.push_back(item); }
  bool empty() const noexcept { return off_ == buf_.size(); }
  std::size_t size() const noexcept { return buf_.size() - off_; }
  std::size_t capacity() const noexcept { return buf_.capacity(); }

  /// Offer every pending item to `ring`; returns how many it accepted.
  std::size_t flush(SpscRing<T>& ring) {
    if (empty()) return 0;
    const std::size_t n = ring.push_batch(buf_.data() + off_, size());
    off_ += n;
    if (off_ == buf_.size()) {
      buf_.clear();
      off_ = 0;
    } else if (2 * off_ >= buf_.size()) {
      buf_.erase(buf_.begin(),
                 buf_.begin() + static_cast<std::ptrdiff_t>(off_));
      off_ = 0;
    }
    return n;
  }

private:
  std::vector<T> buf_;
  std::size_t off_ = 0;
};

/// Polite spin: x86 PAUSE / ARM YIELD when available.
inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

} // namespace mp5::native
