// Pool allocator for in-flight packets (hot-path engineering, not paper
// semantics).
//
// The cycle engine used to pass Packet objects by value between the
// ingress queues, the per-cell arrival buffers, and the stage-FIFO ring
// entries. Every hop moved two heap-backed vectors (headers + plan), and
// every admit/retire pair hit the allocator. The arena replaces all of
// that with index addressing: a packet is allocated once at admission,
// referred to everywhere by a 32-bit PacketRef, and recycled through a
// freelist at egress/drop. Recycled slots keep their vectors' capacity,
// so a steady-state run performs no per-packet allocation at all.
//
// Invariants:
//  * get() references are invalidated by alloc() (slot storage may grow).
//    The simulator only allocates during admission, never while a
//    reference is held across stage processing.
//  * release() fully resets the packet's logical fields (see
//    Packet::reset_for_reuse) so no state leaks between the retiring and
//    the next packet in the slot; only vector *capacity* survives.
//  * Double release and use-after-release of a slot are programming
//    errors; release() throws Error on a slot that is not live.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "common/serialize.hpp"
#include "packet/packet.hpp"

namespace mp5 {

/// Checkpoint listing of one packet, every logical field included
/// (headers, the full access plan with phantom bookkeeping, and the
/// next_access cursor) — an in-flight packet restored from a checkpoint
/// must continue through the pipeline bit-identically.
template <class Io> void transfer_packet(Io& io, Packet& pkt) {
  io.u64(pkt.seq);
  io.u64(pkt.arrival_cycle);
  io.u32(pkt.port);
  io.u32(pkt.size_bytes);
  io.u64(pkt.flow);
  io.boolean(pkt.ecn_marked);
  io.values(pkt.headers);
  io.seq(pkt.plan, 8, [&](PlannedAccess& a) {
    io.u32(a.reg);
    io.u32(a.stage);
    io.u32(a.index);
    io.u32(a.pipeline);
    io.u8_enum(a.guard, GuardStatus::kConservative,
               "checkpoint: invalid GuardStatus value");
    io.u32(a.guard_known_after_stage);
    io.i64(a.guard_slot);
    io.boolean(a.guard_negate);
    io.boolean(a.cancelled);
    io.boolean(a.done);
    io.u32(a.phantom_lane);
    io.u64(a.phantom_owner);
    io.u8_enum(a.phantom, PhantomState::kCancelled,
               "checkpoint: invalid PhantomState value");
  });
  io.u64(pkt.next_access);
}

class PacketArena {
public:
  PacketArena() = default;

  /// Grow the slot pool (and freelist) so the next `n` alloc() calls
  /// need no storage growth.
  void reserve(std::size_t n) {
    slots_.reserve(n);
    in_use_.reserve(n);
    free_.reserve(n);
  }

  /// Allocate a packet slot: recycled from the freelist when possible,
  /// fresh otherwise. The returned packet is default-state (recycled
  /// slots were reset at release; their vectors keep capacity).
  PacketRef alloc() {
    ++total_allocs_;
    PacketRef ref;
    if (!free_.empty()) {
      ref = free_.back();
      free_.pop_back();
      ++recycled_;
    } else {
      ref = static_cast<PacketRef>(slots_.size());
      slots_.emplace_back();
      in_use_.push_back(false);
    }
    in_use_[ref] = true;
    ++live_;
    if (live_ > peak_live_) peak_live_ = live_;
    return ref;
  }

  Packet& get(PacketRef ref) { return slots_[ref]; }
  const Packet& get(PacketRef ref) const { return slots_[ref]; }

  /// Return a slot to the freelist. The packet's logical fields are reset
  /// now (not lazily at the next alloc) so a stale read after release is
  /// loudly wrong rather than silently yesterday's packet.
  void release(PacketRef ref) {
    if (ref >= slots_.size() || !in_use_[ref]) {
      throw Error("PacketArena::release: slot is not live");
    }
    slots_[ref].reset_for_reuse();
    in_use_[ref] = false;
    free_.push_back(ref);
    --live_;
  }

  bool live(PacketRef ref) const {
    return ref < slots_.size() && in_use_[ref];
  }

  std::size_t live_count() const { return live_; }
  std::size_t slot_count() const { return slots_.size(); }
  std::uint64_t total_allocs() const { return total_allocs_; }
  std::uint64_t recycled_allocs() const { return recycled_; }
  std::size_t peak_live() const { return peak_live_; }

  /// Checkpoint listing. Released slots were reset at release() time, so
  /// only live slots carry packet content; the freelist order is
  /// preserved exactly (it determines which slot the next alloc reuses,
  /// and FIFO entries address packets by slot index).
  template <class Io> void transfer(Io& io) {
    std::size_t slot_count = slots_.size();
    io.count(slot_count, 1);
    if constexpr (Io::kLoad) {
      slots_.assign(slot_count, Packet{});
      in_use_.assign(slot_count, false);
    }
    for (std::size_t i = 0; i < slot_count; ++i) {
      io.boolean(in_use_[i]);
      if (in_use_[i]) transfer_packet(io, slots_[i]);
    }
    io.seq(free_, 4, [&](PacketRef& ref) {
      io.u32(ref);
      io.check(ref < slots_.size() && !in_use_[ref],
               "checkpoint: arena freelist addresses a live slot");
    });
    if constexpr (Io::kLoad) {
      live_ = static_cast<std::size_t>(
          std::count(in_use_.begin(), in_use_.end(), true));
    }
    io.check(free_.size() + live_ == slots_.size(),
             "checkpoint: arena slot accounting mismatch");
    io.u64(peak_live_);
    io.u64(total_allocs_);
    io.u64(recycled_);
  }

private:
  std::vector<Packet> slots_;
  std::vector<bool> in_use_;
  std::vector<PacketRef> free_;
  std::size_t live_ = 0;
  std::size_t peak_live_ = 0;
  std::uint64_t total_allocs_ = 0;
  std::uint64_t recycled_ = 0;
};

} // namespace mp5
