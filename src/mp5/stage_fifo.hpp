// The logical FIFO at the input of one (pipeline, stage) cell (§3.2).
//
// Physically k independent ring buffers (one per source pipeline, to
// absorb up to k same-cycle crossbar arrivals); logically a single FIFO
// with three operations:
//   push(pkt, fifo_id)         — phantom (or baseline data) tail append;
//                                 dropped when the bounded FIFO is full.
//   insert(pkt, addr, fifo_id) — replace a queued phantom in place with
//                                 its data packet (addr from a directory
//                                 keyed by the packet id).
//   pop()                      — among the k lane heads, take the entry
//                                 with the smallest timestamp; a phantom
//                                 head blocks (that is how D4 enforces
//                                 arrival-order state access), a cancelled
//                                 phantom head costs one wasted cycle.
//
// Timestamps are the packets' global arrival sequence numbers. Within one
// lane, phantoms are pushed in arrival order, so every lane is seq-sorted
// and the smallest-head rule yields global arrival order.
//
// The `ideal` mode implements the no-head-of-line-blocking upper bound of
// §3.5.2/§4.3.3: ordering is enforced per register index rather than per
// stage (as if there were one FIFO per index), and cancelled phantoms are
// reclaimed for free.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <map>
#include <unordered_map>
#include <vector>

#include "common/ring_buffer.hpp"
#include "common/seq_map.hpp"
#include "common/types.hpp"
#include "packet/packet.hpp"

namespace mp5 {

class StageFifo {
public:
  /// capacity: per-lane entry budget; 0 = unbounded (the simulator's
  /// adaptive no-loss configuration, §4.3.1).
  StageFifo(std::uint32_t lanes, std::size_t capacity, bool ideal);

  /// Returns false when the phantom was dropped (lane full).
  bool push_phantom(SeqNo seq, RegId reg, RegIndex index, PipelineId lane,
                    Cycle now = 0);

  /// Enqueue cycle of the oldest lane-head entry, if any — the age input
  /// to the §3.4 starvation guard.
  std::optional<Cycle> oldest_head_enqueue() const;

  bool has_phantom(SeqNo seq) const { return directory_.contains(seq); }

  /// Replace the packet's phantom with the packet itself (by arena ref;
  /// the FIFO never dereferences packet contents). Returns false if the
  /// phantom is absent (it was dropped at push time) — the caller must
  /// drop the data packet (§3.4 "handling packet drops").
  bool insert_data(SeqNo seq, PacketRef ref);

  /// Cancel the phantom of a conservative access whose guard evaluated
  /// false (§3.3). Returns false (a no-op) if the phantom was dropped.
  bool cancel(SeqNo seq);

  struct PopResult {
    enum class Kind : std::uint8_t {
      kIdle,    // FIFO empty: nothing to do
      kBlocked, // head is a phantom: wait for its data packet
      kWasted,  // head was a cancelled phantom: slot consumed reclaiming it
      kData,    // a data packet was dequeued into `ref`
    };
    Kind kind = Kind::kIdle;
    PacketRef ref = kNullPacketRef;
  };

  PopResult pop();

  /// True when pop() would return kBlocked: the FIFO holds entries and
  /// its head is a phantom.
  bool head_blocked() const;

  std::size_t size() const { return live_entries_; }
  std::size_t high_water() const { return high_water_; }

  // -- fault injection & watchdog support --

  /// Clamp the effective per-lane capacity (forced FIFO pressure fault):
  /// while nonzero, push_phantom fails once the target lane already holds
  /// `cap` entries, even in the unbounded configuration. 0 disables.
  void set_pressure_capacity(std::size_t cap) { pressure_ = cap; }

  /// Empty the FIFO completely (lane death): every queued data packet is
  /// returned to the caller for drop accounting; phantoms and cancelled
  /// entries die with the lane.
  std::vector<PacketRef> drain_all();

  /// Remove every queued data packet matching `pred`, converting its slot
  /// to a cancelled entry (reclaimed by the normal wasted-pop path, so
  /// FIFO addressing stays intact). Used to purge packets doomed by a
  /// remote lane failure. Returns the extracted packet refs.
  std::vector<PacketRef> extract_data_if(
      const std::function<bool(PacketRef)>& pred);

  /// Visit every queued entry (any kind), in no particular order.
  void for_each_entry(const std::function<void(const FifoEntry&)>& fn) const;

  /// Watchdog: verify internal consistency — occupancy accounting,
  /// per-lane seq ordering (`check_order`; Invariant 1 implies each
  /// source lane is seq-sorted, but injected phantom delays legitimately
  /// break it), and phantom-directory coherence. Throws InvariantError.
  void check_invariants(Cycle now, bool check_order = true) const;

  // -- checkpoint/restore --

  /// The checkpoint field listing (common/serialize.hpp): queued entries,
  /// the phantom directory (with exact ring virtual indexes), and
  /// occupancy stats. Hash-map contents are written sorted by key, so the
  /// payload does not depend on the table layout. A load goes into a
  /// freshly constructed (empty) StageFifo of the same configuration and
  /// throws Error on any structural mismatch.
  template <class Io> void transfer(Io& io);

private:
  using IndexKey = std::uint64_t; // (reg << 32) | index

  static IndexKey make_key(RegId reg, RegIndex index) {
    return (static_cast<std::uint64_t>(reg) << 32) | index;
  }

  PopResult pop_lanes();
  PopResult pop_ideal();
  /// Drop cancelled entries from the front of an ideal per-index queue
  /// (free in the ideal design) and register a data head as eligible.
  void ideal_settle_front(IndexKey key);

  bool ideal_;
  std::vector<RingFifo<FifoEntry>> lanes_;
  /// Ideal mode: one FIFO per register index (each seq-ordered), plus the
  /// set of index heads that are data packets, ordered by seq.
  std::map<IndexKey, std::deque<FifoEntry>> queues_;
  std::map<SeqNo, IndexKey> eligible_;
  std::unordered_map<SeqNo, IndexKey> seq_key_;
  struct Address {
    PipelineId lane = 0;
    std::uint64_t vidx = 0;
  };
  /// Phantom directory: seq -> queued phantom's (lane, virtual index).
  /// Flat and node-free (see common/seq_map.hpp), so the per-packet
  /// push/insert/cancel churn allocates nothing once it has warmed up.
  SeqMap<Address> directory_;
  std::size_t live_entries_ = 0;
  std::size_t high_water_ = 0;
  std::size_t pressure_ = 0; // forced capacity clamp; 0 = off
};

} // namespace mp5
