// Packet, phantom-packet, and state-access-plan representations.
//
// In MP5 the data that must stay consistent lives both in switch registers
// and inside packets (§2.2.1), so the Packet object carries:
//   * the header fields (one Value per compiled field slot, including the
//     compiler-introduced temporaries), and
//   * the metadata MP5's address-resolution stage attaches at arrival: the
//     per-stateful-stage access plan <reg, index, pipeline, stage> used for
//     inter-pipeline steering (§3.3, Figure 5).
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "common/types.hpp"

namespace mp5 {

inline constexpr RegIndex kUnresolvedIndex =
    std::numeric_limits<RegIndex>::max();
inline constexpr std::uint32_t kNoStage =
    std::numeric_limits<std::uint32_t>::max();

/// Index of a packet slot in a PacketArena (see packet/arena.hpp). The
/// simulator's queues and FIFO entries address packets by ref instead of
/// holding them by value, so moving a packet between structures copies
/// four bytes instead of two heap-backed vectors.
using PacketRef = std::uint32_t;
inline constexpr PacketRef kNullPacketRef =
    std::numeric_limits<PacketRef>::max();

/// How certain the address-resolution stage is that a planned state access
/// will actually happen.
enum class GuardStatus : std::uint8_t {
  /// The access predicate was resolved at arrival and is true (or there is
  /// no predicate): the access definitely happens.
  kTaken,
  /// The predicate could not be resolved preemptively (it depends on
  /// stateful processing). MP5 conservatively generates a phantom packet
  /// anyway; if the predicate later evaluates false the phantom is
  /// cancelled at the cost of one wasted pop cycle (§3.3).
  kConservative,
};

/// Where a phantom packet is on its way to its stage FIFO (§3.3: phantoms
/// travel "on a separate channel"). Kept on the plan entry that owns the
/// phantom (see PlannedAccess::phantom_owner).
enum class PhantomState : std::uint8_t {
  kInFlight,  // on the channel, not yet at its stage FIFO
  kDelivered, // queued at its stage FIFO (or replaced there by its packet)
  kDropped,   // refused by a full FIFO at delivery; the packet is dropped
              // at that stage (§3.4)
  kLost,      // lost on the channel (injected fault): the packet is an
              // orphan, dropped as a fault at that stage
  kCancelled, // cancelled in flight: it lands as a zombie (one wasted pop)
};

/// One planned stateful access, attached to the packet at arrival by the
/// address-resolution logic the MP5 compiler hoisted to the front of the
/// pipeline.
struct PlannedAccess {
  RegId reg = 0;
  /// Stage (in the *transformed* program's numbering) holding the register.
  StageId stage = 0;
  /// Resolved register index, or kUnresolvedIndex for arrays whose index
  /// computation is itself stateful (such arrays are pinned to one
  /// pipeline, so steering does not need the index).
  RegIndex index = kUnresolvedIndex;
  /// Pipeline the active copy of (reg, index) lived in at resolution time.
  PipelineId pipeline = 0;
  GuardStatus guard = GuardStatus::kTaken;
  /// For kConservative accesses: the transformed-program stage after which
  /// the guard value is known (the packet carries the evaluated guard in a
  /// header slot by then).
  StageId guard_known_after_stage = kNoStage;
  /// Header slot holding the guard value once known (-1 if always taken).
  int guard_slot = -1;
  /// Polarity of the guard slot (true: access happens when the slot is 0).
  bool guard_negate = false;
  /// Set in flight when a conservative guard evaluates to false; the
  /// corresponding phantom has been cancelled and the access is skipped.
  bool cancelled = false;
  /// Set when the access has been performed.
  bool done = false;

  // --- phantom bookkeeping (filled by the simulator) ---
  /// FIFO lane the phantom was pushed into at the destination stage.
  PipelineId phantom_lane = 0;
  /// Index (into the packet's plan) of the entry owning the phantom this
  /// access rides on. Accesses to co-located arrays in the same stage
  /// share one phantom; an entry owning its own phantom points at itself.
  std::size_t phantom_owner = 0;
  /// Channel state of the phantom this entry owns (owner entries only).
  PhantomState phantom = PhantomState::kInFlight;
};

/// A packet flowing through a simulated switch.
struct Packet {
  /// Global arrival sequence number; doubles as the FIFO timestamp. This is
  /// the processing order of the logical single-pipeline switch, i.e. the
  /// order condition C1 is enforced against.
  SeqNo seq = kInvalidSeqNo;
  Cycle arrival_cycle = 0;
  std::uint32_t port = 0;
  std::uint32_t size_bytes = 64;
  /// Flow identifier (for reordering metrics only; programs never read it).
  std::uint64_t flow = 0;
  /// ECN-style congestion mark set when the packet queued at a stage FIFO
  /// beyond the configured threshold (§3.4).
  bool ecn_marked = false;
  /// One Value per compiled header slot (declared fields + temporaries).
  std::vector<Value> headers;
  /// Stateful accesses in increasing stage order (the compiler serializes
  /// register arrays so there is at most one access per stage, §3.3).
  std::vector<PlannedAccess> plan;
  /// Index into `plan` of the first access not yet done/cancelled.
  std::size_t next_access = 0;

  /// First pending access, skipping cancelled ones; nullptr when none left.
  PlannedAccess* pending_access() {
    while (next_access < plan.size() &&
           (plan[next_access].done || plan[next_access].cancelled)) {
      ++next_access;
    }
    return next_access < plan.size() ? &plan[next_access] : nullptr;
  }

  /// Reset every logical field to its default while keeping the capacity
  /// of `headers` and `plan` — the whole point of arena recycling is that
  /// a recycled packet re-fills those vectors without reallocating.
  void reset_for_reuse() {
    seq = kInvalidSeqNo;
    arrival_cycle = 0;
    port = 0;
    size_bytes = 64;
    flow = 0;
    ecn_marked = false;
    headers.clear();
    plan.clear();
    next_access = 0;
  }
};

/// Entry in a per-stage FIFO: either a phantom placeholder, the data packet
/// that replaced its phantom (via the FIFO `insert` operation), or a
/// cancelled phantom awaiting its wasted pop cycle. Entries address their
/// data packet through the run's PacketArena, keeping the FIFO rings dense
/// (a 32-byte POD per entry instead of an embedded Packet).
struct FifoEntry {
  enum class Kind : std::uint8_t { kEmpty, kPhantom, kData, kCancelled };
  Kind kind = Kind::kEmpty;
  /// Timestamp used by pop(): the owning packet's arrival sequence number.
  SeqNo seq = kInvalidSeqNo;
  /// Cycle the entry was pushed (phantom generation time); drives the
  /// §3.4 starvation guard.
  Cycle enqueued = 0;
  RegId reg = 0;
  RegIndex index = kUnresolvedIndex;
  /// Valid when kind == kData.
  PacketRef ref = kNullPacketRef;
};

/// Record of a packet leaving the pipeline, used for functional-equivalence
/// checks (packet state per §2.2.1) and reordering analysis.
struct EgressRecord {
  SeqNo seq = 0;
  Cycle egress_cycle = 0;
  std::uint64_t flow = 0;
  std::vector<Value> headers;
  bool operator==(const EgressRecord&) const = default;
};

} // namespace mp5
