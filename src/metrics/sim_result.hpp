// Result record common to all switch simulators (MP5, baselines).
#pragma once

#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "packet/packet.hpp"

namespace mp5 {

class Fnv1aDigest;

// Every scalar counter below has one row in kResultCounters (after the
// struct): the checkpoint, same_results, result_digest, the results JSON
// and the telemetry export all walk that list, so a new counter is one
// field plus one row.
struct SimResult {
  // --- packet accounting ---
  std::uint64_t offered = 0;
  std::uint64_t egressed = 0;
  std::uint64_t dropped_phantom = 0; // phantoms dropped at bounded FIFOs
  std::uint64_t dropped_data = 0;    // data packets dropped (missing phantom)
  std::uint64_t dropped_starved = 0; // stateless drops by the §3.4 guard
  std::uint64_t dropped_fault = 0;   // packets lost to injected faults
  std::uint64_t ecn_marked = 0;      // §3.4 backpressure marks

  // --- timing ---
  Cycle first_arrival = 0;
  Cycle last_arrival = 0;
  Cycle last_egress = 0;
  Cycle cycles_run = 0;

  // --- MP5 mechanics ---
  std::uint64_t steers = 0;        // inter-pipeline crossbar traversals
  std::uint64_t wasted_cycles = 0; // cancelled-phantom pop slots
  std::uint64_t blocked_cycles = 0;
  std::uint64_t remap_moves = 0;
  std::uint64_t recirculations = 0;  // recirculation baseline only
  std::uint64_t max_queue_depth = 0; // entries at any (pipeline, stage) FIFO

  // --- fault injection & recovery ---
  std::uint64_t pipeline_failures = 0;
  std::uint64_t pipeline_recoveries = 0;
  /// Shard indices atomically re-homed from a dead lane to survivors.
  std::uint64_t fault_remapped_indices = 0;
  std::uint64_t phantom_lost = 0;    // phantoms lost on the channel
  std::uint64_t phantom_delayed = 0; // phantoms given extra channel delay
  std::uint64_t stalled_cycles = 0;  // cell-cycles lost to injected stalls
  /// Cycles from the most recent pipeline failure to the next successful
  /// egress — how long the switch took to resume delivering packets.
  Cycle time_to_recover = 0;

  /// One record per fault-dropped packet (populated when record_egress is
  /// set): `state_touched` says whether the packet had already performed
  /// at least one state access, i.e. whether its partial effects remain in
  /// register state. The declared drop set for equivalence-modulo-drops.
  struct FaultDrop {
    SeqNo seq = kInvalidSeqNo;
    bool state_touched = false;
  };
  std::vector<FaultDrop> fault_drops;

  // --- correctness ---
  std::uint64_t c1_violating_packets = 0;
  std::uint64_t reordered_flow_packets = 0; // egress inversions within a flow

  // --- final state (for equivalence checks) ---
  std::vector<std::vector<Value>> final_registers;
  std::vector<EgressRecord> egress; // sorted by seq when recorded

  /// Packet throughput normalized to the input packet rate, the paper's
  /// §4.3 metric. Offered N packets over the arrival window at rate r,
  /// drained by `last_egress`: delivered-rate / offered-rate.
  double normalized_throughput() const;

  /// Measured input rate in packets per cycle.
  double input_rate() const;

  /// Fraction of processed packets that violated C1 at least once.
  /// (Packets dropped at ingress never touched state and are excluded.)
  double c1_fraction() const {
    return egressed == 0 ? 0.0
                         : static_cast<double>(c1_violating_packets) /
                               static_cast<double>(egressed);
  }

  double drop_fraction() const {
    return offered == 0 ? 0.0
                        : static_cast<double>(offered - egressed) /
                              static_cast<double>(offered);
  }

  /// The checkpoint field listing (common/serialize.hpp). The egress and
  /// fault-drop logs are written in their current (possibly unsorted
  /// mid-run) order — the run loop appends to them until the final sort,
  /// so restoring them in any other order would break bit-identity of the
  /// finished result.
  template <class Io> void transfer(Io& io);
};

/// One scalar counter of SimResult.
struct ResultCounter {
  const char* name;      // the field name, also its key in the results JSON
  const char* section;   // its "mp5-results" section
  const char* telemetry; // its telemetry counter name, or null
  std::uint64_t SimResult::*member;
};

/// Every scalar counter, in declaration order (which is also the
/// mp5-checkpoint v1 payload order).
inline constexpr ResultCounter kResultCounters[] = {
    {"offered", "packets", "sim.admitted", &SimResult::offered},
    {"egressed", "packets", "sim.egressed", &SimResult::egressed},
    {"dropped_phantom", "packets", nullptr, &SimResult::dropped_phantom},
    {"dropped_data", "packets", "sim.dropped_data", &SimResult::dropped_data},
    {"dropped_starved", "packets", "sim.dropped_starved",
     &SimResult::dropped_starved},
    {"dropped_fault", "packets", "sim.dropped_fault",
     &SimResult::dropped_fault},
    {"ecn_marked", "packets", "sim.ecn_marked", &SimResult::ecn_marked},
    {"first_arrival", "timing", nullptr, &SimResult::first_arrival},
    {"last_arrival", "timing", nullptr, &SimResult::last_arrival},
    {"last_egress", "timing", nullptr, &SimResult::last_egress},
    {"cycles_run", "timing", nullptr, &SimResult::cycles_run},
    {"steers", "mechanics", "sim.steers", &SimResult::steers},
    {"wasted_cycles", "mechanics", "fifo.pop_wasted",
     &SimResult::wasted_cycles},
    {"blocked_cycles", "mechanics", "fifo.pop_blocked",
     &SimResult::blocked_cycles},
    {"remap_moves", "mechanics", "shard.rebalance_moves",
     &SimResult::remap_moves},
    {"recirculations", "mechanics", nullptr, &SimResult::recirculations},
    {"max_queue_depth", "mechanics", nullptr, &SimResult::max_queue_depth},
    {"pipeline_failures", "faults", "fault.lane_failures",
     &SimResult::pipeline_failures},
    {"pipeline_recoveries", "faults", "fault.lane_recoveries",
     &SimResult::pipeline_recoveries},
    {"fault_remapped_indices", "faults", "shard.fault_rehomed_indices",
     &SimResult::fault_remapped_indices},
    {"phantom_lost", "faults", "phantom.lost", &SimResult::phantom_lost},
    {"phantom_delayed", "faults", "phantom.delayed",
     &SimResult::phantom_delayed},
    {"stalled_cycles", "faults", "fault.stalled_cycles",
     &SimResult::stalled_cycles},
    {"time_to_recover", "faults", nullptr, &SimResult::time_to_recover},
    {"c1_violating_packets", "correctness", nullptr,
     &SimResult::c1_violating_packets},
    {"reordered_flow_packets", "correctness", nullptr,
     &SimResult::reordered_flow_packets},
};

// A new SimResult field without a row fails to compile here: every counter
// is 8 bytes wide and everything else is one of the three logs.
static_assert(sizeof(SimResult) ==
                  sizeof(std::uint64_t) * std::size(kResultCounters) +
                      sizeof(SimResult::fault_drops) +
                      sizeof(SimResult::final_registers) +
                      sizeof(SimResult::egress),
              "every SimResult counter needs a kResultCounters row");

/// Field-by-field equality of two results — the checkpoint/restore
/// bit-identity contract. On mismatch returns false and, when `why` is
/// non-null, names the first differing field.
bool same_results(const SimResult& a, const SimResult& b,
                  std::string* why = nullptr);

/// FNV-1a digest of every field same_results() compares, in a fixed
/// order: two results with equal digests are field-by-field identical (up
/// to hash collisions). The golden digests in the tests pin it.
std::uint64_t result_digest(const SimResult& r);

/// Folds register arrays into `d`: their count, then each array's size
/// and values (the register part of every result digest).
void add_registers(Fnv1aDigest& d,
                   const std::vector<std::vector<Value>>& registers);

} // namespace mp5
