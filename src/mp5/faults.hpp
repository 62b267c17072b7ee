// Deterministic fault injection for the MP5 simulator.
//
// Production switches lose lanes, drop phantoms, and overflow FIFOs. A
// FaultPlan schedules seeded faults against one run:
//   * whole-pipeline failure at a given cycle, with optional recovery —
//     the lane's in-flight packets are lost and its active shard indices
//     are atomically re-homed to the surviving pipelines. Because D1 makes
//     every pipeline identically programmed, any survivor can serve any
//     index, so the failure is masked at ~(k-1)/k throughput instead of
//     taking the switch down;
//   * transient stage-cell stalls (a cell processes nothing for a window);
//   * phantom-channel loss and extra delay (§3.3's separate channel: a
//     lost phantom orphans its data packet, a delayed one can land after
//     it);
//   * forced FIFO-capacity pressure windows (every stage FIFO behaves as
//     if its capacity were clamped).
//
// The plan is pure configuration: the same plan + seed + trace always
// reproduces the same fault sequence. Unavoidable packet losses are
// declared in SimResult::dropped_fault and streamed to
// SimOptions::fault_drop_sink, so functional equivalence can still be
// checked modulo the declared drop set.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace mp5 {

inline constexpr Cycle kNeverRecovers = ~Cycle{0};

/// Whole-pipeline failure: the lane stops at `fail_at` (packets inside it
/// are lost) and, unless `recover_at` == kNeverRecovers, rejoins empty at
/// `recover_at`.
struct PipelineFault {
  PipelineId pipeline = 0;
  Cycle fail_at = 0;
  Cycle recover_at = kNeverRecovers;
};

/// Transient stall of one (pipeline, stage) cell during [from, until):
/// the cell processes nothing. Stateful arrivals still join the stage FIFO
/// (an insert is a memory operation, not a processing slot); stateless
/// pass-through arrivals are dropped — they may never be queued
/// (Invariant 2), and a stalled cell cannot serve them.
struct StageStall {
  PipelineId pipeline = 0;
  StageId stage = 0;
  Cycle from = 0;
  Cycle until = 0;
};

/// Forced FIFO pressure during [from, until): every stage FIFO lane
/// behaves as if its per-lane capacity were at most `capacity`, forcing
/// the §3.4 drop paths even in the unbounded configuration.
struct FifoPressure {
  Cycle from = 0;
  Cycle until = 0;
  std::size_t capacity = 1;
};

struct FaultPlan {
  std::vector<PipelineFault> pipeline_faults;
  std::vector<StageStall> stalls;
  std::vector<FifoPressure> fifo_pressure;

  /// Per-phantom probability of being lost on the phantom channel. The
  /// orphaned data packet is detected at its stateful stage (no
  /// placeholder in the FIFO) and dropped with `dropped_fault` accounting
  /// instead of deadlocking.
  double phantom_loss_rate = 0.0;

  /// Per-phantom probability of an extra `phantom_extra_delay` cycles on
  /// the channel. A delayed phantom can break Invariant 1 (arrive after
  /// its data packet); the data packet is then dropped as a fault and the
  /// late phantom arrives pre-cancelled, costing one wasted pop.
  double phantom_delay_rate = 0.0;
  Cycle phantom_extra_delay = 0;

  bool empty() const;
  bool has_phantom_faults() const {
    return phantom_loss_rate > 0.0 || phantom_delay_rate > 0.0;
  }

  /// Throws ConfigError when the plan is internally inconsistent or does
  /// not fit a k-pipeline simulator.
  void validate(std::uint32_t pipelines) const;
};

/// Runtime view of a FaultPlan: the cycle-indexed queries the simulator
/// makes. Lane fail/recover events are pre-sorted; stall and pressure
/// windows are scanned (plans hold a handful of entries).
class FaultSchedule {
public:
  FaultSchedule() = default;
  FaultSchedule(const FaultPlan& plan, std::uint32_t pipelines);

  struct LaneEvent {
    Cycle cycle = 0;
    PipelineId pipeline = 0;
    bool fail = true; // false: recovery
  };

  /// All lane events, sorted by (cycle, fail-before-recover, pipeline).
  const std::vector<LaneEvent>& lane_events() const { return lane_events_; }

  bool stalled(PipelineId pipeline, StageId stage, Cycle now) const;

  /// Effective per-lane FIFO capacity clamp this cycle; 0 = no clamp.
  std::size_t pressure_capacity(Cycle now) const;

  bool any() const { return any_; }
  bool has_stalls() const { return !stalls_.empty(); }
  bool has_pressure() const { return !pressure_.empty(); }

  /// The raw stall windows: the simulator accounts stalled-but-empty
  /// cells arithmetically instead of visiting them, and clamps its cycle
  /// skips so no stall-covered cycle is jumped over.
  const std::vector<StageStall>& stalls() const { return stalls_; }

private:
  std::vector<LaneEvent> lane_events_;
  std::vector<StageStall> stalls_;
  std::vector<FifoPressure> pressure_;
  bool any_ = false;
};

} // namespace mp5
