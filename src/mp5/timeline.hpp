// Timeline instrumentation: a per-event stream from the MP5 simulator,
// used by cycle-exact tests (e.g. the Figure 3 Table III scenario), the
// §3.4 invariant checks, and mp5sim's --timeline mode.
#pragma once

#include <functional>

#include "common/types.hpp"

namespace mp5 {

struct TimelineEvent {
  enum class Kind : std::uint8_t {
    kAdmit,        // packet assigned seq and sprayed to a pipeline ingress
    kPhantomPush,  // phantom delivered to (pipeline, stage) FIFO
    kPassThrough,  // stateless processing at (pipeline, stage)
    kInsert,       // data packet replaced its phantom at (pipeline, stage)
    kPopData,      // stateful processing at (pipeline, stage)
    kPopWasted,    // cancelled phantom reclaimed (one wasted cycle)
    kBlocked,      // FIFO head was a phantom: the cell slept for `arg`
                   // cycles, [cycle - arg, cycle), reported once when the
                   // span closes
    kSteer,        // crossbar move between pipelines at a stage boundary
    kCancel,       // conservative phantom cancelled in flight
    kEgress,
    kDropData,
    kDropStarved,
    kDropFault,    // packet lost to an injected fault (lane death, lost
                   // phantom, stalled cell)
    kLaneFail,     // scheduled pipeline failure took the lane down
    kLaneRecover,  // scheduled recovery brought the lane back (empty)
    kRemap,        // periodic shard rebalance re-homed indices (arg = moves)
  };
  Kind kind = Kind::kAdmit;
  Cycle cycle = 0;
  PipelineId pipeline = 0;
  StageId stage = 0;
  SeqNo seq = kInvalidSeqNo; // kInvalidSeqNo for packet-less events
  std::uint64_t arg = 0;     // event-specific payload (e.g. remap moves)
};

using TimelineHook = std::function<void(const TimelineEvent&)>;

// Inline (not in mp5_core's simulator.cpp) so lower layers — notably the
// telemetry exporters — can name events without a link dependency on the
// simulator.
inline const char* to_string(TimelineEvent::Kind kind) {
  switch (kind) {
    case TimelineEvent::Kind::kAdmit: return "admit";
    case TimelineEvent::Kind::kPhantomPush: return "phantom";
    case TimelineEvent::Kind::kPassThrough: return "pass";
    case TimelineEvent::Kind::kInsert: return "insert";
    case TimelineEvent::Kind::kPopData: return "pop";
    case TimelineEvent::Kind::kPopWasted: return "wasted";
    case TimelineEvent::Kind::kBlocked: return "blocked";
    case TimelineEvent::Kind::kSteer: return "steer";
    case TimelineEvent::Kind::kCancel: return "cancel";
    case TimelineEvent::Kind::kEgress: return "egress";
    case TimelineEvent::Kind::kDropData: return "drop";
    case TimelineEvent::Kind::kDropStarved: return "drop_starved";
    case TimelineEvent::Kind::kDropFault: return "drop_fault";
    case TimelineEvent::Kind::kLaneFail: return "lane_fail";
    case TimelineEvent::Kind::kLaneRecover: return "lane_recover";
    case TimelineEvent::Kind::kRemap: return "remap";
  }
  return "?";
}

} // namespace mp5
