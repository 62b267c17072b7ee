#include "mp5/faults.hpp"

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace mp5 {

bool FaultPlan::empty() const {
  return pipeline_faults.empty() && stalls.empty() && fifo_pressure.empty() &&
         !has_phantom_faults();
}

void FaultPlan::validate(std::uint32_t pipelines) const {
  // Per-lane failure intervals, to reject overlaps below.
  std::map<PipelineId, std::vector<std::pair<Cycle, Cycle>>> windows;
  for (const auto& fault : pipeline_faults) {
    if (fault.pipeline >= pipelines) {
      throw ConfigError("fault plan: pipeline " +
                        std::to_string(fault.pipeline) + " out of range (k=" +
                        std::to_string(pipelines) + ")");
    }
    if (fault.recover_at != kNeverRecovers &&
        fault.recover_at <= fault.fail_at) {
      throw ConfigError("fault plan: recovery cycle must be after the "
                        "failure cycle");
    }
    windows[fault.pipeline].emplace_back(fault.fail_at, fault.recover_at);
  }
  for (auto& [pipeline, spans] : windows) {
    std::sort(spans.begin(), spans.end());
    for (std::size_t i = 1; i < spans.size(); ++i) {
      if (spans[i - 1].second == kNeverRecovers ||
          spans[i].first < spans[i - 1].second) {
        throw ConfigError("fault plan: overlapping failure windows for "
                          "pipeline " + std::to_string(pipeline));
      }
    }
  }
  if (!pipeline_faults.empty() && pipelines < 2) {
    throw ConfigError("fault plan: pipeline failure needs k >= 2 (no "
                      "survivor to remap state to)");
  }
  // Replay the lane events in FaultSchedule order (by cycle, a failure
  // before a recovery at the same cycle): some pipeline must stay alive
  // throughout, or the run would die mid-way with no survivor to re-home
  // state to.
  std::vector<std::pair<Cycle, bool>> events; // (cycle, is_recovery)
  for (const auto& fault : pipeline_faults) {
    events.emplace_back(fault.fail_at, false);
    if (fault.recover_at != kNeverRecovers) {
      events.emplace_back(fault.recover_at, true);
    }
  }
  std::sort(events.begin(), events.end());
  std::uint32_t down = 0;
  for (const auto& [cycle, is_recovery] : events) {
    if (is_recovery) {
      --down;
    } else if (++down == pipelines) {
      throw ConfigError("fault plan: all " + std::to_string(pipelines) +
                        " pipelines are down at cycle " +
                        std::to_string(cycle) +
                        "; at least one must stay alive");
    }
  }
  for (const auto& stall : stalls) {
    if (stall.pipeline >= pipelines) {
      throw ConfigError("fault plan: stall pipeline out of range");
    }
    if (stall.until <= stall.from) {
      throw ConfigError("fault plan: stall window must be non-empty");
    }
  }
  for (const auto& pressure : fifo_pressure) {
    if (pressure.until <= pressure.from) {
      throw ConfigError("fault plan: pressure window must be non-empty");
    }
    if (pressure.capacity == 0) {
      throw ConfigError("fault plan: pressure capacity must be >= 1 (0 "
                        "would reject every phantom forever)");
    }
  }
  if (phantom_loss_rate < 0.0 || phantom_loss_rate > 1.0 ||
      phantom_delay_rate < 0.0 || phantom_delay_rate > 1.0) {
    throw ConfigError("fault plan: phantom loss/delay rates must be "
                      "probabilities in [0, 1]");
  }
  if (phantom_delay_rate > 0.0 && phantom_extra_delay == 0) {
    throw ConfigError("fault plan: phantom_delay_rate needs a nonzero "
                      "phantom_extra_delay");
  }
}

FaultSchedule::FaultSchedule(const FaultPlan& plan, std::uint32_t pipelines)
    : stalls_(plan.stalls), pressure_(plan.fifo_pressure) {
  plan.validate(pipelines);
  for (const auto& fault : plan.pipeline_faults) {
    lane_events_.push_back(LaneEvent{fault.fail_at, fault.pipeline, true});
    if (fault.recover_at != kNeverRecovers) {
      lane_events_.push_back(
          LaneEvent{fault.recover_at, fault.pipeline, false});
    }
  }
  std::sort(lane_events_.begin(), lane_events_.end(),
            [](const LaneEvent& a, const LaneEvent& b) {
              if (a.cycle != b.cycle) return a.cycle < b.cycle;
              if (a.fail != b.fail) return a.fail; // fail before recover
              return a.pipeline < b.pipeline;
            });
  any_ = !plan.empty();
}

bool FaultSchedule::stalled(PipelineId pipeline, StageId stage,
                            Cycle now) const {
  for (const auto& stall : stalls_) {
    if (stall.pipeline == pipeline && stall.stage == stage &&
        now >= stall.from && now < stall.until) {
      return true;
    }
  }
  return false;
}

std::size_t FaultSchedule::pressure_capacity(Cycle now) const {
  std::size_t clamp = 0;
  for (const auto& pressure : pressure_) {
    if (now >= pressure.from && now < pressure.until &&
        (clamp == 0 || pressure.capacity < clamp)) {
      clamp = pressure.capacity;
    }
  }
  return clamp;
}

} // namespace mp5
