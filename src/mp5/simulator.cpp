#include "mp5/simulator.hpp"

#include <algorithm>
#include <bit>

#include "common/error.hpp"

namespace mp5 {
namespace {

bool entry_live(const PlannedAccess& e) { return !e.done && !e.cancelled; }

} // namespace

Mp5Simulator::Mp5Simulator(const Mp5Program& program, const SimOptions& options)
    : prog_(&program), opts_(options), c1_(program.pvsm.registers) {
  // Option validation: every inconsistent combination is rejected here, at
  // construction, instead of being silently patched or misbehaving at run
  // time.
  if (opts_.pipelines == 0) {
    throw ConfigError("SimOptions: pipelines must be > 0");
  }
  if (opts_.naive_single_pipeline &&
      opts_.sharding != ShardingPolicy::kSinglePipeline) {
    throw ConfigError(
        "SimOptions: naive_single_pipeline requires "
        "ShardingPolicy::kSinglePipeline (use baseline::naive_options)");
  }
  if (opts_.ideal_queues && opts_.sharding != ShardingPolicy::kIdealLpt) {
    throw ConfigError(
        "SimOptions: ideal_queues models the §4.3.3 upper bound and "
        "requires ShardingPolicy::kIdealLpt");
  }
  if (opts_.fifo_capacity != 0 && !opts_.ideal_queues &&
      opts_.ecn_threshold >
          opts_.fifo_capacity * static_cast<std::size_t>(opts_.pipelines)) {
    // A stage FIFO holds k lanes of fifo_capacity entries each, so its
    // occupancy can never exceed k*capacity: a larger ECN threshold can
    // never fire. (starvation_threshold is measured in cycles waited, not
    // entries, so it has no comparable capacity bound.)
    throw ConfigError(
        "SimOptions: ecn_threshold exceeds the maximum stage-FIFO "
        "occupancy (pipelines * fifo_capacity); it could never trigger");
  }
  if (opts_.checkpoint_interval != 0 && !opts_.checkpoint_sink) {
    throw ConfigError(
        "SimOptions: checkpoint_interval requires a checkpoint_sink to "
        "receive the blobs");
  }
  opts_.faults.validate(opts_.pipelines);
  if (opts_.faults.has_phantom_faults() && !opts_.realistic_phantom_channel) {
    throw ConfigError(
        "SimOptions: phantom loss/delay faults need "
        "realistic_phantom_channel (instant delivery has no channel to "
        "fail)");
  }
  if (!opts_.faults.pipeline_faults.empty() &&
      opts_.sharding == ShardingPolicy::kSinglePipeline) {
    throw ConfigError(
        "SimOptions: pipeline failures need a sharding policy that can "
        "re-home state to survivors (not kSinglePipeline)");
  }

  k_ = opts_.pipelines;
  num_stages_ = prog_->num_stages;

  Rng rng(opts_.seed);
  // state_ forks first so fault-free runs see the same random stream as
  // before fault support existed.
  state_ = std::make_unique<ShardedState>(prog_->pvsm.registers,
                                          prog_->shardable, k_, opts_.sharding,
                                          rng.fork());
  fault_rng_ = rng.fork();
  fault_sched_ = FaultSchedule(opts_.faults, k_);
  lane_alive_.assign(k_, true);
  lost_phantoms_.resize(k_);

  const std::size_t cells =
      static_cast<std::size_t>(k_) * static_cast<std::size_t>(num_stages_);
  fifos_.reserve(cells);
  for (std::size_t c = 0; c < cells; ++c) {
    fifos_.emplace_back(k_, opts_.fifo_capacity, opts_.ideal_queues);
  }
  arrival_slots_.assign(cells * k_, ArrivedRef{});
  arrival_count_.assign(cells, 0);
  ingress_.resize(k_);

  lane_words_ = (k_ + 63) / 64;
  active_.assign(static_cast<std::size_t>(num_stages_) * lane_words_, 0);
  blocked_since_.assign(cells, kAwake);
}

// ---------------------------------------------------------------------------
// Run loop
// ---------------------------------------------------------------------------

SimResult Mp5Simulator::run(const Trace& trace) {
  VectorTraceSource source(trace);
  return run(source);
}

SimResult Mp5Simulator::run(TraceSource& source) {
  result_ = SimResult{};

  // Pre-size the arena: it grows to the peak number of in-flight packets
  // (bounded by the trace but usually far smaller), and a streaming soak
  // trace is effectively unbounded, so cap the reservation.
  const std::optional<std::uint64_t> total = source.size();
  arena_.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(total.value_or(4096), 4096)));

  next_checkpoint_ = opts_.checkpoint_interval; // 0 when disabled
  return run_loop(source, 0);
}

// ---------------------------------------------------------------------------
// Co-simulation stepping API (see header): the run_loop walk under an
// external clock. begin + step(0..n) + finish(n) == run(), bit for bit.
// ---------------------------------------------------------------------------

void Mp5Simulator::begin(TraceSource& source) {
  if (opts_.checkpoint_interval != 0) {
    throw ConfigError(
        "Mp5Simulator::begin: checkpointing is owned by run(); an "
        "externally clocked run cannot honor checkpoint_interval");
  }
  if (source_ != nullptr) {
    throw Error("Mp5Simulator::begin: a run is already active");
  }
  result_ = SimResult{};
  const std::optional<std::uint64_t> total = source.size();
  arena_.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(total.value_or(4096), 4096)));
  source_ = &source;
}

void Mp5Simulator::step(Cycle now) {
  if (source_ == nullptr) {
    throw Error("Mp5Simulator::step: no active run (call begin first)");
  }
  step_cycle(now);
}

bool Mp5Simulator::has_work() { return work_remaining(); }

SimResult Mp5Simulator::finish(Cycle end_cycle) {
  if (source_ == nullptr) {
    throw Error("Mp5Simulator::finish: no active run (call begin first)");
  }
  return finalize(end_cycle);
}

SimResult Mp5Simulator::run_loop(TraceSource& source, Cycle start_cycle) {
  source_ = &source;
  Cycle now = start_cycle;
  try {
    while (work_remaining()) {
      // 0a. Idle-cycle skip: with the switch drained (no live packet, so
      //     the source is non-empty, and no set activity bit, so no zombie
      //     phantom is queued), every cycle until the next event is a
      //     provable no-op — jump there. next_event_cycle clamps the jump
      //     at every observable boundary: checkpoints, remaps, fault
      //     events and stall windows.
      if (live_packets_ == 0 && activity_all_clear()) {
        const Cycle next = next_event_cycle(now);
        if (opts_.remap_period != 0) {
          // The remap boundaries jumped over close provably idle windows:
          // they count as rebalance runs, as if stepped.
          const Cycle period = opts_.remap_period;
          state_->counts().rebalance_runs += next / period - now / period;
        }
        now = next;
      }
      if (now >= opts_.max_cycles) {
        throw Error(
            "Mp5Simulator: max_cycles exceeded (deadlock or overload?)");
      }
      // 0b. Periodic checkpoint, at the top of the cycle: the blob captures
      //     the state *before* this cycle's fault events and arrivals, so a
      //     resumed run replays them identically.
      if (opts_.checkpoint_interval != 0 && now >= next_checkpoint_) {
        do_checkpoint(now);
        next_checkpoint_ = ((now / opts_.checkpoint_interval) + 1) *
                           opts_.checkpoint_interval;
      }
      step_cycle(now);
      ++now;
    }
  } catch (...) {
    source_ = nullptr;
    throw;
  }
  return finalize(now);
}

void Mp5Simulator::step_cycle(Cycle now) {
  // 0c. Scheduled faults fire at the cycle boundary, before arrivals,
  //     so packets admitted this cycle already see the new lane set.
  if (fault_sched_.any()) {
    apply_fault_events(now);
    if (fault_sched_.has_pressure()) {
      const std::size_t cap = fault_sched_.pressure_capacity(now);
      if (cap != current_pressure_) {
        current_pressure_ = cap;
        for (auto& fifo : fifos_) fifo.set_pressure_capacity(cap);
      }
    }
  }
  // 1. Arrivals for this cycle (the source yields items pre-sorted by
  //    (time, port); file sources enforce that on read).
  for (const TraceItem* item;
       (item = source_->peek()) != nullptr &&
       item->arrival_time < static_cast<double>(now + 1);
       source_->advance()) {
    const bool first = result_.offered == 0;
    admit(*item, now);
    if (first) result_.first_arrival = now;
    result_.last_arrival = now;
  }
  // 1b. Phantom channel: deliver phantoms whose hop count has elapsed.
  if (opts_.realistic_phantom_channel) deliver_due_phantoms(now);
  // 2. Ingress: each live pipeline admits one packet into the AR stage.
  for (PipelineId p = 0; p < k_; ++p) {
    if (!lane_alive_[p]) continue;
    if (!ingress_[p].empty()) {
      push_arrival(p, 0, ingress_[p].front(), p);
      ingress_[p].pop_front();
    }
  }
  // 3. Stage processing, last stage first so packets move one stage per
  //    cycle (outputs land in already-processed downstream cells), lanes
  //    ascending within a stage. Only cells with a set activity bit are
  //    visited; dead lanes are skipped (their queues were drained at
  //    failure time).
  //
  //    A stalled cell counts one stalled cycle per cycle even when it is
  //    empty. Visited cells count it in step_cell; the unvisited empty
  //    ones are counted here, before the walk mutates any bit, and the
  //    sleeping ones are woken.
  if (fault_sched_.has_stalls()) {
    const auto& stalls = fault_sched_.stalls();
    std::uint64_t skipped = 0;
    for (std::size_t i = 0; i < stalls.size(); ++i) {
      const auto& s = stalls[i];
      if (now < s.from || now >= s.until) continue;
      if (s.pipeline >= k_ || s.stage >= num_stages_) continue;
      if (!lane_alive_[s.pipeline]) continue;
      if (cell_active(s.pipeline, s.stage)) continue; // the walk counts it
      if (blocked_since_[cell(s.pipeline, s.stage)] != kAwake) {
        // Asleep on a phantom head: wake it, so its span closes before
        // the stall and the walk counts the stalled cycle.
        mark_active(s.pipeline, s.stage);
        continue;
      }
      // One stalled cycle per *cell* per cycle, however many windows
      // cover it.
      bool counted = false;
      for (std::size_t j = 0; j < i && !counted; ++j) {
        const auto& t = stalls[j];
        counted = t.pipeline == s.pipeline && t.stage == s.stage &&
                  now >= t.from && now < t.until;
      }
      if (!counted) ++skipped;
    }
    result_.stalled_cycles += skipped;
  }
  //    A visited cell's bit is cleared once the cell is empty again, or
  //    by step_cell when it goes to sleep on a phantom head. Bits the walk
  //    sets itself (a processed packet advancing into stage
  //    st + 1) always land in rows already behind the cursor, exactly like
  //    arrivals landing in already-processed downstream cells.
  for (StageId st = num_stages_; st-- > 0;) {
    const std::size_t row = static_cast<std::size_t>(st) * lane_words_;
    for (std::uint32_t widx = 0; widx < lane_words_; ++widx) {
      std::uint64_t word = active_[row + widx];
      while (word != 0) {
        const PipelineId p =
            static_cast<PipelineId>((widx << 6) + std::countr_zero(word));
        word &= word - 1;
        if (!lane_alive_[p]) continue; // failure already drained the lane
        step_cell(p, st, now);
        if (fifos_[cell(p, st)].size() == 0) clear_active(p, st);
      }
    }
  }
  // 4. Periodic dynamic state sharding (Figure 6).
  if (opts_.remap_period != 0 && (now + 1) % opts_.remap_period == 0) {
    const std::size_t moves = state_->rebalance();
    result_.remap_moves += moves;
    if (moves != 0) {
      emit(TimelineEvent::Kind::kRemap, now, 0, 0, kInvalidSeqNo,
           static_cast<std::uint64_t>(moves));
    }
  }
  // 5. Cycle-end watchdog.
  if (opts_.paranoid_checks) check_invariants(now);
}

SimResult Mp5Simulator::finalize(Cycle now) {
  source_ = nullptr;
  for (std::size_t c = 0; c < blocked_since_.size(); ++c) {
    if (blocked_since_[c] != kAwake) close_blocked_span(c, now);
  }
  result_.cycles_run = now;
  result_.final_registers = state_->regs().storage();
  result_.c1_violating_packets = c1_.violating_packets();
  for (const auto& fifo : fifos_) {
    result_.max_queue_depth = std::max<std::uint64_t>(
        result_.max_queue_depth, fifo.high_water());
  }
  export_telemetry();
  return std::move(result_);
}

std::array<std::pair<const char*, std::uint64_t*>, 9>
Mp5Simulator::named_counts() {
  ShardedState::Counts& shard = state_->counts();
  return {{{"phantom.sent", &counts_.phantom_sent},
           {"fifo.push", &counts_.fifo_push},
           {"fifo.push_dropped", &counts_.fifo_push_dropped},
           {"fifo.insert", &counts_.fifo_insert},
           {"fifo.cancel", &counts_.fifo_cancel},
           {"fifo.pop_data", &counts_.fifo_pop_data},
           {"shard.state_accesses", &shard.state_accesses},
           {"shard.touched_indices", &shard.touched_indices},
           {"shard.rebalance_runs", &shard.rebalance_runs}}};
}

void Mp5Simulator::export_telemetry() {
  telemetry::Telemetry* telem = opts_.telemetry;
  if (telem == nullptr) return;
  const std::string& prefix = opts_.telemetry_prefix;
  for (const ResultCounter& c : kResultCounters) {
    if (c.telemetry != nullptr) {
      telem->counter(prefix + c.telemetry).inc(result_.*c.member);
    }
  }
  for (const auto& [name, value] : named_counts()) {
    telem->counter(prefix + name).inc(*value);
  }
  telem->histogram(prefix + "fifo.depth_on_push", 1.0, 64)
      .merge(depth_on_push_);
  telem->histogram(prefix + "sim.egress_latency", 1.0, 128)
      .merge(egress_latency_);
  telem->gauge(prefix + "sim.cycles_run")
      .set(static_cast<double>(result_.cycles_run));
  telem->gauge(prefix + "sim.max_queue_depth")
      .set(static_cast<double>(result_.max_queue_depth));
  telem->gauge(prefix + "sim.normalized_throughput")
      .set(result_.normalized_throughput());
  telem->gauge(prefix + "sim.arena_peak_live")
      .set(static_cast<double>(arena_.peak_live()));
  telem->gauge(prefix + "sim.arena_recycled_allocs")
      .set(static_cast<double>(arena_.recycled_allocs()));
}

// ---------------------------------------------------------------------------
// Idle-cycle skip and the activity bitmap
// ---------------------------------------------------------------------------

Cycle Mp5Simulator::next_event_cycle(Cycle now) {
  // Next trace arrival: admitted in the cycle its arrival time truncates
  // to (the run loop admits while arrival_time < now + 1). The caller
  // guarantees the source is non-empty.
  Cycle target = static_cast<Cycle>(source_->peek()->arrival_time);
  // A cancelled phantom still in flight is delivered as a zombie at its
  // scheduled cycle and costs a wasted pop afterwards.
  if (const auto deliver = channel_next_deliver(); deliver.has_value()) {
    target = std::min(target, *deliver);
  }
  // Remap boundaries are observable while the shard map's window is dirty
  // (the rebalance could move shards or reset live counters); with a
  // clean window the rebalance is a provable no-op (zero loads => zero
  // moves, nothing to reset) and the boundary can be skipped. run_loop
  // still counts the skipped boundary as a rebalance run.
  if (opts_.remap_period != 0 && state_->window_dirty()) {
    const Cycle period = opts_.remap_period;
    const Cycle boundary = ((now + period) / period) * period - 1;
    target = std::min(target, boundary);
  }
  // Never jump past a checkpoint boundary: the checkpoint must observe the
  // state at exactly that cycle. Landing there is behavior-neutral — the
  // switch is drained, so the boundary cycle is an empty walk.
  if (opts_.checkpoint_interval != 0) {
    target = std::min(target, next_checkpoint_);
  }
  // Lane fail/recover events mutate state at their exact cycle.
  const auto& events = fault_sched_.lane_events();
  if (fault_cursor_ < events.size()) {
    target = std::min(target, events[fault_cursor_].cycle);
  }
  // Every cycle covered by a stall window of an alive lane increments
  // stalled_cycles, so covered cycles are stepped one by one. Pressure
  // windows need no clamp: the capacity clamp only gates pushes, and a
  // skipped stretch is drained with no arrivals to push.
  for (const auto& s : fault_sched_.stalls()) {
    if (s.until <= now || s.stage >= num_stages_) continue;
    if (s.pipeline >= k_ || !lane_alive_[s.pipeline]) continue;
    target = std::min(target, std::max(s.from, now));
  }
  target = std::min<Cycle>(target, opts_.max_cycles);
  return std::max(target, now);
}

bool Mp5Simulator::activity_all_clear() const {
  for (const std::uint64_t word : active_) {
    if (word != 0) return false;
  }
  return true;
}

void Mp5Simulator::rebuild_activity() {
  std::fill(active_.begin(), active_.end(), 0);
  std::fill(blocked_since_.begin(), blocked_since_.end(), kAwake);
  for (PipelineId p = 0; p < k_; ++p) {
    for (StageId st = 0; st < num_stages_; ++st) {
      const std::size_t c = cell(p, st);
      if (fifos_[c].size() != 0 || arrival_count_[c] != 0) {
        mark_active(p, st);
      }
    }
  }
}

void Mp5Simulator::close_blocked_span(std::size_t c, Cycle now) {
  const Cycle span = now - blocked_since_[c];
  blocked_since_[c] = kAwake;
  if (span == 0) return; // restarted by a checkpoint this very cycle
  result_.blocked_cycles += span;
  emit(TimelineEvent::Kind::kBlocked, now,
       static_cast<PipelineId>(c / num_stages_),
       static_cast<StageId>(c % num_stages_), kInvalidSeqNo, span);
}

// ---------------------------------------------------------------------------
// Phantom channel (slot pool + lazy-deletion min-heap)
// ---------------------------------------------------------------------------

namespace {
/// Min-heap order on (deliver, seq) for std::*_heap (which build max-heaps,
/// hence the inverted comparisons).
constexpr auto kChannelDueLater = [](const auto& a, const auto& b) {
  if (a.deliver != b.deliver) return a.deliver > b.deliver;
  return a.seq > b.seq;
};
} // namespace

void Mp5Simulator::channel_push(Cycle deliver, const PendingPhantom& rec) {
  std::uint32_t slot;
  if (!channel_free_.empty()) {
    slot = channel_free_.back();
    channel_free_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(channel_slots_.size());
    channel_slots_.emplace_back();
  }
  PendingPhantom& dst = channel_slots_[slot];
  dst = rec;
  dst.stamp = channel_next_stamp_++;
  channel_heap_.push_back(ChannelDue{deliver, dst.seq, slot, dst.stamp});
  std::push_heap(channel_heap_.begin(), channel_heap_.end(), kChannelDueLater);
  channel_index_[ChannelKey{dst.seq, dst.pipeline, dst.stage}] = slot;
  ++channel_live_;
}

void Mp5Simulator::channel_free_slot(std::uint32_t slot) {
  channel_slots_[slot].stamp = 0; // invalidates any heap entry lazily
  channel_free_.push_back(slot);
  --channel_live_;
}

std::optional<Cycle> Mp5Simulator::channel_next_deliver() {
  while (!channel_heap_.empty()) {
    const ChannelDue& top = channel_heap_.front();
    if (channel_slots_[top.slot].stamp == top.stamp) return top.deliver;
    std::pop_heap(channel_heap_.begin(), channel_heap_.end(),
                  kChannelDueLater);
    channel_heap_.pop_back();
  }
  return std::nullopt;
}

void Mp5Simulator::deliver_due_phantoms(Cycle now) {
  // Collect everything due, then push in global arrival (seq) order so
  // every FIFO receives its phantoms in generation order (Invariant 1).
  due_scratch_.clear();
  while (!channel_heap_.empty() && channel_heap_.front().deliver <= now) {
    const ChannelDue top = channel_heap_.front();
    std::pop_heap(channel_heap_.begin(), channel_heap_.end(),
                  kChannelDueLater);
    channel_heap_.pop_back();
    PendingPhantom& rec = channel_slots_[top.slot];
    if (rec.stamp != top.stamp) continue; // stale: erased/recycled slot
    due_scratch_.push_back(rec);
    channel_index_.erase(ChannelKey{rec.seq, rec.pipeline, rec.stage});
    channel_free_slot(top.slot);
  }
  if (due_scratch_.empty()) return;
  std::sort(due_scratch_.begin(), due_scratch_.end(),
            [](const PendingPhantom& a, const PendingPhantom& b) {
              return a.seq < b.seq;
            });
  for (const auto& pending : due_scratch_) {
    if (!push_counted(pending.pipeline, pending.stage, pending.seq,
                      pending.reg, pending.index, pending.lane, now)) {
      ++result_.dropped_phantom;
      continue; // the data packet will miss its placeholder and be dropped
    }
    emit(TimelineEvent::Kind::kPhantomPush, now, pending.pipeline,
         pending.stage, pending.seq);
    if (pending.cancelled) {
      // Cancelled while in flight: arrives as a zombie (one wasted pop),
      // which may be the head.
      auto& fifo = fifo_at(pending.pipeline, pending.stage);
      if (fifo.cancel(pending.seq)) ++counts_.fifo_cancel;
      mark_active(pending.pipeline, pending.stage);
      emit(TimelineEvent::Kind::kCancel, now, pending.pipeline,
           pending.stage, pending.seq);
    }
  }
}

// ---------------------------------------------------------------------------
// Fault injection & graceful degradation
// ---------------------------------------------------------------------------

void Mp5Simulator::apply_fault_events(Cycle now) {
  const auto& events = fault_sched_.lane_events();
  while (fault_cursor_ < events.size() &&
         events[fault_cursor_].cycle <= now) {
    const auto& event = events[fault_cursor_++];
    if (event.fail) {
      fail_lane(event.pipeline, now);
    } else {
      recover_lane(event.pipeline, now);
    }
  }
}

void Mp5Simulator::fail_lane(PipelineId p, Cycle now) {
  emit(TimelineEvent::Kind::kLaneFail, now, p, 0, kInvalidSeqNo);
  ++result_.pipeline_failures;
  fail_marker_ = now;
  awaiting_egress_after_failure_ = true;

  // 1. Everything physically inside the lane dies with it.
  std::vector<PacketRef> doomed;
  for (const PacketRef ref : ingress_[p]) doomed.push_back(ref);
  ingress_[p].clear();
  for (StageId st = 0; st < num_stages_; ++st) {
    const std::size_t c = cell(p, st);
    for (std::uint32_t i = 0; i < arrival_count_[c]; ++i) {
      doomed.push_back(arrival_slots_[c * k_ + i].ref);
    }
    arrival_count_[c] = 0;
    for (const PacketRef ref : fifos_[c].drain_all()) doomed.push_back(ref);
    if (blocked_since_[c] != kAwake) close_blocked_span(c, now);
    clear_active(p, st);
  }

  // 2. Phantoms in flight toward the dead lane vanish with its channel
  //    ports (their packets are swept below: the plan entry is live).
  for (auto it = channel_index_.begin(); it != channel_index_.end();) {
    if (channel_slots_[it->second].pipeline == p) {
      channel_free_slot(it->second);
      it = channel_index_.erase(it);
    } else {
      ++it;
    }
  }
  lost_phantoms_[p].clear();

  // 3. Sweep the survivors for packets doomed to visit the dead lane: a
  //    live plan entry targeting it can no longer be served. Dropping them
  //    now (rather than at steer time) keeps the in-flight counters exact
  //    for the remap below.
  const auto doomed_pred = [this, p](PacketRef ref) {
    for (const auto& e : arena_.get(ref).plan) {
      if (entry_live(e) && e.pipeline == p) return true;
    }
    return false;
  };
  for (PipelineId q = 0; q < k_; ++q) {
    if (q == p || !lane_alive_[q]) continue;
    auto& ing = ingress_[q];
    for (auto it = ing.begin(); it != ing.end();) {
      if (doomed_pred(*it)) {
        doomed.push_back(*it);
        it = ing.erase(it);
      } else {
        ++it;
      }
    }
    for (StageId st = 0; st < num_stages_; ++st) {
      const std::size_t c = cell(q, st);
      const std::uint32_t n = arrival_count_[c];
      std::uint32_t kept = 0;
      for (std::uint32_t i = 0; i < n; ++i) {
        const ArrivedRef a = arrival_slots_[c * k_ + i];
        if (doomed_pred(a.ref)) {
          doomed.push_back(a.ref);
        } else {
          arrival_slots_[c * k_ + kept++] = a;
        }
      }
      arrival_count_[c] = kept;
      for (const PacketRef ref : fifos_[c].extract_data_if(doomed_pred)) {
        doomed.push_back(ref);
      }
    }
  }

  // 4. Account the losses. Cancelling each packet's remaining phantoms
  //    also releases its in-flight counters, clearing the §3.4 guard.
  for (const PacketRef ref : doomed) {
    emit(TimelineEvent::Kind::kDropFault, now, p, 0, arena_.get(ref).seq);
    drop_packet(ref, DropCause::kFault, now);
  }

  // 5. Atomically re-home the dead lane's active indices to survivors.
  lane_alive_[p] = false;
  result_.fault_remapped_indices += state_->fail_pipeline(p);
}

void Mp5Simulator::recover_lane(PipelineId p, Cycle now) {
  state_->recover_pipeline(p);
  lane_alive_[p] = true;
  ++result_.pipeline_recoveries;
  emit(TimelineEvent::Kind::kLaneRecover, now, p, 0, kInvalidSeqNo);
}

PipelineId Mp5Simulator::spray_lane(SeqNo seq) const {
  std::uint32_t alive = 0;
  for (PipelineId p = 0; p < k_; ++p) {
    if (lane_alive_[p]) ++alive;
  }
  std::uint32_t pick = static_cast<std::uint32_t>(seq % alive);
  for (PipelineId p = 0; p < k_; ++p) {
    if (!lane_alive_[p]) continue;
    if (pick == 0) return p;
    --pick;
  }
  throw Error("Mp5Simulator::spray_lane: no live pipeline");
}

void Mp5Simulator::check_invariants(Cycle now) const {
  // Every live packet's plan addresses the program and the switch (the
  // checks below index by these coordinates): a restored checkpoint is
  // checked here before its first cycle.
  const auto& registers = prog_->pvsm.registers;
  for (PacketRef ref = 0; ref < arena_.slot_count(); ++ref) {
    if (!arena_.live(ref)) continue;
    const Packet& pkt = arena_.get(ref);
    for (const PlannedAccess& a : pkt.plan) {
      if (a.reg < registers.size() && a.pipeline < k_ &&
          a.stage < num_stages_ && a.phantom_lane < k_ &&
          a.phantom_owner < pkt.plan.size() &&
          (a.index == kUnresolvedIndex || a.index < registers[a.reg].size)) {
        continue;
      }
      throw InvariantError(
          "planned-access", now,
          "packet seq " + std::to_string(pkt.seq) + " plans reg " +
              std::to_string(a.reg) + " index " + std::to_string(a.index) +
              " at (" + std::to_string(a.pipeline) + ", " +
              std::to_string(a.stage) + ") outside the program or switch");
    }
  }
  // Per-lane seq ordering (Invariant 1) is a property of the phantom
  // mechanism: the no-D4 ablation queues data packets in stage-arrival
  // order, and injected phantom delays legitimately reorder a lane. Every
  // other structural property must still hold.
  const bool check_order =
      opts_.phantoms && opts_.faults.phantom_delay_rate == 0.0;
  std::uint64_t in_containers = 0;
  for (PipelineId p = 0; p < k_; ++p) {
    if (!lane_alive_[p] && !ingress_[p].empty()) {
      throw InvariantError("dead-lane", now,
                           "dead lane " + std::to_string(p) +
                               " has queued ingress packets");
    }
    in_containers += ingress_[p].size();
    for (StageId st = 0; st < num_stages_; ++st) {
      const std::size_t c = cell(p, st);
      const auto& fifo = fifos_[c];
      if (!lane_alive_[p] &&
          (fifo.size() != 0 || arrival_count_[c] != 0)) {
        throw InvariantError("dead-lane", now,
                             "dead lane " + std::to_string(p) +
                                 " has queued entries at stage " +
                                 std::to_string(st));
      }
      in_containers += arrival_count_[c];
      const bool asleep = blocked_since_[c] != kAwake;
      if (!cell_active(p, st) &&
          (arrival_count_[c] != 0 ||
           (asleep ? !fifo.head_blocked() : fifo.size() != 0))) {
        // A clear activity bit must prove the cell a no-op: no arrival,
        // and empty or asleep on a phantom head. A stale clear would make
        // the walk silently skip real work.
        throw InvariantError("event-activity", now,
                             "cell (" + std::to_string(p) + ", " +
                                 std::to_string(st) +
                                 ") can make progress but its activity bit "
                                 "is clear");
      }
      fifo.check_invariants(now, check_order);
      fifo.for_each_entry([&](const FifoEntry& entry) {
        if (entry.kind != FifoEntry::Kind::kData) return;
        ++in_containers;
        if (!arena_.live(entry.ref)) {
          throw InvariantError("arena", now,
                               "queued FIFO entry addresses a released "
                               "arena slot");
        }
        const Packet& pkt = arena_.get(entry.ref);
        // Invariant 2: only packets awaiting stateful processing at this
        // very cell may be queued here.
        bool awaiting_here = false;
        for (const auto& e : pkt.plan) {
          if (!entry_live(e)) continue;
          awaiting_here = e.stage == st && e.pipeline == p;
          break;
        }
        if (!awaiting_here) {
          throw InvariantError(
              "invariant-2", now,
              "queued packet seq " + std::to_string(pkt.seq) +
                  " is not awaiting stateful processing at (" +
                  std::to_string(p) + ", " + std::to_string(st) + ")");
        }
      });
    }
  }
  if (in_containers != live_packets_) {
    throw InvariantError("live-packets", now,
                         std::to_string(live_packets_) +
                             " packets live but " +
                             std::to_string(in_containers) + " queued");
  }
  if (in_containers != arena_.live_count()) {
    throw InvariantError("arena", now,
                         std::to_string(arena_.live_count()) +
                             " live arena slots but " +
                             std::to_string(in_containers) +
                             " packets queued");
  }
  if (opts_.realistic_phantom_channel) {
    if (channel_index_.size() != channel_live_) {
      throw InvariantError("phantom-channel", now,
                           "channel index size " +
                               std::to_string(channel_index_.size()) +
                               " != live channel records " +
                               std::to_string(channel_live_));
    }
    for (const auto& [key, slot] : channel_index_) {
      const PendingPhantom& rec = channel_slots_[slot];
      if (rec.stamp == 0 || rec.seq != key.seq ||
          rec.pipeline != key.pipeline || rec.stage != key.stage) {
        throw InvariantError("phantom-channel", now,
                             "channel index entry for seq " +
                                 std::to_string(key.seq) +
                                 " addresses the wrong record");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Per-cycle packet movement
// ---------------------------------------------------------------------------

bool Mp5Simulator::work_remaining() {
  return live_packets_ > 0 ||
         (source_ != nullptr && source_->peek() != nullptr);
}

void Mp5Simulator::push_arrival(PipelineId dest, StageId st, PacketRef ref,
                                PipelineId from_lane) {
  const std::size_t c = cell(dest, st);
  const std::uint32_t n = arrival_count_[c];
  if (n >= k_) {
    // One packet per predecessor cell per cycle is a structural bound of
    // the crossbar; more means a routing bug, not congestion.
    throw Error("Mp5Simulator: arrival slots overflow at cell (" +
                std::to_string(dest) + ", " + std::to_string(st) + ")");
  }
  arrival_slots_[c * k_ + n] = ArrivedRef{ref, from_lane};
  arrival_count_[c] = n + 1;
  mark_active(dest, st);
}

void Mp5Simulator::admit(const TraceItem& item, Cycle now) {
  const PacketRef ref = arena_.alloc();
  Packet& pkt = arena_.get(ref);
  pkt.seq = next_seq_++;
  pkt.arrival_cycle = now;
  pkt.port = item.port;
  pkt.size_bytes = item.size_bytes;
  pkt.flow = item.flow;
  load_headers(item, prog_->pvsm, pkt.headers);

  // Address resolution: execute the hoisted stateless slices. They are
  // pure, so no register file is touched.
  ir::exec_pure(prog_->resolver, pkt.headers);

  // Build the access plan. The ingress spray covers live lanes only, so a
  // failed pipeline degrades throughput to ~(k-1)/k instead of blackholing
  // 1/k of the traffic.
  const PipelineId admit_lane =
      opts_.naive_single_pipeline ? 0 : spray_lane(pkt.seq);
  plan_accesses(*prog_, pkt.headers, *state_, pkt.plan);

  // Phantom generation (D4): one phantom per (stage, pipeline) group — a
  // packet that must access two co-located arrays in one stage holds a
  // single place in that stage's FIFO.
  if (opts_.phantoms) {
    PipelineId lane_pred = admit_lane;
    for (std::size_t i = 0; i < pkt.plan.size(); ++i) {
      auto& acc = pkt.plan[i];
      std::size_t owner = i;
      for (std::size_t j = 0; j < i; ++j) {
        if (pkt.plan[j].stage == acc.stage &&
            pkt.plan[j].pipeline == acc.pipeline) {
          owner = pkt.plan[j].phantom_owner;
          break;
        }
      }
      acc.phantom_owner = owner;
      acc.phantom_lane = lane_pred;
      if (owner == i) {
        if (opts_.realistic_phantom_channel) {
          // The phantom hops one stage per cycle on its own channel: it
          // reaches stage s after s cycles, always ahead of the data
          // packet (which needs ingress + s processing cycles).
          acc.phantom_delivered = false;
          const ChannelKey key{pkt.seq, acc.pipeline, acc.stage};
          if (opts_.faults.phantom_loss_rate > 0.0 &&
              fault_rng_.chance(opts_.faults.phantom_loss_rate)) {
            // Injected channel loss: the phantom never arrives. The data
            // packet finds no placeholder at its stateful stage and is
            // dropped there with fault accounting (instead of
            // deadlocking behind a hole in the order).
            lost_phantoms_[acc.pipeline].insert(key);
            ++result_.phantom_lost;
          } else {
            Cycle deliver = now + acc.stage;
            if (opts_.faults.phantom_delay_rate > 0.0 &&
                fault_rng_.chance(opts_.faults.phantom_delay_rate)) {
              deliver += opts_.faults.phantom_extra_delay;
              ++result_.phantom_delayed;
            }
            PendingPhantom pending;
            pending.seq = pkt.seq;
            pending.reg = acc.reg;
            pending.index = acc.index;
            pending.pipeline = acc.pipeline;
            pending.stage = acc.stage;
            pending.lane = lane_pred;
            channel_push(deliver, pending);
            ++counts_.phantom_sent;
          }
        } else {
          if (!push_counted(acc.pipeline, acc.stage, pkt.seq, acc.reg,
                            acc.index, lane_pred, now)) {
            acc.phantom_dropped = true;
            ++result_.dropped_phantom;
          } else {
            ++counts_.phantom_sent;
            emit(TimelineEvent::Kind::kPhantomPush, now, acc.pipeline,
                 acc.stage, pkt.seq);
          }
        }
      } else {
        acc.phantom_dropped = pkt.plan[owner].phantom_dropped;
        acc.phantom_delivered = pkt.plan[owner].phantom_delivered;
      }
      lane_pred = acc.pipeline;
    }
  }

  ++result_.offered;
  ++live_packets_;
  emit(TimelineEvent::Kind::kAdmit, now, admit_lane, 0, pkt.seq);
  ingress_[admit_lane].push_back(ref);
}

bool Mp5Simulator::push_counted(PipelineId p, StageId st, SeqNo seq,
                                RegId reg, RegIndex index, PipelineId lane,
                                Cycle now) {
  const std::size_t c = cell(p, st);
  StageFifo& fifo = fifos_[c];
  if (!fifo.push_phantom(seq, reg, index, lane, now)) {
    ++counts_.fifo_push_dropped;
    return false;
  }
  ++counts_.fifo_push;
  depth_on_push_.add(static_cast<double>(fifo.size()));
  // A phantom lands behind the FIFO head or becomes it, so it never lets
  // a cell make progress: a sleeping cell sleeps on, and an empty one
  // falls asleep on it at once (pushes outside a cell's own visit come
  // before the stage walk, whose visit would find it blocked).
  if (!cell_active(p, st) && blocked_since_[c] == kAwake) {
    blocked_since_[c] = now;
  }
  return true;
}

void Mp5Simulator::step_cell(PipelineId p, StageId st, Cycle now) {
  const std::size_t c = cell(p, st);
  if (blocked_since_[c] != kAwake) close_blocked_span(c, now);
  // Injected transient stall: the cell has no processing slot this cycle.
  // FIFO inserts still happen (they are memory operations, not processing)
  // but nothing is served — a stateless arrival must be dropped, since
  // Invariant 2 forbids queueing it.
  const bool stalled =
      fault_sched_.has_stalls() && fault_sched_.stalled(p, st, now);
  if (stalled) ++result_.stalled_cycles;

  StageFifo& fifo = fifos_[c];
  const std::size_t base = c * k_;
  const std::uint32_t n = arrival_count_[c];

  PacketRef passthrough = kNullPacketRef;
  for (std::uint32_t i = 0; i < n; ++i) {
    const PacketRef ref = arrival_slots_[base + i].ref;
    const PipelineId from_lane = arrival_slots_[base + i].from_lane;
    Packet& pkt = arena_.get(ref);
    PlannedAccess* acc = pkt.pending_access();
    if (acc != nullptr && acc->stage == st) {
      // Arriving for stateful processing here; acc->pipeline == p by
      // construction of routing.
      if (opts_.ecn_threshold != 0 && fifo.size() >= opts_.ecn_threshold) {
        // §3.4 backpressure: mark packets joining a congested FIFO.
        pkt.ecn_marked = true;
      }
      if (!opts_.phantoms) {
        // no-D4 ablation: queue the data packet directly at the stage.
        const SeqNo seq = pkt.seq;
        if (!push_counted(p, st, seq, acc->reg, acc->index, from_lane,
                          now)) {
          drop_packet(ref, DropCause::kData, now);
        } else {
          // Convert the just-pushed placeholder into the data packet.
          fifo.insert_data(seq, ref);
          ++counts_.fifo_insert;
        }
      } else if (acc->phantom_dropped) {
        emit(TimelineEvent::Kind::kDropData, now, p, st, pkt.seq);
        drop_packet(ref, DropCause::kData, now);
      } else if (!fifo.has_phantom(pkt.seq)) {
        if (!opts_.realistic_phantom_channel) {
          // Defensive: phantom vanished despite not being flagged dropped.
          throw Error("Mp5Simulator: phantom missing at insert");
        }
        // No placeholder for this data packet. Classify the orphan:
        const ChannelKey key{pkt.seq, p, st};
        if (lost_phantoms_[p].erase(key) != 0) {
          // The phantom was lost on the channel (injected fault): drop the
          // orphaned data packet with fault accounting instead of letting
          // it deadlock the FIFO order.
          emit(TimelineEvent::Kind::kDropFault, now, p, st, pkt.seq);
          drop_packet(ref, DropCause::kFault, now);
        } else if (auto chan = channel_index_.find(key);
                   chan != channel_index_.end()) {
          // The phantom is still in flight (injected extra delay let the
          // data packet overtake it — Invariant 1 broken for this packet).
          // Drop the packet; the late phantom arrives pre-cancelled and
          // costs one wasted pop.
          channel_slots_[chan->second].cancelled = true;
          emit(TimelineEvent::Kind::kDropFault, now, p, st, pkt.seq);
          drop_packet(ref, DropCause::kFault, now);
        } else {
          // The phantom was dropped at channel delivery (FIFO full): the
          // regular §3.4 drop path.
          emit(TimelineEvent::Kind::kDropData, now, p, st, pkt.seq);
          drop_packet(ref, DropCause::kData, now);
        }
      } else {
        const SeqNo seq = pkt.seq;
        if (!fifo.insert_data(seq, ref)) {
          throw Error("Mp5Simulator: insert failed with phantom present");
        }
        ++counts_.fifo_insert;
        emit(TimelineEvent::Kind::kInsert, now, p, st, seq);
      }
    } else {
      if (passthrough != kNullPacketRef) {
        throw Error("Mp5Simulator: two pass-through packets in one cell");
      }
      passthrough = ref;
    }
  }
  arrival_count_[c] = 0;

  if (passthrough != kNullPacketRef) {
    const SeqNo pt_seq = arena_.get(passthrough).seq;
    if (stalled) {
      // A stalled cell cannot serve the stateless packet, and Invariant 2
      // forbids queueing it: it is lost to the fault.
      emit(TimelineEvent::Kind::kDropFault, now, p, st, pt_seq);
      drop_packet(passthrough, DropCause::kFault, now);
    } else {
      // §3.4 starvation guard: when a queued stateful packet has waited
      // past the threshold, drop the arriving stateless packet instead of
      // serving it with priority (it is dropped, never queued —
      // Invariant 2 holds).
      bool starved = false;
      if (opts_.starvation_threshold != 0) {
        const auto oldest = fifo.oldest_head_enqueue();
        starved = oldest.has_value() &&
                  now - *oldest > opts_.starvation_threshold;
      }
      if (starved) {
        emit(TimelineEvent::Kind::kDropStarved, now, p, st, pt_seq);
        drop_packet(passthrough, DropCause::kStarved, now);
      } else {
        // Invariant 2: stateless packets are processed with priority and
        // never queued.
        emit(TimelineEvent::Kind::kPassThrough, now, p, st, pt_seq);
        process_packet(passthrough, p, st, /*from_fifo=*/false, now);
        return;
      }
    }
  }
  if (stalled) return; // no processing slot: the FIFO is not served

  auto popped = fifo.pop();
  switch (popped.kind) {
    case StageFifo::PopResult::Kind::kIdle:
      return;
    case StageFifo::PopResult::Kind::kBlocked:
      // Sleep until an event can change the head (see the activity
      // bitmap in simulator.hpp); the span is counted when it closes.
      blocked_since_[c] = now;
      clear_active(p, st);
      return;
    case StageFifo::PopResult::Kind::kWasted:
      ++result_.wasted_cycles;
      emit(TimelineEvent::Kind::kPopWasted, now, p, st, kInvalidSeqNo);
      return;
    case StageFifo::PopResult::Kind::kData:
      ++counts_.fifo_pop_data;
      emit(TimelineEvent::Kind::kPopData, now, p, st,
           arena_.get(popped.ref).seq);
      process_packet(popped.ref, p, st, /*from_fifo=*/true, now);
      return;
  }
}

void Mp5Simulator::exec_stage_atoms(Packet& pkt, PipelineId p, StageId st,
                                    bool from_fifo) {
  if (st == 0) return; // AR stage has no program atoms
  const ir::Stage& stage = prog_->pvsm.stages[st - 1];

  C1Observer obs(c1_, pkt.seq);
  for (const auto& atom : stage.atoms) {
    bool allow_state = false;
    if (atom.stateful() && from_fifo) {
      for (const auto& e : pkt.plan) {
        if (e.stage == st && e.reg == atom.reg && !e.cancelled &&
            e.pipeline == p) {
          allow_state = true;
          break;
        }
      }
    }
    if (atom.stateful() && !allow_state) {
      // Pass-through (or foreign-pipeline) execution: run the atom's pure
      // body but suppress state accesses. Their guards are false for this
      // packet by construction, so this matches reference semantics while
      // also protecting inactive register replicas.
      ir::exec_pure(atom.body, pkt.headers);
    } else {
      ir::exec_atom(atom, pkt.headers, state_->regs(), prog_->pvsm.registers,
                    &obs);
    }
  }
}

void Mp5Simulator::process_packet(PacketRef ref, PipelineId p, StageId st,
                                  bool from_fifo, Cycle now) {
  Packet& pkt = arena_.get(ref);
  exec_stage_atoms(pkt, p, st, from_fifo);

  if (from_fifo) {
    for (auto& e : pkt.plan) {
      if (e.stage == st && e.pipeline == p && entry_live(e)) {
        e.done = true;
        state_->note_completed(e.reg, e.index);
      }
    }
  }

  resolve_conservative_guards(pkt, st, now);
  route_onwards(ref, p, st, now);
}

void Mp5Simulator::resolve_conservative_guards(Packet& pkt,
                                               StageId done_stage,
                                               Cycle now) {
  for (std::size_t i = 0; i < pkt.plan.size(); ++i) {
    auto& e = pkt.plan[i];
    if (e.guard != GuardStatus::kConservative || !entry_live(e)) continue;
    if (e.guard_known_after_stage > done_stage) continue;
    const bool truthy =
        pkt.headers[static_cast<std::size_t>(e.guard_slot)] != 0;
    const bool taken = e.guard_negate ? !truthy : truthy;
    if (taken) {
      e.guard = GuardStatus::kTaken; // resolved: access will happen
    } else {
      cancel_entry(pkt, i, now);
    }
  }
}

void Mp5Simulator::cancel_entry(Packet& pkt, std::size_t entry_idx,
                                Cycle now) {
  auto& e = pkt.plan[entry_idx];
  e.cancelled = true;
  state_->note_completed(e.reg, e.index);
  if (!opts_.phantoms) return;

  // Zombie the phantom once every plan entry sharing it is cancelled.
  const std::size_t owner = e.phantom_owner;
  for (const auto& other : pkt.plan) {
    if (other.phantom_owner == owner && !other.cancelled) return;
  }
  const auto& owner_acc = pkt.plan[owner];
  if (owner_acc.phantom_dropped) return;
  if (opts_.realistic_phantom_channel && !owner_acc.phantom_delivered) {
    const ChannelKey key{pkt.seq, owner_acc.pipeline, owner_acc.stage};
    // Lost on the channel (injected fault): there is nothing to cancel,
    // just forget the pending orphan detection.
    if (lost_phantoms_[owner_acc.pipeline].erase(key) != 0) return;
    // Still on the phantom channel: mark it; it arrives as a zombie.
    auto it = channel_index_.find(key);
    if (it != channel_index_.end()) {
      channel_slots_[it->second].cancelled = true;
      return;
    }
    // Already delivered (the packet's flag is stale): fall through.
  }
  emit(TimelineEvent::Kind::kCancel, now, owner_acc.pipeline, owner_acc.stage,
       pkt.seq);
  if (fifo_at(owner_acc.pipeline, owner_acc.stage).cancel(pkt.seq)) {
    ++counts_.fifo_cancel;
    // The cancelled phantom may be the head its cell sleeps on.
    mark_active(owner_acc.pipeline, owner_acc.stage);
  }
}

void Mp5Simulator::drop_packet(PacketRef ref, DropCause cause, Cycle now) {
  Packet& pkt = arena_.get(ref);
  switch (cause) {
    case DropCause::kData: ++result_.dropped_data; break;
    case DropCause::kStarved: ++result_.dropped_starved; break;
    case DropCause::kFault: ++result_.dropped_fault; break;
  }
  if (opts_.fault_drop_sink) {
    // Whether the packet's partial state effects remain in the registers.
    const bool touched =
        std::any_of(pkt.plan.begin(), pkt.plan.end(),
                    [](const PlannedAccess& e) { return e.done; });
    opts_.fault_drop_sink(pkt.seq, touched);
  }
  for (std::size_t i = 0; i < pkt.plan.size(); ++i) {
    auto& e = pkt.plan[i];
    if (!entry_live(e)) continue;
    // Cancel downstream phantoms so they do not block their FIFOs forever.
    cancel_entry(pkt, i, now);
  }
  --live_packets_;
  arena_.release(ref);
}

void Mp5Simulator::route_onwards(PacketRef ref, PipelineId p, StageId st,
                                 Cycle now) {
  if (st == num_stages_ - 1) {
    egress_packet(ref, now);
    return;
  }
  Packet& pkt = arena_.get(ref);
  PipelineId dest = p;
  PlannedAccess* acc = pkt.pending_access();
  if (acc != nullptr && acc->stage == st + 1) {
    dest = acc->pipeline;
    if (dest != p) {
      ++result_.steers;
      emit(TimelineEvent::Kind::kSteer, now, dest, st + 1, pkt.seq);
    }
  }
  if (!lane_alive_[dest]) {
    // Defensive: the failure sweep drops every packet with a live plan
    // entry targeting a dead lane, so steering into one should be
    // impossible — but degrade gracefully rather than corrupting a dead
    // lane's queues if a future change breaks that guarantee.
    emit(TimelineEvent::Kind::kDropFault, now, dest, st + 1, pkt.seq);
    drop_packet(ref, DropCause::kFault, now);
    return;
  }
  push_arrival(dest, static_cast<StageId>(st + 1), ref, p);
}

void Mp5Simulator::egress_packet(PacketRef ref, Cycle now) {
  Packet& pkt = arena_.get(ref);
  emit(TimelineEvent::Kind::kEgress, now, 0, num_stages_ - 1, pkt.seq);
  ++result_.egressed;
  egress_latency_.add(static_cast<double>(now - pkt.arrival_cycle));
  --live_packets_;
  result_.last_egress = now;
  if (awaiting_egress_after_failure_) {
    // First successful egress since the most recent lane failure: the
    // switch is delivering packets again.
    result_.time_to_recover = now - fail_marker_;
    awaiting_egress_after_failure_ = false;
  }
  if (pkt.ecn_marked) ++result_.ecn_marked;
  if (opts_.egress_sink) {
    EgressRecord rec;
    rec.seq = pkt.seq;
    rec.egress_cycle = now;
    rec.flow = pkt.flow;
    rec.headers = std::move(pkt.headers);
    // A sink that only reads the headers leaves them in the record: the
    // row goes back to the arena slot, so the next admission reuses it.
    opts_.egress_sink(std::move(rec));
    pkt.headers = std::move(rec.headers);
  }
  arena_.release(ref);
}

} // namespace mp5
