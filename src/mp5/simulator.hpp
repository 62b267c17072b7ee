// Cycle-accurate simulator of the MP5 switch architecture (§3.2, Figure 4).
//
// Model, per clock cycle:
//   1. Arrivals: packets whose arrival time falls in this cycle are
//      admitted in (time, port) order. Each is assigned a global sequence
//      number, run through the compiled address-resolution logic (the
//      hoisted stateless slices), given its access plan
//      <reg, index, pipeline, stage> via the index-to-pipeline map, and
//      sprayed round-robin across pipeline ingress queues. Phantom packets
//      are generated immediately (§3.3 "phantom packets are generated on
//      packet arrival") and sent "on a separate channel" that hops one
//      stage per cycle and does no processing en route: the phantom for
//      stage s reaches its FIFO s cycles after admission, before its data
//      packet can (Invariant 1).
//   2. Each pipeline admits one packet per cycle from its ingress queue
//      into the address-resolution stage (transformed stage 0).
//   3. Every (pipeline, stage) cell processes at most one packet:
//      a packet arriving for stateful processing here replaces its phantom
//      in the logical FIFO (`insert`, not a processing slot); an arriving
//      stateless pass-through packet is processed with priority
//      (Invariant 2); otherwise the cell pops the FIFO — a phantom head
//      blocks, a cancelled phantom costs the wasted cycle of §3.3, a data
//      head executes the stage's atoms. Processed packets advance one
//      stage, steering through the crossbar when their next access lives
//      in another pipeline (D3).
//   4. Every remap period, the dynamic sharding heuristic (Figure 6) moves
//      register indexes between pipelines (in-flight guarded) and resets
//      the access counters.
//
// Hot-path engineering (see DESIGN.md "Performance engineering"):
//   * Packets live in a PacketArena and move between queues as 32-bit
//     refs; the per-cell arrival buffers are fixed-stride dense slots and
//     the (pipeline, stage) FIFO grid is one flat vector.
//   * The phantom channel is one delivery ring per stage: admission
//     follows seq order and every undelayed phantom for stage s is due at
//     its admission cycle + s, so each ring is both seq- and due-ordered.
//     The packet's plan entry holds its phantom's channel state, so a
//     cancel or an orphaned data packet needs no lookup.
//   * The stage walk is event-driven: an activity bitmap marks the cells
//     that might make progress, and only those are visited. A cell whose
//     FIFO head is a phantom sleeps until something can change that head,
//     and its blocked cycles are counted per span. When the switch is
//     completely drained, the clock jumps straight to the next event
//     (trace arrival, phantom delivery, observable remap boundary, fault
//     boundary), also under fault plans (see DESIGN.md "Event-driven
//     engine").
//
// The same class implements the ablations (no-D4, static sharding, naive
// single-pipeline, ideal) via SimOptions; the recirculation baseline has
// its own simulator in src/baseline.
#pragma once

#include <array>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "banzai/ir.hpp"
#include "common/ring_buffer.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "metrics/c1_checker.hpp"
#include "metrics/sim_result.hpp"
#include "mp5/faults.hpp"
#include "mp5/options.hpp"
#include "mp5/shard_map.hpp"
#include "mp5/stage_fifo.hpp"
#include "mp5/transform.hpp"
#include "packet/arena.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/trace.hpp"
#include "trace/trace_source.hpp"

namespace mp5 {

class ByteReader;

class Mp5Simulator {
public:
  Mp5Simulator(const Mp5Program& program, const SimOptions& options);

  Mp5Simulator(const Mp5Simulator&) = delete;
  Mp5Simulator& operator=(const Mp5Simulator&) = delete;

  /// Run a whole trace to completion (all packets egressed or dropped).
  SimResult run(const Trace& trace);

  /// Streaming variant: pull packets from a TraceSource (generator, mmap'd
  /// file, ...) instead of an in-memory Trace. Per-packet output leaves
  /// only through SimOptions::egress_sink / fault_drop_sink, so memory
  /// stays flat regardless of trace length.
  SimResult run(TraceSource& source);

  /// Resume a checkpointed run: restore the complete simulator state from
  /// an `mp5-checkpoint v1` blob (see mp5/checkpoint.hpp), fast-forward the
  /// source to the checkpoint's trace position, and run to completion. The
  /// simulator must be freshly constructed from the *same program and
  /// semantic options* as the checkpointing run (enforced via the config
  /// fingerprint); run knobs (checkpoint cadence, sinks, telemetry,
  /// paranoid checks) may differ. The returned SimResult is field-by-field
  /// identical to the uninterrupted run's.
  SimResult resume(TraceSource& source, std::string_view checkpoint_blob);

  // -- co-simulation stepping API --
  //
  // A FabricSimulator interleaves N switches on one global clock, feeding
  // each switch's egress into another's ingress mid-run — which run()
  // cannot do (it owns the whole cycle walk). begin/step/finish expose the
  // identical walk under an external clock:
  //
  //   sim.begin(source);
  //   for (Cycle c = 0; ...; ++c) sim.step(c);   // any cycles, any gaps
  //   SimResult r = sim.finish(end_cycle);
  //
  // step(c) executes exactly the per-cycle body of run_loop (faults,
  // arrivals, phantom delivery, ingress, stage walk, remap, watchdog), so
  // a begin/step/finish run over the same source is bit-identical to
  // run(). The bound source may grow between steps (the fabric pushes
  // link deliveries into it); skipped cycles are the caller's fast-forward.
  // Checkpointing is unsupported under external clocking.

  /// Bind a source and reset per-run results. Throws ConfigError when the
  /// options are incompatible with external clocking (checkpoint_interval
  /// != 0) and Error if a run is already active.
  void begin(TraceSource& source);
  /// Execute one cycle of the walk at external clock value `now`. Cycles
  /// must be non-decreasing across calls; cycles where the switch is
  /// drained and the source empty may be skipped entirely.
  void step(Cycle now);
  /// True while packets are in flight or the bound source has items.
  bool has_work();
  /// End the externally-clocked run at `end_cycle` and return the result
  /// (identical tail to run(): final registers, C1, telemetry).
  SimResult finish(Cycle end_cycle);

  /// Observable state, for tests.
  const ShardedState& state() const { return *state_; }
  /// The run's packet pool, for tests (recycling/peak-live statistics).
  const PacketArena& arena() const { return arena_; }

  /// One phantom on the §3.3 channel, from admission until it lands in
  /// its stage FIFO. It carries its FIFO entry's fields, so a phantom
  /// whose packet was dropped in flight still lands, as a zombie.
  struct ChannelPhantom {
    Cycle deliver = 0;
    SeqNo seq = kInvalidSeqNo;
    PacketRef ref = kNullPacketRef; // its packet, while seq still owns ref
    std::uint32_t entry = 0;        // the plan entry owning the phantom
    RegId reg = 0;
    RegIndex index = kUnresolvedIndex;
    PipelineId pipeline = 0;
    StageId stage = 0;
    PipelineId lane = 0;

    template <class Io> void transfer(Io& io) {
      io.u64(deliver);
      io.u64(seq);
      io.u32(ref);
      io.u32(entry);
      io.u32(reg);
      io.u32(index);
      io.u32(pipeline);
      io.u32(stage);
      io.u32(lane);
    }
  };
  /// The channel's delivery rings, one per stage, for tests.
  const std::vector<RingFifo<ChannelPhantom>>& channel() const {
    return channel_;
  }

private:
  /// One steered/advanced packet landing in a cell's arrival slots.
  struct ArrivedRef {
    PacketRef ref = kNullPacketRef;
    PipelineId from_lane = 0;
  };

  enum class DropCause : std::uint8_t { kData, kStarved, kFault };

  // -- cell addressing --
  std::size_t cell(PipelineId p, StageId st) const {
    return static_cast<std::size_t>(p) * num_stages_ + st;
  }
  StageFifo& fifo_at(PipelineId p, StageId st) { return fifos_[cell(p, st)]; }
  const StageFifo& fifo_at(PipelineId p, StageId st) const {
    return fifos_[cell(p, st)];
  }
  void push_arrival(PipelineId dest, StageId st, PacketRef ref,
                    PipelineId from_lane);

  void admit(const TraceItem& item, Cycle now);
  /// StageFifo::push_phantom into cell (p, st) plus its counts: fifo.push
  /// or fifo.push_dropped, and the depth-on-push histogram. An empty cell
  /// goes to sleep on the pushed phantom.
  bool push_counted(PipelineId p, StageId st, SeqNo seq, RegId reg,
                    RegIndex index, PipelineId lane, Cycle now);
  /// Land every phantom due by `now`, in seq order across the rings and
  /// the delayed queue, so every FIFO receives its phantoms in generation
  /// order (Invariant 1).
  void deliver_due_phantoms(Cycle now);
  void land_phantom(const ChannelPhantom& ph, Cycle now);
  void step_cell(PipelineId p, StageId st, Cycle now);
  void process_packet(PacketRef ref, PipelineId p, StageId st, bool from_fifo,
                      Cycle now);
  void exec_stage_atoms(Packet& pkt, PipelineId p, StageId st, bool from_fifo,
                        Cycle now);
  void resolve_conservative_guards(Packet& pkt, StageId done_stage,
                                   Cycle now);
  void cancel_entry(Packet& pkt, std::size_t entry_idx, Cycle now);
  void drop_packet(PacketRef ref, DropCause cause, Cycle now);
  void route_onwards(PacketRef ref, PipelineId p, StageId st, Cycle now);
  void egress_packet(PacketRef ref, Cycle now);
  bool work_remaining();

  // -- checkpoint/restore (implemented in checkpoint.cpp) --

  /// The shared cycle walk behind run() and resume().
  SimResult run_loop(TraceSource& source, Cycle start_cycle);
  /// One cycle of the walk: fault events, arrivals, phantom delivery,
  /// ingress, the stage walk, remap, watchdog. Shared verbatim between
  /// run_loop and the external-clock step().
  void step_cycle(Cycle now);
  /// The shared run tail: unbind the source, fill the end-of-run
  /// SimResult fields and export telemetry.
  SimResult finalize(Cycle now);
  /// Write every count into SimOptions::telemetry under telemetry_prefix:
  /// the kResultCounters rows that have a telemetry name, named_counts(),
  /// the two histograms and the end-of-run gauges, zeros included. No-op
  /// without a registry.
  void export_telemetry();
  /// The counts SimResult has no field for, by telemetry name. The export
  /// and the checkpoint's named-counter block both walk this one list.
  std::array<std::pair<const char*, std::uint64_t*>, 9> named_counts();
  /// Frame the complete simulator state and hand it to checkpoint_sink.
  void do_checkpoint(Cycle now);
  /// The one listing of every piece of run state the cycle walk depends
  /// on, behind both serialize_state and restore_state: the checkpoint
  /// cycle, the trace items already admitted, then each member.
  template <class Io>
  void transfer(Io& io, Cycle& now, std::uint64_t& consumed);
  std::string serialize_state(Cycle now);
  /// Restore into a freshly constructed simulator. Returns the
  /// checkpointed cycle; `trace_consumed` receives the number of trace
  /// items already admitted (the source skip target).
  Cycle restore_state(ByteReader& r, std::uint64_t& trace_consumed);

  // -- idle-cycle skip --

  /// Next cycle at which anything can happen, for a drained switch: the
  /// next trace arrival, the next phantom-channel delivery, the next
  /// checkpoint boundary, the next remap boundary while the shard map's
  /// window is dirty, the next lane
  /// fail/recover event, and every cycle covered by a stall window of an
  /// alive lane (each increments stalled_cycles).
  Cycle next_event_cycle(Cycle now);

  // -- activity bitmap --
  //
  // One activity bit per (stage, lane) cell, set whenever the cell might
  // make progress. A visit clears it when it finds the cell empty, or
  // blocked: its FIFO head is a phantom, so the cell sleeps (its wait
  // start is recorded in blocked_since_) until one of these sets the bit
  // again:
  //   * an arrival (push_arrival), which may be the head's data packet;
  //   * a cancel in the cell's FIFO (cancel_entry, or a phantom that was
  //     cancelled on the channel and arrives as a zombie);
  //   * a stall window covering the cell (the walk counts stalled cells).
  // A phantom push sets no bit: the phantom lands behind the head or
  // becomes it, so it cannot unblock a cell, and an empty cell falls
  // asleep on it at once (push_counted). A failing lane is drained with
  // its bits cleared. So a clear bit
  // *proves* the cell is a no-op this cycle: it has no arrival and is
  // empty or asleep on a phantom head. Stale *set* bits are harmless: the
  // next stepped cycle visits the cell and clears them.
  //
  // A sleeping cell's blocked cycles are counted as one span, [wait
  // start, the cycle it closes), when its next visit closes it, or when a
  // lane failure, a checkpoint or the end of the run does; each closed
  // span is one kBlocked timeline event.

  std::uint64_t& active_word(PipelineId p, StageId st) {
    return active_[static_cast<std::size_t>(st) * lane_words_ + (p >> 6)];
  }
  void mark_active(PipelineId p, StageId st) {
    active_word(p, st) |= std::uint64_t{1} << (p & 63);
  }
  void clear_active(PipelineId p, StageId st) {
    active_word(p, st) &= ~(std::uint64_t{1} << (p & 63));
  }
  bool cell_active(PipelineId p, StageId st) const {
    return (active_[static_cast<std::size_t>(st) * lane_words_ + (p >> 6)] &
            (std::uint64_t{1} << (p & 63))) != 0;
  }
  /// Every activity bit clear: with live_packets_ == 0 this proves that no
  /// packet or zombie phantom is anywhere in the switch (bits are never
  /// stale-cleared, and a queued phantom a cell sleeps on belongs to a
  /// live packet) — the precondition for jumping the clock.
  bool activity_all_clear() const;
  /// Rebuild every bit from the restored FIFO/arrival-slot occupancy
  /// (checkpoint restore) — the bitmap itself is derived state and is
  /// never serialized. No cell sleeps after it: the first visit of a
  /// blocked cell puts it back to sleep, from that cycle on.
  void rebuild_activity();
  /// Count cell `c`'s open blocked span up to `now` into blocked_cycles,
  /// emit it as one kBlocked event (arg = its length) and mark the cell
  /// awake.
  void close_blocked_span(std::size_t c, Cycle now);

  // -- fault injection & graceful degradation --

  /// Process every scheduled lane fail/recover event due at or before
  /// `now` (events are pre-sorted; fault_cursor_ tracks progress).
  void apply_fault_events(Cycle now);
  /// Lane death: quarantine the lane, drop its in-flight packets and every
  /// packet elsewhere that is doomed to visit it, then atomically re-home
  /// its active shard indices to survivors.
  void fail_lane(PipelineId p, Cycle now);
  void recover_lane(PipelineId p, Cycle now);
  /// Spray target for an admitted packet: round-robin over live lanes.
  PipelineId spray_lane(SeqNo seq) const;
  /// Cycle-end watchdog (SimOptions::paranoid_checks).
  void check_invariants(Cycle now) const;
  void emit(TimelineEvent::Kind kind, Cycle now, PipelineId p, StageId st,
            SeqNo seq, std::uint64_t arg = 0) const {
    if (opts_.telemetry == nullptr && !opts_.timeline) return;
    TimelineEvent event;
    event.kind = kind;
    event.cycle = now;
    event.pipeline = p;
    event.stage = st;
    event.seq = seq;
    event.arg = arg;
    if (opts_.telemetry != nullptr) opts_.telemetry->record(event);
    if (opts_.timeline) opts_.timeline(event);
  }

  const Mp5Program* prog_;
  SimOptions opts_;
  StageId num_stages_;
  std::uint32_t k_;

  PacketArena arena_;
  std::unique_ptr<ShardedState> state_;
  std::vector<StageFifo> fifos_; // flat [pipeline * num_stages + stage]

  /// Dense per-cell arrival buffers: each (pipeline, stage) cell owns a
  /// fixed stride of k slots (a cell can receive at most one packet from
  /// each same-stage predecessor cell per cycle, and stage 0 receives at
  /// most one ingress packet).
  std::vector<ArrivedRef> arrival_slots_; // [cell * k + i]
  std::vector<std::uint32_t> arrival_count_; // per cell

  std::vector<std::deque<PacketRef>> ingress_;

  /// The phantom channel: [stage] -> its phantoms in seq order, each due
  /// at admission + stage. Phantoms given an injected extra delay wait in
  /// channel_delayed_ instead, also in seq order.
  std::vector<RingFifo<ChannelPhantom>> channel_;
  std::vector<ChannelPhantom> channel_delayed_;
  std::vector<StageId> stateful_stages_; // the stages a phantom can target
  /// At most the next delivery cycle on the channel (~0 when it is empty),
  /// so delivery scans the channel only once something may be due.
  /// Derived, never checkpointed: a restored run starts at 0 and rescans.
  Cycle channel_due_ = 0;

  TraceSource* source_ = nullptr; // non-owning, valid during run_loop only
  Cycle next_checkpoint_ = 0;     // next cycle boundary to checkpoint at
  SeqNo next_seq_ = 0;
  std::uint64_t live_packets_ = 0;
  // (Remap-boundary observability lives in ShardedState::window_dirty()
  // now — the shard map knows which registers the next rebalance resets.)

  // -- activity bitmap state --
  std::uint32_t lane_words_ = 1; // ceil(k_ / 64)
  /// [stage * lane_words_ + (lane >> 6)], bit (lane & 63).
  std::vector<std::uint64_t> active_;
  static constexpr Cycle kAwake = ~Cycle{0};
  /// Per cell: the cycle its open blocked span started, or kAwake.
  std::vector<Cycle> blocked_since_;

  // -- fault state --
  FaultSchedule fault_sched_;
  std::size_t fault_cursor_ = 0;  // into fault_sched_.lane_events()
  Rng fault_rng_{0};              // phantom loss/delay coin flips
  std::vector<bool> lane_alive_;  // mirrors ShardedState liveness
  std::size_t current_pressure_ = 0;
  /// Most recent lane-failure cycle with no egress since; kInvalidSeqNo-like
  /// sentinel via awaiting flag. Feeds SimResult::time_to_recover.
  Cycle fail_marker_ = 0;
  bool awaiting_egress_after_failure_ = false;

  SimResult result_;
  C1Checker c1_;

  /// Counts SimResult has no field for (see named_counts()); the shard
  /// map keeps its own.
  struct Counts {
    std::uint64_t phantom_sent = 0;
    std::uint64_t fifo_push = 0;
    std::uint64_t fifo_push_dropped = 0;
    std::uint64_t fifo_insert = 0;
    std::uint64_t fifo_cancel = 0;
    std::uint64_t fifo_pop_data = 0;
  };
  Counts counts_;
  Histogram depth_on_push_{1.0, 64};   // FIFO occupancy after each push
  Histogram egress_latency_{1.0, 128}; // cycles from arrival to egress
};

} // namespace mp5
