// Tests for the hot-path engine: the packet arena and the golden result
// digests of the event walk.
//
// The simulator used to carry four interchangeable cycle walks (the dense
// lockstep walk, lockstep with idle-cycle fast-forward, the event walk, and
// each of them on a lane thread pool) that were proven bit-identical; only
// the event walk remains. The golden digests these tests check (rows of
// tests/goldens.inc) were recorded under the
// dense lockstep walk with no idle skip and every rebalance on the
// full-scan ShardedState::rebalance_reference() path, before the other
// walks were deleted, and the event walk must reproduce every one (the
// recording was cross-checked under lockstep with skip, the event walk
// and the thread pool). A digest covers every SimResult field that
// same_results() compares (see mp5::result_digest); the telemetry scenario
// also digests the timeline event stream and the counter snapshot.
//
// A cell whose FIFO head is a phantom sleeps until something can change
// that head, and its blocked cycles are counted, and reported as one
// kBlocked timeline event, per span. The timeline goldens and the
// sleeping-cell goldens below were recorded while every blocked cell was
// still visited, counted and reported once per cycle.
#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <tuple>
#include <iterator>
#include <string>
#include <vector>

#include "apps/programs.hpp"
#include "common/serialize.hpp"
#include "baseline/presets.hpp"
#include "goldens.hpp"
#include "packet/arena.hpp"
#include "telemetry/telemetry.hpp"
#include "test_util.hpp"
#include "trace/workloads.hpp"

namespace mp5::test {
namespace {

void expect_golden(const std::string& row, const StreamedRun& run) {
  test::expect_golden(row, streamed_digest(run));
}

struct Variant {
  const char* name;
  SimOptions (*make)(std::uint32_t, std::uint64_t);
};

const Variant kVariants[] = {
    {"mp5", mp5_options},       {"no_d2", no_d2_options},
    {"no_d4", no_d4_options},   {"ideal", ideal_options},
};

Trace synthetic(std::uint32_t stages, std::size_t reg_size, std::uint32_t k,
                std::uint64_t packets, double load = 1.0,
                std::uint64_t seed = 1) {
  SyntheticConfig config;
  config.stateful_stages = stages;
  config.reg_size = reg_size;
  config.pipelines = k;
  config.packets = packets;
  config.load = load;
  config.seed = seed;
  return make_synthetic_trace(config);
}

// --- seeds x k x design variants -----------------------------------------

constexpr std::uint32_t kMatrixKs[] = {2, 4, 8};
constexpr std::uint64_t kMatrixSeeds[] = {1, 7};
/// Run the matrix cells with k in `ks` against their golden digests.
void check_matrix(std::initializer_list<std::uint32_t> ks) {
  const auto prog = compile_mp5(apps::make_synthetic_source(4, 256));
  for (std::size_t ki = 0; ki < std::size(kMatrixKs); ++ki) {
    const std::uint32_t k = kMatrixKs[ki];
    if (std::find(ks.begin(), ks.end(), k) == ks.end()) continue;
    for (std::size_t si = 0; si < std::size(kMatrixSeeds); ++si) {
      const std::uint64_t seed = kMatrixSeeds[si];
      const auto trace = synthetic(4, 256, k, 2000, 1.0, seed);
      for (std::size_t vi = 0; vi < std::size(kVariants); ++vi) {
        const auto& variant = kVariants[vi];
        expect_golden(std::string("matrix_") + variant.name + "_k" +
                          std::to_string(k) + "_seed" + std::to_string(seed),
                      run_streamed(prog, trace, variant.make(k, seed)));
      }
    }
  }
}

TEST(EventEngine, MatchesLockstepAcrossSeedsKsAndVariants) {
  check_matrix({2, 4, 8});
}

TEST(EventEngine, MatchesLockstepOnSparseTraces) {
  // The sparse regime is where the event walk actually skips: cells sit
  // empty for long stretches and whole cycle ranges are jumped. cycles_run
  // must still land on exactly the lockstep count.
  const auto prog = compile_mp5(apps::make_synthetic_source(3, 128));
  const auto trace = synthetic(3, 128, 8, 400, 0.01);
  const auto run = run_streamed(prog, trace, mp5_options(8, 1));
  EXPECT_GT(run.result.cycles_run, 4000u);
  expect_golden("sparse_k8", run);
}

/// Lane 2 fails and recovers, lane 5 fails for good.
StreamedRun lane_fault_run() {
  const auto prog = compile_mp5(apps::make_synthetic_source(4, 256));
  const auto trace = synthetic(4, 256, 8, 3000);
  auto opts = mp5_options(8, 1);
  opts.faults.pipeline_faults.push_back(PipelineFault{2, 150, 600});
  opts.faults.pipeline_faults.push_back(PipelineFault{5, 300, kNeverRecovers});
  return run_streamed(prog, trace, opts);
}

TEST(EventEngine, MatchesLockstepUnderLaneFailureAndRecovery) {
  const auto run = lane_fault_run();
  EXPECT_GT(run.result.dropped_fault, 0u); // the plan actually bites
  expect_golden("lane_fail_recover", run);
}

TEST(EventEngine, MatchesLockstepUnderPhantomChannelFaults) {
  const auto prog = compile_mp5(apps::make_synthetic_source(4, 256));
  const auto trace = synthetic(4, 256, 4, 3000);
  auto opts = mp5_options(4, 3);
  opts.faults.phantom_loss_rate = 0.02;
  opts.faults.phantom_delay_rate = 0.05;
  opts.faults.phantom_extra_delay = 12;
  const auto run = run_streamed(prog, trace, opts);
  EXPECT_GT(run.result.phantom_lost + run.result.phantom_delayed, 0u);
  expect_golden("phantom_channel_faults", run);
}

TEST(EventEngine, MatchesLockstepUnderStallsAndPressure) {
  // Stalled-but-empty cells are the one per-cycle effect the event walk
  // does not visit (it accounts them arithmetically), and stall windows
  // clamp the cycle skip — both must reproduce lockstep's stalled_cycles
  // exactly.
  const auto prog = compile_mp5(apps::make_synthetic_source(4, 256));
  const auto trace = synthetic(4, 256, 4, 3000);
  auto opts = mp5_options(4, 5);
  opts.faults.stalls.push_back(StageStall{1, 2, 100, 180});
  opts.faults.stalls.push_back(StageStall{3, 1, 400, 450});
  opts.faults.fifo_pressure.push_back(FifoPressure{200, 260, 1});
  const auto run = run_streamed(prog, trace, opts);
  EXPECT_GT(run.result.stalled_cycles, 0u);
  expect_golden("stalls_and_pressure", run);
}

TEST(EventEngine, SkipsUnderFaultPlansWhereLockstepCannot) {
  // A sparse trace plus a fault plan: the event walk still skips, clamping
  // at the stall window and the lane events, and must reproduce the
  // cycle-by-cycle walk — including stalled_cycles accumulated across
  // cycles where the switch is empty.
  const auto prog = compile_mp5(apps::make_synthetic_source(3, 128));
  const auto trace = synthetic(3, 128, 4, 200, 0.005);
  auto opts = mp5_options(4, 11);
  opts.faults.stalls.push_back(StageStall{1, 1, 500, 9000});
  opts.faults.pipeline_faults.push_back(PipelineFault{2, 4000, 12000});
  const auto run = run_streamed(prog, trace, opts);
  EXPECT_GT(run.result.stalled_cycles, 1000u); // empty stalled cycles counted
  EXPECT_EQ(run.result.pipeline_failures, 1u);
  expect_golden("skip_under_fault_plan", run);
}

using BlockedCell = std::tuple<PipelineId, StageId, Cycle>;

/// Every (pipeline, stage, cycle) a blocked span of `events` covers, sorted:
/// a kBlocked event at cycle c with arg n covers cycles [c - n, c).
std::vector<BlockedCell> blocked_cells(const std::vector<TimelineEvent>& events) {
  std::vector<BlockedCell> out;
  for (const auto& e : events) {
    if (e.kind != TimelineEvent::Kind::kBlocked) continue;
    for (Cycle c = e.cycle - e.arg; c < e.cycle; ++c) {
      out.emplace_back(e.pipeline, e.stage, c);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(EventEngine, IdenticalTelemetryAndTimeline) {
  // The event walk visits exactly the cells that can make progress, so the
  // event stream (blocked cells reported per span) and every counter must
  // match the lockstep run's.
  const auto prog = compile_mp5(apps::make_synthetic_source(3, 128));
  const auto trace = synthetic(3, 128, 4, 500);
  std::vector<TimelineEvent> events;
  telemetry::Telemetry telem;
  auto opts = mp5_options(4, 2);
  opts.telemetry = &telem;
  opts.timeline = [&events](const TimelineEvent& e) { events.push_back(e); };
  const auto run = run_streamed(prog, trace, opts);
  expect_golden("telemetry_result", run);

  // The stream without its blocked spans, then the set of blocked cells
  // per cycle the spans cover.
  Fnv1aDigest stream;
  std::uint64_t streamed = 0;
  for (const auto& e : events) {
    if (e.kind == TimelineEvent::Kind::kBlocked) continue;
    ++streamed;
    stream.add(static_cast<std::uint64_t>(e.kind));
    stream.add(e.cycle);
    stream.add(e.pipeline);
    stream.add(e.stage);
    stream.add(e.seq);
    stream.add(e.arg);
  }
  stream.add(streamed);
  test::expect_golden("telemetry_timeline_without_blocked", stream.value());

  const auto blocked = blocked_cells(events);
  Fnv1aDigest blocked_set;
  blocked_set.add(blocked.size());
  for (const auto& [p, st, cycle] : blocked) {
    blocked_set.add(p);
    blocked_set.add(st);
    blocked_set.add(cycle);
  }
  test::expect_golden("telemetry_blocked_cells", blocked_set.value());
  // The span lengths sum to blocked_cycles.
  EXPECT_EQ(blocked.size(), run.result.blocked_cycles);

  Fnv1aDigest counters;
  for (const auto& [name, value] : telem.counter_snapshot()) {
    counters.add(name.size());
    for (const char c : name) counters.add(static_cast<unsigned char>(c));
    counters.add(value);
  }
  test::expect_golden("telemetry_counters", counters.value());
}

TEST(EventEngine, ExternalClockingMatchesRun) {
  // The fabric drives inner simulators through begin/step/finish; the
  // stepped walk must equal run() bit for bit.
  const auto prog = compile_mp5(apps::make_synthetic_source(3, 128));
  SyntheticConfig config;
  config.stateful_stages = 3;
  config.reg_size = 128;
  config.pipelines = 4;
  config.packets = 600;
  const auto trace = make_synthetic_trace(config);

  auto opts = mp5_options(4, 6);
  const auto whole = run_streamed(prog, trace, opts);

  StreamedRun stepped;
  stepped.streams.attach(opts);
  Mp5Simulator sim(prog, opts);
  VectorTraceSource source(trace);
  sim.begin(source);
  Cycle c = 0;
  while (sim.has_work()) sim.step(c++);
  stepped.result = sim.finish(c);
  expect_same_run(whole, stepped);
  expect_golden("external_clocking", stepped);
}

TEST(EventEngine, ParanoidChecksValidateActivityBitmap) {
  const auto prog = compile_mp5(apps::make_synthetic_source(4, 256));
  SyntheticConfig config;
  config.stateful_stages = 4;
  config.reg_size = 256;
  config.pipelines = 4;
  config.packets = 1500;
  const auto trace = make_synthetic_trace(config);

  auto opts = mp5_options(4, 4);
  opts.paranoid_checks = true; // the watchdog cross-checks bit vs occupancy
  const auto lockstep_opts = mp5_options(4, 4);
  expect_same_run(run_streamed(prog, trace, lockstep_opts),
                  run_streamed(prog, trace, opts));
}

// --- idle-cycle skip -----------------------------------------------------

TEST(FastForward, IdenticalResultsOnSparseTrace) {
  const auto prog = compile_mp5(apps::make_synthetic_source(3, 128));
  // ~100 idle cycles between packets.
  const auto sparse = run_streamed(prog, synthetic(3, 128, 4, 400, 0.01),
                                   mp5_options(4, 1));
  EXPECT_GT(sparse.result.cycles_run, 5000u); // the sparse trace really is sparse
  expect_golden("sparse_k4", sparse);
  // Wider and less sparse: some cycles skip, most do not.
  const auto prog4 = compile_mp5(apps::make_synthetic_source(4, 256));
  expect_golden("sparse_k8_load005",
                run_streamed(prog4, synthetic(4, 256, 8, 500, 0.05),
                             mp5_options(8, 9)));
}

TEST(FastForward, IdenticalUnderRealisticChannelAndRemap) {
  // Phantom-channel deliveries and remap boundaries are wake-up events the
  // skip must not jump over.
  const auto prog = compile_mp5(apps::make_synthetic_source(4, 256));
  const auto trace = synthetic(4, 256, 4, 300, 0.02);
  for (std::size_t vi = 0; vi < std::size(kVariants); ++vi) {
    const auto opts = kVariants[vi].make(4, 2);
    expect_golden(std::string("channel_remap_") + kVariants[vi].name,
                  run_streamed(prog, trace, opts));
  }
}

TEST(FastForward, SkipsEmptyWindowRemapBoundariesBitIdentically) {
  // A sparse trace leaves many remap windows with an empty touched list.
  // window_dirty() lets the walk skip those boundaries entirely; the
  // results must match the cycle-by-cycle walk with the full-scan
  // reference rebalance (which steps every boundary) bit for bit.
  const auto prog = compile_mp5(apps::make_synthetic_source(3, 128));
  // ~500 idle cycles between packets: whole remap periods pass with
  // nothing touched.
  const auto trace = synthetic(3, 128, 4, 300, 0.002);
  for (std::size_t vi = 0; vi < std::size(kVariants); ++vi) {
    const auto opts = kVariants[vi].make(4, 2);
    const auto run = run_streamed(prog, trace, opts);
    // The trace spans several remap periods, so empty-window boundaries
    // really occur between the sparse arrivals.
    EXPECT_GT(run.result.cycles_run, 10 * opts.remap_period);
    expect_golden(std::string("empty_window_remap_") + kVariants[vi].name,
                  run);
  }
}

// --- sleeping cells ------------------------------------------------------
//
// Each scenario makes one of the events that must wake (or close the span
// of) a sleeping cell happen, checks from the timeline that it did, and
// pins the result against a golden recorded under the per-cycle walk.

struct TimedRun : StreamedRun {
  std::vector<TimelineEvent> events;
};

TimedRun timed_run(const Mp5Program& prog, const Trace& trace,
                   SimOptions opts) {
  TimedRun out;
  opts.timeline = [&out](const TimelineEvent& e) { out.events.push_back(e); };
  static_cast<StreamedRun&>(out) = run_streamed(prog, trace, opts);
  return out;
}

/// The kinds of the events at one cell and cycle, in emission order.
std::vector<TimelineEvent::Kind> kinds_at(const TimedRun& run, PipelineId p,
                                          StageId st, Cycle cycle) {
  std::vector<TimelineEvent::Kind> out;
  for (const auto& e : run.events) {
    if (e.pipeline == p && e.stage == st && e.cycle == cycle) {
      out.push_back(e.kind);
    }
  }
  return out;
}

/// Flowlet switching on a flow trace. A phantom lands on its stage just as
/// its data packet could, so a cell sleeps on a phantom head only while
/// that packet is held upstream: a stall on a lane's stateful stage 3
/// (a `hold` below) holds the packets queued there while their stage-6
/// phantoms land.
const Mp5Program& flowlet_program() {
  static const Mp5Program prog = compile_mp5(apps::flowlet_app().source);
  return prog;
}

Trace flowlet_trace() {
  FlowWorkloadConfig config;
  config.pipelines = 4;
  config.packets = 3000;
  config.seed = 1;
  return make_flow_trace(config, apps::flowlet_app().filler);
}

TEST(SleepingCells, StallWindowStartingOnASleepingCellIsCounted) {
  // Both windows open on a cell that is asleep on a phantom head and gets
  // no arrival that cycle: only the stall can wake it, and the stalled
  // cycles must not count as blocked.
  auto opts = mp5_options(4, 5);
  opts.paranoid_checks = true;
  const StageStall hold{2, 3, 200, 260};
  const StageStall windows[] = {{2, 6, 225, 235}, {1, 6, 241, 250}};
  opts.faults.stalls.push_back(hold);
  opts.faults.stalls.insert(opts.faults.stalls.end(), std::begin(windows),
                            std::end(windows));
  const TimedRun run = timed_run(flowlet_program(), flowlet_trace(), opts);
  for (const StageStall& s : windows) {
    // The one event at the window's first cycle closes the cell's span.
    EXPECT_EQ(kinds_at(run, s.pipeline, s.stage, s.from),
              std::vector<TimelineEvent::Kind>{TimelineEvent::Kind::kBlocked})
        << "stall at (" << s.pipeline << ", " << s.stage << ")";
  }
  expect_golden("sleeping_stall", run);
}

TEST(SleepingCells, ConservativeCancelWakesASleepingHead) {
  // A guard resolving false cancels a phantom that is the head a cell
  // sleeps on: the cell must wake and reclaim it with a wasted pop.
  const auto prog = compile_mp5(apps::stateful_predicate_source());
  Rng rng(29);
  const auto trace = trace_from_fields(random_fields(3000, 3, 8, rng), 4);
  auto opts = mp5_options(4, 29);
  opts.paranoid_checks = true;
  const TimedRun run = timed_run(prog, trace, opts);
  // A span closed by a wasted pop in the cycle of, or the one after, a
  // cancel at that cell: the cancel turned the head the cell slept on.
  std::size_t woken = 0;
  for (const auto& e : run.events) {
    if (e.kind != TimelineEvent::Kind::kBlocked) continue;
    const auto now = kinds_at(run, e.pipeline, e.stage, e.cycle);
    const auto before = kinds_at(run, e.pipeline, e.stage, e.cycle - 1);
    const auto has = [](const std::vector<TimelineEvent::Kind>& kinds,
                        TimelineEvent::Kind kind) {
      return std::find(kinds.begin(), kinds.end(), kind) != kinds.end();
    };
    if (has(now, TimelineEvent::Kind::kPopWasted) &&
        (has(now, TimelineEvent::Kind::kCancel) ||
         has(before, TimelineEvent::Kind::kCancel))) {
      ++woken;
    }
  }
  EXPECT_GT(woken, 0u);
  expect_golden("sleeping_cancel_wakes_head", run);
}

TEST(SleepingCells, LaneFailureClosesTheSpansOfItsSleepingCells) {
  // Lane 0 fails while its last-stage cell sleeps, then recovers: the
  // drain closes the open span at the failure cycle (the dead lane is not
  // visited then, so only the drain can report a span there).
  auto opts = mp5_options(4, 5);
  opts.paranoid_checks = true;
  opts.faults.stalls.push_back(StageStall{3, 3, 2000, 2060}); // a hold
  opts.faults.pipeline_faults.push_back(PipelineFault{0, 2040, 3000});
  const TimedRun run = timed_run(flowlet_program(), flowlet_trace(), opts);
  const auto at_failure = kinds_at(run, 0, 6, 2040);
  EXPECT_NE(std::find(at_failure.begin(), at_failure.end(),
                      TimelineEvent::Kind::kBlocked),
            at_failure.end());
  EXPECT_EQ(run.result.pipeline_failures, 1u);
  expect_golden("sleeping_lane_failure", run);
}

TEST(SleepingCells, CheckpointWhileCellsSleepResumesBitIdentically) {
  const Mp5Program& prog = flowlet_program();
  const Trace trace = flowlet_trace();
  auto opts = mp5_options(4, 5);
  for (const Cycle at : {2000, 2500, 5000}) { // a hold before each frame
    opts.faults.stalls.push_back(StageStall{1, 3, at - 40, at + 20});
  }
  const TimedRun whole = timed_run(prog, trace, opts);
  expect_golden("sleeping_uninterrupted", whole);
  const auto blocked = blocked_cells(whole.events);

  std::vector<CheckpointFrame> frames;
  expect_same_run(whole, run_checkpointing(prog, trace, opts, 500, frames));
  std::erase_if(frames, [](const CheckpointFrame& f) {
    return f.cycle != 2000 && f.cycle != 2500 && f.cycle != 5000;
  });
  ASSERT_EQ(frames.size(), 3u);
  for (const CheckpointFrame& frame : frames) {
    // Some cell was blocked in the cycle before the checkpoint, so it was
    // asleep when the checkpoint was taken.
    const bool asleep = std::any_of(
        blocked.begin(), blocked.end(), [&frame](const BlockedCell& b) {
          return std::get<2>(b) == frame.cycle - 1;
        });
    EXPECT_TRUE(asleep) << "cycle " << frame.cycle;
    expect_resumes(prog, trace, opts, frame, whole);
  }
}

// --- incremental D2 accounting -------------------------------------------
//
// The matrix and lane-fault goldens were recorded with every rebalance
// routed through the full-scan reference; the incremental O(touched) path
// must reproduce them decision for decision.

TEST(IncrementalSharding, SimResultMatchesReferenceRebalance) {
  check_matrix({2, 4});
}

TEST(IncrementalSharding, SimResultMatchesReferenceUnderFaultPlan) {
  const auto run = lane_fault_run();
  EXPECT_GT(run.result.fault_remapped_indices, 0u); // the plan actually bites
  expect_golden("lane_fail_recover", run);
}

// --- packet arena --------------------------------------------------------

TEST(PacketArena, RecyclesSlotsWithoutStaleFields) {
  PacketArena arena;
  const PacketRef a = arena.alloc();
  {
    Packet& pkt = arena.get(a);
    pkt.seq = 41;
    pkt.arrival_cycle = 100;
    pkt.port = 7;
    pkt.size_bytes = 1500;
    pkt.flow = 12345;
    pkt.ecn_marked = true;
    pkt.headers = {1, 2, 3};
    pkt.plan.resize(2);
    pkt.next_access = 1;
  }
  arena.release(a);
  EXPECT_EQ(arena.live_count(), 0u);

  const PacketRef b = arena.alloc();
  EXPECT_EQ(b, a); // freelist reuse, not growth
  const Packet& pkt = arena.get(b);
  EXPECT_EQ(pkt.seq, kInvalidSeqNo);
  EXPECT_EQ(pkt.arrival_cycle, 0u);
  EXPECT_EQ(pkt.port, 0u);
  EXPECT_EQ(pkt.size_bytes, 64u);
  EXPECT_EQ(pkt.flow, 0u);
  EXPECT_FALSE(pkt.ecn_marked);
  EXPECT_TRUE(pkt.headers.empty());
  EXPECT_TRUE(pkt.plan.empty());
  EXPECT_EQ(pkt.next_access, 0u);
  EXPECT_EQ(arena.slot_count(), 1u);
  EXPECT_EQ(arena.recycled_allocs(), 1u);
}

TEST(PacketArena, ReleaseOfDeadSlotThrows) {
  PacketArena arena;
  const PacketRef a = arena.alloc();
  arena.release(a);
  EXPECT_THROW(arena.release(a), Error);
  EXPECT_FALSE(arena.live(a));
}

TEST(PacketArena, TracksPeakLive) {
  PacketArena arena;
  arena.reserve(8);
  std::vector<PacketRef> refs;
  for (int i = 0; i < 5; ++i) refs.push_back(arena.alloc());
  for (const auto r : refs) arena.release(r);
  for (int i = 0; i < 3; ++i) arena.alloc();
  EXPECT_EQ(arena.peak_live(), 5u);
  EXPECT_EQ(arena.live_count(), 3u);
  EXPECT_EQ(arena.total_allocs(), 8u);
  EXPECT_EQ(arena.recycled_allocs(), 3u);
  EXPECT_EQ(arena.slot_count(), 5u);
}

// The simulator's arena must end every run empty: each admitted packet is
// eventually egressed or dropped, and both paths release the slot.
TEST(PacketArena, SimulatorDrainsArenaAndRecycles) {
  const auto prog = compile_mp5(apps::make_synthetic_source(4, 256));
  SyntheticConfig config;
  config.stateful_stages = 4;
  config.reg_size = 256;
  config.pipelines = 4;
  config.packets = 2000;
  const auto trace = make_synthetic_trace(config);
  Mp5Simulator sim(prog, mp5_options(4, 1));
  const auto result = sim.run(trace);
  EXPECT_EQ(result.egressed + result.dropped_data + result.dropped_starved +
                result.dropped_fault,
            result.offered);
  EXPECT_EQ(sim.arena().live_count(), 0u);
  // The pool stabilizes at the peak number of in-flight packets, far below
  // one slot per trace packet.
  EXPECT_LT(sim.arena().slot_count(), trace.size() / 2);
  EXPECT_GT(sim.arena().recycled_allocs(), 0u);
}

} // namespace
} // namespace mp5::test
