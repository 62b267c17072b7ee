// Fault injection & graceful pipeline degradation.
//
// The headline robustness property: killing one of k pipelines mid-trace
// must yield zero C1 violations, register state equal to a single-pipeline
// reference run over the surviving packet set, and steady-state throughput
// that degrades to ~(k-1)/k instead of collapsing. Phantom-channel loss
// and delay faults must be absorbed with declared drops instead of
// deadlocks, and the invariant watchdog must stay clean throughout.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <unordered_map>

#include "apps/programs.hpp"
#include "baseline/presets.hpp"
#include "common/error.hpp"
#include "mp5/faults.hpp"
#include "test_util.hpp"

namespace mp5::test {
namespace {

/// Every admitted packet must be accounted exactly once.
void expect_conservation(const SimResult& r) {
  EXPECT_EQ(r.offered,
            r.egressed + r.dropped_data + r.dropped_starved + r.dropped_fault);
}

/// Run the single-pipeline reference over the effective packet set — the
/// packets whose state effects remain after a faulty run (egressed ones
/// plus fault-dropped ones that had already touched state) — and compare
/// register state plus the egressed packets' declared header fields.
//
// For single-stateful-access programs this reference is exact: a packet
// either performed its whole state effect (state_touched) or none of it.
void expect_equivalent_modulo_drops(const Mp5Program& prog, const Trace& trace,
                                    const StreamedRun& run) {
  const SimResult& result = run.result;
  std::set<SeqNo> effective;
  for (const auto& rec : run.streams.egress) effective.insert(rec.seq);
  for (const auto& drop : run.streams.drops) {
    if (drop.state_touched) effective.insert(drop.seq);
  }

  banzai::ReferenceSwitch ref(prog.pvsm);
  const auto batch = to_header_batch(trace, prog.pvsm);
  std::unordered_map<SeqNo, std::vector<Value>> ref_headers;
  for (const SeqNo seq : effective) {
    ASSERT_LT(seq, batch.size());
    ref_headers[seq] = ref.process(batch[seq]);
  }

  // Register state must match the reference exactly on the survivor set.
  const auto& want = ref.registers();
  ASSERT_LE(want.size(), result.final_registers.size());
  for (std::size_t r = 0; r < want.size(); ++r) {
    EXPECT_EQ(result.final_registers[r], want[r]) << "register array " << r;
  }

  // Every egressed packet must carry the reference's declared fields.
  for (const auto& rec : run.streams.egress) {
    const auto& want_headers = ref_headers.at(rec.seq);
    for (const auto& [name, slot] : prog.pvsm.declared_slot) {
      const auto s = static_cast<std::size_t>(slot);
      EXPECT_EQ(rec.headers[s], want_headers[s])
          << "packet " << rec.seq << " field '" << name << "'";
    }
  }
}

SimOptions fault_test_options(std::uint32_t k, std::uint64_t seed) {
  SimOptions opts = mp5_options(k, seed);
  opts.paranoid_checks = true;
  return opts;
}

TEST(PipelineFailure, KillOneOfFourMidTrace) {
  const auto prog = compile_mp5(apps::make_synthetic_source(1, 64));
  Rng rng(101);
  const auto trace = trace_from_fields(random_fields(1024, 2, 64, rng), 4);

  SimOptions opts = fault_test_options(4, 1);
  opts.faults.pipeline_faults.push_back(PipelineFault{2, 100, kNeverRecovers});
  const StreamedRun run = run_streamed(prog, trace, opts);
  const SimResult& result = run.result;

  EXPECT_EQ(result.pipeline_failures, 1u);
  EXPECT_EQ(result.pipeline_recoveries, 0u);
  EXPECT_GT(result.dropped_fault, 0u); // the lane held packets when it died
  EXPECT_EQ(result.c1_violating_packets, 0u);
  expect_conservation(result);
  EXPECT_EQ(result.dropped_data, 0u); // unbounded FIFOs: only fault losses
  expect_equivalent_modulo_drops(prog, trace, run);
}

TEST(PipelineFailure, ThroughputDegradesToSurvivorFraction) {
  // Kill 1 of 4 lanes before any packet arrives. Offered at the
  // survivors' line rate — (k-1)/k = 0.75 of the full switch — the three
  // live lanes must sustain it: degraded capacity is within 10% of
  // (k-1)/k. (normalized_throughput is relative to the offered rate, so
  // "keeps up at 0.75 load" reads as a value near 1.)
  const auto prog = compile_mp5(apps::make_synthetic_source(1, 256));
  Rng rng(103);
  const auto fields = random_fields(4000, 2, 256, rng);
  const auto trace = trace_from_fields(fields, 4, /*load=*/0.75);

  SimOptions opts = fault_test_options(4, 2);
  opts.faults.pipeline_faults.push_back(PipelineFault{1, 0, kNeverRecovers});
  const StreamedRun run = run_streamed(prog, trace, opts);
  const SimResult& result = run.result;

  EXPECT_EQ(result.dropped_fault, 0u); // the lane died empty
  EXPECT_EQ(result.egressed, result.offered);
  EXPECT_EQ(result.c1_violating_packets, 0u);
  const double tp = result.normalized_throughput();
  EXPECT_GE(tp, 0.9) << "survivors fell behind (k-1)/k load: " << tp;
  expect_equivalent_modulo_drops(prog, trace, run);

  // Control at full line rate: the same failure must cost real capacity
  // (the 4-lane switch keeps up; 3 survivors cannot).
  const auto full_trace = trace_from_fields(fields, 4, /*load=*/1.0);
  Mp5Simulator healthy(prog, fault_test_options(4, 2));
  Mp5Simulator degraded(prog, opts);
  const double tp_healthy =
      healthy.run(full_trace).normalized_throughput();
  const double tp_degraded =
      degraded.run(full_trace).normalized_throughput();
  EXPECT_GE(tp_healthy, 0.9);
  // Saturated degraded throughput sits within 10% of (k-1)/k of offered.
  EXPECT_GE(tp_degraded, 0.75 * 0.9) << "degraded throughput " << tp_degraded;
  EXPECT_LE(tp_degraded, 0.75 * 1.1) << "degraded throughput " << tp_degraded;
}

TEST(PipelineFailure, RecoveryRestoresLaneAndDrainsBacklog) {
  const auto prog = compile_mp5(apps::make_synthetic_source(1, 64));
  Rng rng(107);
  const auto trace = trace_from_fields(random_fields(3000, 2, 64, rng), 4);

  SimOptions opts = fault_test_options(4, 3);
  opts.faults.pipeline_faults.push_back(PipelineFault{0, 200, 500});
  const StreamedRun run = run_streamed(prog, trace, opts);
  const SimResult& result = run.result;

  EXPECT_EQ(result.pipeline_failures, 1u);
  EXPECT_EQ(result.pipeline_recoveries, 1u);
  EXPECT_EQ(result.c1_violating_packets, 0u);
  // The survivors keep the switch delivering: the first post-failure
  // egress happens within a pipeline depth's worth of cycles, not after
  // the cycle-500 recovery.
  EXPECT_LT(result.time_to_recover, 100u);
  expect_conservation(result);
  expect_equivalent_modulo_drops(prog, trace, run);
}

TEST(PipelineFailure, SequentialFailuresLeaveLastSurvivor) {
  const auto prog = compile_mp5(apps::make_synthetic_source(1, 32));
  Rng rng(109);
  const auto trace = trace_from_fields(random_fields(1200, 2, 32, rng), 4);

  SimOptions opts = fault_test_options(4, 4);
  opts.faults.pipeline_faults.push_back(PipelineFault{3, 50, kNeverRecovers});
  opts.faults.pipeline_faults.push_back(PipelineFault{1, 120, kNeverRecovers});
  opts.faults.pipeline_faults.push_back(PipelineFault{0, 190, kNeverRecovers});
  const StreamedRun run = run_streamed(prog, trace, opts);
  const SimResult& result = run.result;

  EXPECT_EQ(result.pipeline_failures, 3u);
  EXPECT_EQ(result.c1_violating_packets, 0u);
  expect_conservation(result);
  expect_equivalent_modulo_drops(prog, trace, run);
}

TEST(PhantomFaults, LostPhantomsDropTheirDataPacketsNotTheSwitch) {
  // One stateful access per packet, so each lost phantom orphans exactly
  // one data packet: the fault-drop count must equal the loss count, and
  // none of the drops may have touched state.
  const auto prog = compile_mp5(apps::make_synthetic_source(1, 32));
  Rng rng(113);
  const auto trace = trace_from_fields(random_fields(2000, 2, 32, rng), 4);

  SimOptions opts = fault_test_options(4, 5);
  opts.faults.phantom_loss_rate = 0.05;
  const StreamedRun run = run_streamed(prog, trace, opts);
  const SimResult& result = run.result;

  EXPECT_GT(result.phantom_lost, 0u);
  EXPECT_EQ(result.dropped_fault, result.phantom_lost);
  for (const auto& drop : run.streams.drops) {
    EXPECT_FALSE(drop.state_touched) << "packet " << drop.seq;
  }
  expect_conservation(result);
  expect_equivalent_modulo_drops(prog, trace, run);
}

TEST(PhantomFaults, DelayedPhantomsNeverDeadlock) {
  // Extra channel delay can let a data packet overtake its phantom
  // (Invariant 1 broken for that packet): the packet must be dropped with
  // fault accounting and the run must complete — no deadlock, and the
  // watchdog (with the per-lane order check relaxed) stays clean.
  const auto prog = compile_mp5(apps::make_synthetic_source(1, 32));
  Rng rng(127);
  const auto trace = trace_from_fields(random_fields(2000, 2, 32, rng), 4);

  SimOptions opts = fault_test_options(4, 6);
  opts.faults.phantom_delay_rate = 0.3;
  opts.faults.phantom_extra_delay = 32;
  Mp5Simulator sim(prog, opts);
  const SimResult result = sim.run(trace);

  EXPECT_GT(result.phantom_delayed, 0u);
  expect_conservation(result);
  EXPECT_EQ(result.dropped_data, 0u);
  // A delayed phantom either still precedes its data packet (harmless) or
  // got overtaken (its packet is a declared fault drop).
  EXPECT_LE(result.dropped_fault, result.phantom_delayed);
}

TEST(StallFaults, TransientStallBlocksWithoutCorruption) {
  const auto prog = compile_mp5(apps::make_synthetic_source(1, 64));
  Rng rng(131);
  const auto trace = trace_from_fields(random_fields(2000, 2, 64, rng), 4);

  SimOptions opts = fault_test_options(4, 7);
  opts.faults.stalls.push_back(StageStall{0, 1, 50, 150});
  const StreamedRun run = run_streamed(prog, trace, opts);
  const SimResult& result = run.result;

  EXPECT_EQ(result.stalled_cycles, 100u);
  EXPECT_EQ(result.c1_violating_packets, 0u);
  expect_conservation(result);
  expect_equivalent_modulo_drops(prog, trace, run);
}

TEST(PressureFaults, ForcedFifoPressureDrivesTheNormalDropPaths) {
  // Clamping every FIFO lane to one entry forces the §3.4 loss paths even
  // in the unbounded configuration: phantoms are refused at push, their
  // data packets take the regular (non-fault) drop path.
  const auto prog = compile_mp5(apps::make_synthetic_source(1, 4));
  Rng rng(137);
  const auto trace = trace_from_fields(random_fields(1500, 2, 4, rng), 4);

  SimOptions opts = fault_test_options(4, 8);
  opts.faults.fifo_pressure.push_back(FifoPressure{0, kNeverRecovers, 1});
  Mp5Simulator sim(prog, opts);
  const SimResult result = sim.run(trace);

  EXPECT_GT(result.dropped_phantom, 0u);
  EXPECT_GT(result.dropped_data, 0u);
  EXPECT_EQ(result.dropped_fault, 0u); // pressure uses the normal paths
  expect_conservation(result);
}

TEST(PressureFaults, PressureWindowEndsAndLossesStop) {
  const auto prog = compile_mp5(apps::make_synthetic_source(1, 4));
  Rng rng(139);
  const auto trace = trace_from_fields(random_fields(1200, 2, 4, rng), 4);

  SimOptions base = fault_test_options(4, 9);
  Mp5Simulator healthy_sim(prog, base);
  const SimResult healthy = healthy_sim.run(trace);
  EXPECT_EQ(healthy.dropped_phantom, 0u);

  SimOptions opts = fault_test_options(4, 9);
  opts.faults.fifo_pressure.push_back(FifoPressure{10, 60, 1});
  Mp5Simulator sim(prog, opts);
  const SimResult result = sim.run(trace);
  EXPECT_GT(result.dropped_phantom, 0u);
  // Once the window closes the clamp lifts; the run still completes with
  // every packet accounted.
  expect_conservation(result);
}

TEST(Watchdog, CleanOnFaultFreeRunsAcrossVariants) {
  // paranoid_checks must be invisible on healthy runs: same results, no
  // throws, across the design variants.
  const auto prog = compile_mp5(apps::make_synthetic_source(2, 16));
  Rng rng(149);
  const auto trace = trace_from_fields(random_fields(800, 3, 16, rng), 4);
  for (SimOptions opts :
       {mp5_options(4, 10), ideal_options(4, 10), no_d2_options(4, 10)}) {
    SimOptions checked = opts;
    checked.paranoid_checks = true;
    Mp5Simulator plain(prog, opts);
    Mp5Simulator paranoid(prog, checked);
    const SimResult a = plain.run(trace);
    const SimResult b = paranoid.run(trace);
    EXPECT_EQ(a.egressed, b.egressed);
    EXPECT_EQ(a.cycles_run, b.cycles_run);
    EXPECT_EQ(a.final_registers, b.final_registers);
  }
}

TEST(Watchdog, InvariantErrorCarriesContext) {
  const InvariantError err("fifo-occupancy", 42, "details here");
  EXPECT_EQ(err.invariant(), "fifo-occupancy");
  EXPECT_EQ(err.cycle(), 42u);
  EXPECT_NE(std::string(err.what()).find("cycle 42"), std::string::npos);
  // InvariantError is an mp5::Error: existing catch sites keep working.
  EXPECT_THROW(throw InvariantError("x", 0, "y"), Error);
}

TEST(FaultPlanValidation, RejectsInconsistentPlans) {
  FaultPlan plan;
  plan.pipeline_faults.push_back(PipelineFault{5, 10, kNeverRecovers});
  EXPECT_THROW(plan.validate(4), ConfigError); // pipeline out of range

  plan.pipeline_faults = {PipelineFault{0, 100, 50}};
  EXPECT_THROW(plan.validate(4), ConfigError); // recovery before failure

  plan.pipeline_faults = {PipelineFault{0, 10, 100},
                          PipelineFault{0, 50, kNeverRecovers}};
  EXPECT_THROW(plan.validate(4), ConfigError); // overlapping windows

  plan.pipeline_faults = {PipelineFault{0, 10, kNeverRecovers}};
  EXPECT_THROW(plan.validate(1), ConfigError); // k=1 has no survivor
  EXPECT_NO_THROW(plan.validate(4));

  plan = FaultPlan{};
  plan.phantom_loss_rate = 1.5;
  EXPECT_THROW(plan.validate(4), ConfigError); // rate out of [0, 1]

  plan = FaultPlan{};
  plan.phantom_delay_rate = 0.5; // delay rate without extra delay cycles
  EXPECT_THROW(plan.validate(4), ConfigError);

  plan = FaultPlan{};
  plan.stalls.push_back(StageStall{0, 0, 100, 100}); // empty window
  EXPECT_THROW(plan.validate(4), ConfigError);

  plan = FaultPlan{};
  plan.fifo_pressure.push_back(FifoPressure{0, 100, 0}); // zero capacity
  EXPECT_THROW(plan.validate(4), ConfigError);

  // Disjoint fail/recover spans on one lane are fine.
  plan = FaultPlan{};
  plan.pipeline_faults = {PipelineFault{2, 10, 20}, PipelineFault{2, 30, 40}};
  EXPECT_NO_THROW(plan.validate(4));

  // Every pipeline down at once: caught here, not when the run reaches
  // cycle 100. A failure applies before a recovery at the same cycle, so
  // a hand-over at cycle 200 leaves no survivor either.
  plan.pipeline_faults = {PipelineFault{0, 100, kNeverRecovers},
                          PipelineFault{1, 100, kNeverRecovers}};
  try {
    plan.validate(2);
    ADD_FAILURE() << "a plan killing every pipeline was accepted";
  } catch (const ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("cycle 100"), std::string::npos) << what;
    EXPECT_EQ(what.find('\n'), std::string::npos) << what;
  }
  EXPECT_NO_THROW(plan.validate(3)); // lane 2 survives
  plan.pipeline_faults = {PipelineFault{0, 100, 200},
                          PipelineFault{1, 200, 400}};
  EXPECT_THROW(plan.validate(2), ConfigError);
  plan.pipeline_faults = {PipelineFault{0, 100, 200},
                          PipelineFault{1, 201, 400}};
  EXPECT_NO_THROW(plan.validate(2));
}

TEST(FaultPlanValidation, SimulatorRejectsUnsupportedCombinations) {
  const auto prog = compile_mp5(apps::make_synthetic_source(1, 8));

  SimOptions opts = mp5_options(4, 1);
  opts.faults.phantom_loss_rate = 0.1; // every MP5 design has the channel
  EXPECT_NO_THROW(Mp5Simulator(prog, opts));

  opts = naive_options(4, 1);
  opts.faults.pipeline_faults.push_back(PipelineFault{1, 10, kNeverRecovers});
  EXPECT_THROW(Mp5Simulator(prog, opts), ConfigError); // nowhere to re-home

  opts = mp5_options(2, 1); // every pipeline down at cycle 100
  opts.faults.pipeline_faults = {PipelineFault{0, 100, kNeverRecovers},
                                 PipelineFault{1, 100, kNeverRecovers}};
  EXPECT_THROW(Mp5Simulator(prog, opts), ConfigError);
}

} // namespace
} // namespace mp5::test
