#include <gtest/gtest.h>

#include "apps/programs.hpp"
#include "baseline/recirc.hpp"
#include "baseline/presets.hpp"
#include "test_util.hpp"

namespace mp5::test {
namespace {

Trace synthetic(std::uint32_t stages, std::size_t reg_size, std::uint32_t k,
                std::uint64_t packets, std::uint64_t seed,
                AccessPattern pattern = AccessPattern::kUniform) {
  SyntheticConfig config;
  config.stateful_stages = stages;
  config.reg_size = reg_size;
  config.pipelines = k;
  config.packets = packets;
  config.seed = seed;
  config.pattern = pattern;
  return make_synthetic_trace(config);
}

TEST(Recirc, StatelessProgramNeedsNoRecirculation) {
  const auto prog = compile_mp5(apps::make_synthetic_source(0, 1));
  const auto trace = synthetic(0, 1, 4, 2000, 1);
  RecircOptions opts;
  RecircSimulator sim(prog, opts);
  const auto result = sim.run(trace);
  EXPECT_EQ(result.recirculations, 0u);
  EXPECT_EQ(result.egressed, trace.size());
  // Short run: the pipeline-fill drain tail costs a few percent.
  EXPECT_GT(result.normalized_throughput(), 0.95);
}

TEST(Recirc, RegisterStateConvergesDespiteOrder) {
  // Commutative updates (additions): final register state matches the
  // reference even though the order differs.
  const auto prog = compile_mp5(apps::make_synthetic_source(2, 32));
  const auto trace = synthetic(2, 32, 4, 1500, 3);
  RecircOptions opts;
  opts.ingress_capacity = 0; // lossless run: every update must land
  RecircSimulator sim(prog, opts);
  const auto result = sim.run(trace);
  EXPECT_EQ(result.egressed, trace.size());
  const auto reference = run_reference(prog, trace);
  EXPECT_EQ(result.final_registers[0], reference.final_registers[0]);
}

TEST(Recirc, ViolatesC1UnderContention) {
  const auto prog = compile_mp5(apps::make_synthetic_source(4, 64));
  const auto trace = synthetic(4, 64, 4, 4000, 5, AccessPattern::kSkewed);
  RecircOptions opts;
  RecircSimulator sim(prog, opts);
  const auto result = sim.run(trace);
  EXPECT_GT(result.c1_fraction(), 0.01);
}

TEST(Recirc, SequencerExampleBreaksPacketEquivalence) {
  // §2.3.1 Example 2: the stamped values diverge from arrival order on the
  // recirculating design (packets from far ports pay the recirculation
  // delay), while MP5 keeps them equal.
  const auto prog = compile_mp5(apps::sequencer_example_source());
  Rng rng(7);
  const auto trace = trace_from_fields(random_fields(2000, 1, 4, rng), 4);
  const auto report =
      run_verified<RecircSimulator>(prog, trace, RecircOptions{});
  EXPECT_FALSE(report.equivalent());
}

TEST(Recirc, TailDropsReachTheDropSinkAndViolateEquivalence) {
  // Overload on a one-deep ingress queue: every tail drop is reported,
  // untouched, and the verifier settles the stream and names the drops.
  const auto prog = compile_mp5(apps::make_synthetic_source(4, 512));
  const auto trace = synthetic(4, 512, 4, 2000, 9);
  RecircOptions opts;
  opts.ingress_capacity = 1;
  const StreamedRun run = run_streamed<RecircSimulator>(prog, trace, opts);
  ASSERT_GT(run.result.dropped_data, 0u);
  EXPECT_EQ(run.streams.drops.size(), run.result.dropped_data);
  EXPECT_EQ(run.streams.egress.size() + run.streams.drops.size(),
            trace.size());
  for (const auto& drop : run.streams.drops) EXPECT_FALSE(drop.state_touched);

  SimResult result;
  const auto report =
      run_verified<RecircSimulator>(prog, trace, opts, &result);
  EXPECT_FALSE(report.equivalent());
  EXPECT_EQ(report.first_difference.rfind(
                std::to_string(result.dropped_data) +
                    " packets dropped outside the fault plan",
                0),
            0u)
      << report.first_difference;
}

TEST(Recirc, ThroughputPenaltyVersusMp5) {
  const auto prog = compile_mp5(apps::make_synthetic_source(4, 512));
  const auto trace = synthetic(4, 512, 4, 6000, 9);
  RecircOptions ropts;
  RecircSimulator recirc(prog, ropts);
  const auto r_recirc = recirc.run(trace);
  Mp5Simulator mp5(prog, mp5_options(4, 9));
  const auto r_mp5 = mp5.run(trace);
  EXPECT_GT(r_recirc.recirculations, 0u);
  EXPECT_LT(r_recirc.normalized_throughput(),
            r_mp5.normalized_throughput());
}

TEST(Recirc, MultipleStatesMeanMultiplePasses) {
  const auto prog = compile_mp5(apps::make_synthetic_source(6, 512));
  const auto trace = synthetic(6, 512, 8, 2000, 11);
  RecircOptions opts;
  opts.pipelines = 8;
  RecircSimulator sim(prog, opts);
  const auto result = sim.run(trace);
  // With 6 arrays randomly sharded over 8 pipelines, most packets need
  // several recirculations.
  EXPECT_GT(static_cast<double>(result.recirculations) /
                static_cast<double>(result.offered),
            1.5);
}

TEST(Recirc, ConservativeGuardHandledAcrossPasses) {
  const auto prog = compile_mp5(apps::stateful_predicate_source());
  Rng rng(13);
  const auto trace = trace_from_fields(random_fields(1000, 3, 64, rng), 4);
  RecircOptions opts;
  opts.ingress_capacity = 0; // lossless: the gate must count every packet
  RecircSimulator sim(prog, opts);
  const auto result = sim.run(trace);
  EXPECT_EQ(result.egressed, trace.size());
  // Register-state totals: gate counts every packet exactly once.
  Value total = 0;
  for (const Value v : result.final_registers[0]) total += v;
  EXPECT_EQ(total, static_cast<Value>(trace.size()));
}

} // namespace
} // namespace mp5::test
