// Robustness satellites: construction-time option validation, the
// phantom channel's equivalence, drop-accounting conservation,
// and unit coverage for the fault-support primitives in StageFifo and
// ShardedState.
#include <gtest/gtest.h>

#include "apps/programs.hpp"
#include "baseline/presets.hpp"
#include "common/error.hpp"
#include "mp5/shard_map.hpp"
#include "mp5/simulator.hpp"
#include "mp5/stage_fifo.hpp"
#include "test_util.hpp"

namespace mp5::test {
namespace {

using Kind = StageFifo::PopResult::Kind;

// The FIFO stores opaque arena references; these tests use `ref == seq`.
PacketRef ref_for(SeqNo seq) { return static_cast<PacketRef>(seq); }

// --- SimOptions validation at construction ------------------------------

class OptionValidation : public ::testing::Test {
protected:
  Mp5Program prog_ = compile_mp5(apps::make_synthetic_source(1, 8));
};

TEST_F(OptionValidation, RejectsZeroPipelines) {
  SimOptions opts;
  opts.pipelines = 0;
  EXPECT_THROW(Mp5Simulator(prog_, opts), ConfigError);
}

TEST_F(OptionValidation, RejectsNaiveWithNonSinglePipelineSharding) {
  SimOptions opts;
  opts.naive_single_pipeline = true; // default sharding is kDynamic
  EXPECT_THROW(Mp5Simulator(prog_, opts), ConfigError);

  opts.sharding = ShardingPolicy::kSinglePipeline;
  EXPECT_NO_THROW(Mp5Simulator(prog_, opts));
  // The preset sets the matching policy for callers.
  EXPECT_NO_THROW(Mp5Simulator(prog_, naive_options(4, 1)));
}

TEST_F(OptionValidation, RejectsIdealQueuesWithoutIdealLpt) {
  SimOptions opts;
  opts.ideal_queues = true; // default sharding is kDynamic
  EXPECT_THROW(Mp5Simulator(prog_, opts), ConfigError);
  EXPECT_NO_THROW(Mp5Simulator(prog_, ideal_options(4, 1)));
}

TEST_F(OptionValidation, RejectsUnreachableEcnThreshold) {
  SimOptions opts;
  opts.pipelines = 4;
  opts.fifo_capacity = 4;  // stage occupancy can never exceed 4 * 4 = 16
  opts.ecn_threshold = 17; // so this threshold could never fire
  EXPECT_THROW(Mp5Simulator(prog_, opts), ConfigError);

  opts.ecn_threshold = 16;
  EXPECT_NO_THROW(Mp5Simulator(prog_, opts));
  opts.fifo_capacity = 0; // unbounded: any threshold is reachable
  opts.ecn_threshold = 1000;
  EXPECT_NO_THROW(Mp5Simulator(prog_, opts));
}

// --- phantom channel --------------------------------------------------------

TEST(PhantomChannel, SyntheticRunIsEquivalent) {
  // Phantoms bound for many (pipeline, stage) cells share the per-stage
  // delivery rings; every FIFO must still receive its phantoms in seq
  // order, so the run stays equivalent to the reference.
  const auto prog = compile_mp5(apps::make_synthetic_source(3, 16));
  Rng rng(53);
  const auto trace = trace_from_fields(random_fields(600, 4, 16, rng), 4);
  SimOptions opts = mp5_options(4, 13);
  opts.paranoid_checks = true;
  const auto report = run_and_check(prog, trace, opts);
  EXPECT_TRUE(report.equivalent()) << report.first_difference;
}

// --- drop-accounting conservation ---------------------------------------

TEST(DropAccounting, BoundedFifoConservesPacketsAcrossSeeds) {
  // offered == egressed + dropped_data + dropped_starved + dropped_fault
  // must hold exactly for every seed, even when bounded FIFOs shed load.
  const auto prog = compile_mp5(apps::make_synthetic_source(2, 8));
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed * 1000 + 7);
    const auto trace = trace_from_fields(random_fields(1200, 3, 8, rng), 4);
    SimOptions opts = mp5_options(4, seed);
    opts.fifo_capacity = 2;
    opts.paranoid_checks = true;
    Mp5Simulator sim(prog, opts);
    const SimResult result = sim.run(trace);
    EXPECT_EQ(result.offered, result.egressed + result.dropped_data +
                                  result.dropped_starved +
                                  result.dropped_fault)
        << "seed " << seed;
    EXPECT_DOUBLE_EQ(result.drop_fraction(),
                     static_cast<double>(result.offered - result.egressed) /
                         static_cast<double>(result.offered))
        << "seed " << seed;
    EXPECT_GT(result.dropped_data, 0u) << "seed " << seed
                                       << ": capacity 2 should shed load";
    // Each dropped data packet lost its phantom first.
    EXPECT_GE(result.dropped_phantom, result.dropped_data) << "seed " << seed;
  }
}

TEST(DropAccounting, StarvationGuardDropsAreCounted) {
  const auto prog = compile_mp5(apps::stateful_predicate_source());
  Rng rng(61);
  const auto trace = trace_from_fields(random_fields(1500, 3, 4, rng), 4);
  SimOptions opts = mp5_options(4, 2);
  opts.starvation_threshold = 2;
  opts.paranoid_checks = true;
  Mp5Simulator sim(prog, opts);
  const SimResult result = sim.run(trace);
  EXPECT_EQ(result.offered, result.egressed + result.dropped_data +
                                result.dropped_starved +
                                result.dropped_fault);
}

// --- StageFifo fault-support primitives ---------------------------------

TEST(StageFifoFaults, DrainAllReturnsDataAndEmptiesEverything) {
  StageFifo fifo(2, 0, /*ideal=*/false);
  ASSERT_TRUE(fifo.push_phantom(0, 0, 0, 0));
  ASSERT_TRUE(fifo.push_phantom(1, 0, 1, 1));
  ASSERT_TRUE(fifo.push_phantom(2, 0, 2, 0));
  ASSERT_TRUE(fifo.insert_data(1, ref_for(1)));
  fifo.cancel(2);

  const auto data = fifo.drain_all();
  ASSERT_EQ(data.size(), 1u); // phantoms and zombies die silently
  EXPECT_EQ(data[0], ref_for(1));
  EXPECT_EQ(fifo.size(), 0u);
  EXPECT_FALSE(fifo.has_phantom(0));
  EXPECT_EQ(fifo.pop().kind, Kind::kIdle);
  // The FIFO is reusable after a drain.
  ASSERT_TRUE(fifo.push_phantom(7, 0, 0, 0));
  ASSERT_TRUE(fifo.insert_data(7, ref_for(7)));
  EXPECT_EQ(fifo.pop().ref, ref_for(7));
}

TEST(StageFifoFaults, ExtractDataIfLeavesReclaimableZombies) {
  StageFifo fifo(1, 0, /*ideal=*/false);
  ASSERT_TRUE(fifo.push_phantom(0, 0, 0, 0));
  ASSERT_TRUE(fifo.push_phantom(1, 0, 0, 0));
  ASSERT_TRUE(fifo.push_phantom(2, 0, 0, 0));
  ASSERT_TRUE(fifo.insert_data(0, ref_for(0)));
  ASSERT_TRUE(fifo.insert_data(1, ref_for(1)));
  ASSERT_TRUE(fifo.insert_data(2, ref_for(2)));

  const auto extracted =
      fifo.extract_data_if([](PacketRef r) { return r == ref_for(1); });
  ASSERT_EQ(extracted.size(), 1u);
  EXPECT_EQ(extracted[0], ref_for(1));
  // FIFO addressing stays intact: seq 0 pops, the extracted slot costs
  // one wasted pop, then seq 2 pops.
  EXPECT_EQ(fifo.pop().ref, ref_for(0));
  EXPECT_EQ(fifo.pop().kind, Kind::kWasted);
  EXPECT_EQ(fifo.pop().ref, ref_for(2));
}

TEST(StageFifoFaults, PressureClampForcesPushFailures) {
  StageFifo fifo(1, 0, /*ideal=*/false); // unbounded by configuration
  fifo.set_pressure_capacity(2);
  EXPECT_TRUE(fifo.push_phantom(0, 0, 0, 0));
  EXPECT_TRUE(fifo.push_phantom(1, 0, 0, 0));
  EXPECT_FALSE(fifo.push_phantom(2, 0, 0, 0)); // clamped
  fifo.set_pressure_capacity(0);               // clamp lifted
  EXPECT_TRUE(fifo.push_phantom(3, 0, 0, 0));
}

TEST(StageFifoFaults, IdealModeSupportsDrainExtractAndPressure) {
  StageFifo fifo(2, 0, /*ideal=*/true);
  fifo.set_pressure_capacity(1);
  ASSERT_TRUE(fifo.push_phantom(0, 0, 5, 0));
  EXPECT_FALSE(fifo.push_phantom(1, 0, 5, 0)); // same index: clamped
  ASSERT_TRUE(fifo.push_phantom(2, 0, 6, 0));  // other index: own queue
  fifo.set_pressure_capacity(0);
  ASSERT_TRUE(fifo.insert_data(0, ref_for(0)));
  ASSERT_TRUE(fifo.insert_data(2, ref_for(2)));

  const auto extracted =
      fifo.extract_data_if([](PacketRef r) { return r == ref_for(0); });
  ASSERT_EQ(extracted.size(), 1u);
  EXPECT_EQ(fifo.pop().ref, ref_for(2));
  EXPECT_EQ(fifo.pop().kind, Kind::kIdle);

  ASSERT_TRUE(fifo.push_phantom(5, 0, 7, 0));
  ASSERT_TRUE(fifo.insert_data(5, ref_for(5)));
  const auto data = fifo.drain_all();
  ASSERT_EQ(data.size(), 1u);
  EXPECT_EQ(data[0], ref_for(5));
  EXPECT_EQ(fifo.size(), 0u);
}

TEST(StageFifoFaults, CheckInvariantsPassesOnHealthyFifo) {
  StageFifo fifo(2, 0, /*ideal=*/false);
  ASSERT_TRUE(fifo.push_phantom(0, 0, 0, 0));
  ASSERT_TRUE(fifo.push_phantom(1, 0, 1, 1));
  ASSERT_TRUE(fifo.insert_data(0, ref_for(0)));
  EXPECT_NO_THROW(fifo.check_invariants(/*now=*/10));

  StageFifo ideal(2, 0, /*ideal=*/true);
  ASSERT_TRUE(ideal.push_phantom(0, 0, 3, 0));
  ASSERT_TRUE(ideal.push_phantom(1, 0, 3, 0));
  ASSERT_TRUE(ideal.insert_data(0, ref_for(0)));
  EXPECT_NO_THROW(ideal.check_invariants(/*now=*/10));
}

// --- ShardedState lane liveness -----------------------------------------

std::vector<ir::RegisterSpec> one_reg(std::size_t size) {
  ir::RegisterSpec spec;
  spec.name = "r";
  spec.size = size;
  return {spec};
}

TEST(ShardMapFaults, FailPipelineRehomesEveryActiveIndex) {
  ShardedState state(one_reg(256), {true}, 4, ShardingPolicy::kDynamic,
                     Rng(1));
  std::size_t on_dead = 0;
  for (RegIndex i = 0; i < 256; ++i) {
    if (state.pipeline_of(0, i) == 2) ++on_dead;
  }
  ASSERT_GT(on_dead, 0u);

  const std::size_t moved = state.fail_pipeline(2);
  EXPECT_EQ(moved, on_dead);
  EXPECT_FALSE(state.alive(2));
  EXPECT_EQ(state.alive_count(), 3u);
  for (RegIndex i = 0; i < 256; ++i) {
    EXPECT_NE(state.pipeline_of(0, i), 2u) << "index " << i;
  }
}

TEST(ShardMapFaults, RehomingSpreadsAcrossSurvivorsWithColdCounters) {
  // Regression: with all access counters zero (e.g. right after a remap
  // window reset), re-homing must still spread the dead lane's indices
  // across the survivors instead of resolving every least-loaded tie to
  // the first alive lane — that turned lane 0 into a post-failure
  // hotspot capping degraded throughput well below (k-1)/k.
  ShardedState state(one_reg(300), {true}, 4, ShardingPolicy::kDynamic,
                     Rng(7));
  state.fail_pipeline(1);
  std::vector<std::size_t> count(4, 0);
  for (RegIndex i = 0; i < 300; ++i) ++count[state.pipeline_of(0, i)];
  EXPECT_EQ(count[1], 0u);
  for (const PipelineId p : {0u, 2u, 3u}) {
    EXPECT_GT(count[p], 60u) << "lane " << p << " left underloaded";
    EXPECT_LT(count[p], 140u) << "lane " << p << " became a hotspot";
  }
}

TEST(ShardMapFaults, InFlightGuardBlocksRemapOfUndrainedLane) {
  ShardedState state(one_reg(64), {true}, 2, ShardingPolicy::kDynamic,
                     Rng(1));
  RegIndex on_one = 0;
  while (state.pipeline_of(0, on_one) != 1) ++on_one;
  state.note_resolved(0, on_one); // a packet is in flight to this index
  EXPECT_THROW(state.fail_pipeline(1), Error);
}

TEST(ShardMapFaults, PinMovesOffDeadLaneAndRecoveryRestores) {
  ShardedState state(one_reg(16), {true}, 3, ShardingPolicy::kDynamic,
                     Rng(2));
  ASSERT_EQ(state.pin_pipeline(), 0u);
  state.fail_pipeline(0);
  EXPECT_NE(state.pin_pipeline(), 0u);
  EXPECT_TRUE(state.alive(state.pin_pipeline()));

  state.recover_pipeline(0);
  EXPECT_TRUE(state.alive(0));
  EXPECT_EQ(state.alive_count(), 3u);
  // Double-recover and double-fail are programming errors.
  EXPECT_THROW(state.recover_pipeline(0), Error);
  state.fail_pipeline(1);
  EXPECT_THROW(state.fail_pipeline(1), Error);
}

TEST(ShardMapFaults, LastSurvivorCannotFail) {
  ShardedState state(one_reg(8), {true}, 2, ShardingPolicy::kDynamic, Rng(3));
  state.fail_pipeline(0);
  EXPECT_THROW(state.fail_pipeline(1), Error);
}

TEST(ShardMapFaults, RebalanceNeverTargetsDeadLane) {
  ShardedState state(one_reg(64), {true}, 4, ShardingPolicy::kDynamic,
                     Rng(4));
  state.fail_pipeline(3);
  for (int round = 0; round < 10; ++round) {
    for (RegIndex i = 0; i < 64; ++i) {
      state.note_resolved(0, i);
      state.note_completed(0, i);
    }
    state.rebalance();
    for (RegIndex i = 0; i < 64; ++i) {
      ASSERT_NE(state.pipeline_of(0, i), 3u) << "round " << round;
    }
  }
}

} // namespace
} // namespace mp5::test
