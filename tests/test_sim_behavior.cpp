// Behavioural properties of the MP5 simulator beyond raw equivalence:
// throughput characteristics, C1 violations of the ablations, drops under
// bounded FIFOs, invariant counters.
#include <gtest/gtest.h>

#include "apps/programs.hpp"
#include "baseline/presets.hpp"
#include "metrics/reordering.hpp"
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

TEST(SimBehavior, StatelessProgramRunsAtLineRate) {
  const auto prog = compile_mp5(apps::make_synthetic_source(0, 1));
  const auto trace = synthetic(0, 1, 4, 8000, 1);
  Mp5Simulator sim(prog, mp5_options(4, 1));
  const auto result = sim.run(trace);
  EXPECT_EQ(result.egressed, trace.size());
  EXPECT_GT(result.normalized_throughput(), 0.99);
  EXPECT_EQ(result.c1_violating_packets, 0u);
  EXPECT_EQ(result.max_queue_depth, 0u);
}

TEST(SimBehavior, GlobalCounterLimitedToSinglePipelineRate) {
  // §3.5.2 fundamental limit: every packet accesses one scalar register,
  // so throughput cannot exceed 1/k of line rate.
  const auto prog = compile_mp5(apps::packet_counter_source());
  Rng rng(3);
  const auto trace = trace_from_fields(random_fields(4000, 1, 4, rng), 4);
  Mp5Simulator sim(prog, mp5_options(4, 3));
  const auto result = sim.run(trace);
  EXPECT_EQ(result.egressed, trace.size());
  EXPECT_NEAR(result.normalized_throughput(), 0.25, 0.03);
}

TEST(SimBehavior, NaiveDesignAlsoLimitedToSinglePipeline) {
  const auto prog = compile_mp5(apps::make_synthetic_source(2, 256));
  const auto trace = synthetic(2, 256, 4, 4000, 5);
  Mp5Simulator sim(prog, naive_options(4, 5));
  const auto result = sim.run(trace);
  EXPECT_NEAR(result.normalized_throughput(), 0.25, 0.04);
}

TEST(SimBehavior, ShardedStateBeatsNaive) {
  const auto prog = compile_mp5(apps::make_synthetic_source(2, 512));
  const auto trace = synthetic(2, 512, 4, 6000, 7);
  Mp5Simulator mp5(prog, mp5_options(4, 7));
  Mp5Simulator naive(prog, naive_options(4, 7));
  const double t_mp5 = mp5.run(trace).normalized_throughput();
  const double t_naive = naive.run(trace).normalized_throughput();
  EXPECT_GT(t_mp5, 1.8 * t_naive);
}

TEST(SimBehavior, Mp5NeverViolatesC1) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const auto prog = compile_mp5(apps::make_synthetic_source(4, 64));
    const auto trace =
        synthetic(4, 64, 4, 3000, seed, AccessPattern::kSkewed);
    Mp5Simulator sim(prog, mp5_options(4, seed));
    const auto result = sim.run(trace);
    EXPECT_EQ(result.c1_violating_packets, 0u) << "seed " << seed;
  }
}

TEST(SimBehavior, NoD4ViolatesC1UnderContention) {
  const auto prog = compile_mp5(apps::make_synthetic_source(4, 64));
  const auto trace = synthetic(4, 64, 4, 4000, 11, AccessPattern::kSkewed);
  Mp5Simulator sim(prog, no_d4_options(4, 11));
  const auto result = sim.run(trace);
  EXPECT_GT(result.c1_fraction(), 0.01);
}

TEST(SimBehavior, DynamicShardingBeatsStaticOnSkew) {
  const auto prog = compile_mp5(apps::make_synthetic_source(4, 512));
  const auto trace = synthetic(4, 512, 4, 8000, 13, AccessPattern::kSkewed);
  Mp5Simulator dynamic(prog, mp5_options(4, 13));
  Mp5Simulator fixed(prog, no_d2_options(4, 13));
  const auto r_dynamic = dynamic.run(trace);
  const auto r_static = fixed.run(trace);
  EXPECT_GT(r_dynamic.remap_moves, 0u);
  EXPECT_EQ(r_static.remap_moves, 0u);
  EXPECT_GE(r_dynamic.normalized_throughput(),
            r_static.normalized_throughput());
}

TEST(SimBehavior, IdealAtLeastAsGoodAsMp5) {
  const auto prog = compile_mp5(apps::make_synthetic_source(4, 128));
  const auto trace = synthetic(4, 128, 4, 6000, 17, AccessPattern::kSkewed);
  Mp5Simulator real(prog, mp5_options(4, 17));
  Mp5Simulator ideal(prog, ideal_options(4, 17));
  const double t_real = real.run(trace).normalized_throughput();
  const double t_ideal = ideal.run(trace).normalized_throughput();
  EXPECT_GE(t_ideal, t_real - 0.02);
}

TEST(SimBehavior, BoundedFifosDropUnderOverload) {
  // A scalar register at line rate on 4 pipelines is 4x oversubscribed;
  // with bounded FIFOs, phantoms and then data packets must drop (§3.4).
  const auto prog = compile_mp5(apps::packet_counter_source());
  Rng rng(19);
  const auto trace = trace_from_fields(random_fields(3000, 1, 4, rng), 4);
  SimOptions opts = mp5_options(4, 19);
  opts.fifo_capacity = 8;
  Mp5Simulator sim(prog, opts);
  const auto result = sim.run(trace);
  EXPECT_GT(result.dropped_phantom, 0u);
  EXPECT_GT(result.dropped_data, 0u);
  EXPECT_EQ(result.dropped_data + result.egressed, result.offered);
  EXPECT_LT(result.egressed, result.offered);
}

TEST(SimBehavior, NoDropsWithUnboundedFifos) {
  const auto prog = compile_mp5(apps::packet_counter_source());
  Rng rng(23);
  const auto trace = trace_from_fields(random_fields(2000, 1, 4, rng), 4);
  Mp5Simulator sim(prog, mp5_options(4, 23));
  const auto result = sim.run(trace);
  EXPECT_EQ(result.dropped_phantom, 0u);
  EXPECT_EQ(result.dropped_data, 0u);
  EXPECT_EQ(result.egressed, result.offered);
}

TEST(SimBehavior, ConservativePhantomsCostWastedCycles) {
  const auto prog = compile_mp5(apps::stateful_predicate_source());
  Rng rng(29);
  const auto trace = trace_from_fields(random_fields(3000, 3, 64, rng), 4);
  Mp5Simulator sim(prog, mp5_options(4, 29));
  const auto result = sim.run(trace);
  // About half the packets have a false predicate -> cancelled phantoms.
  EXPECT_GT(result.wasted_cycles, trace.size() / 5);
}

TEST(SimBehavior, SteeringHappensAcrossPipelines) {
  const auto prog = compile_mp5(apps::make_synthetic_source(4, 256));
  const auto trace = synthetic(4, 256, 4, 2000, 31);
  Mp5Simulator sim(prog, mp5_options(4, 31));
  const auto result = sim.run(trace);
  EXPECT_GT(result.steers, trace.size()); // multiple crossings per packet
}

TEST(SimBehavior, FlowOrderStagePreventsReordering) {
  // WFQ packets within a flow all touch the same state, but stateless
  // packets of other programs can overtake; construct a program where
  // packets alternate stateful/stateless within a flow and check the
  // dummy final stage restores order.
  const std::string src = R"(
    struct Packet { int flowid; int kind; int v; };
    int acc[64] = {0};
    void f(struct Packet p) {
      if (p.kind == 1) {
        acc[p.flowid % 64] = acc[p.flowid % 64] + p.v;
      }
    }
  )";
  Rng rng(37);
  auto fields = random_fields(4000, 3, 64, rng);
  for (std::size_t i = 0; i < fields.size(); ++i) {
    fields[i][0] = static_cast<Value>(i % 8); // 8 flows
    fields[i][1] = (i / 8) % 2;               // alternate stateful/stateless
  }
  auto trace = trace_from_fields(fields, 4);
  for (auto& item : trace) item.flow = static_cast<std::uint64_t>(item.fields[0]);

  const SimOptions opts = mp5_options(4, 37);
  const auto plain = compile_mp5(src);
  const auto r_plain = analyze_reordering(
      run_streamed(plain, trace, opts).streams.egress);

  TransformOptions topts;
  topts.add_flow_order_stage = true;
  topts.flow_fields = {"flowid"};
  const auto ordered = compile_mp5(src, topts);
  const auto r_ordered = analyze_reordering(
      run_streamed(ordered, trace, opts).streams.egress);

  EXPECT_GT(r_plain.intra_flow_reordered, 0u);
  EXPECT_EQ(r_ordered.intra_flow_reordered, 0u);
}


TEST(SimBehavior, StarvationGuardDropsStatelessForAgedStateful) {
  // Half the packets are stateless and would indefinitely starve queued
  // stateful packets at an overloaded stage; the guard drops them instead.
  const std::string src = R"(
    struct Packet { int kind; int v; };
    int counter = 0;
    void f(struct Packet p) {
      if (p.kind == 1) {
        counter = counter + 1;
        p.v = counter;
      }
    }
  )";
  const auto prog = compile_mp5(src);
  Rng rng(43);
  auto fields = random_fields(6000, 2, 4, rng);
  for (auto& f : fields) {
    // Random mix so the stateless share is spread over every spray lane
    // (a deterministic i%2 pattern would alias with the round-robin spray).
    f[0] = rng.chance(0.5) ? 1 : 0;
  }
  const auto trace = trace_from_fields(fields, 4);

  SimOptions guarded = mp5_options(4, 43);
  guarded.starvation_threshold = 50;
  Mp5Simulator sim(prog, guarded);
  const auto result = sim.run(trace);
  EXPECT_GT(result.dropped_starved, 0u);
  EXPECT_EQ(result.dropped_data, 0u); // stateful packets were never dropped
  EXPECT_EQ(result.egressed + result.dropped_starved, result.offered);

  SimOptions unguarded = mp5_options(4, 43);
  Mp5Simulator sim2(prog, unguarded);
  const auto baseline = sim2.run(trace);
  EXPECT_EQ(baseline.dropped_starved, 0u);
}

TEST(SimBehavior, EcnMarksPacketsAtCongestedStages) {
  const auto prog = compile_mp5(apps::packet_counter_source());
  Rng rng(47);
  const auto trace = trace_from_fields(random_fields(3000, 1, 4, rng), 4);
  SimOptions opts = mp5_options(4, 47);
  opts.ecn_threshold = 16;
  Mp5Simulator sim(prog, opts);
  const auto result = sim.run(trace); // 4x overload on a scalar register
  EXPECT_GT(result.ecn_marked, result.offered / 2);

  // An uncongested run marks nothing.
  const auto light = compile_mp5(apps::make_synthetic_source(1, 4096));
  SyntheticConfig config;
  config.stateful_stages = 1;
  config.reg_size = 4096;
  config.pipelines = 4;
  config.packets = 3000;
  config.load = 0.5;
  Mp5Simulator sim2(light, opts);
  const auto calm = sim2.run(make_synthetic_trace(config));
  EXPECT_EQ(calm.ecn_marked, 0u);
}

TEST(SimBehavior, DeterministicAcrossRuns) {
  const auto prog = compile_mp5(apps::make_synthetic_source(4, 64));
  const auto trace = synthetic(4, 64, 4, 2000, 51, AccessPattern::kSkewed);
  const SimOptions opts = mp5_options(4, 51);
  expect_same_run(run_streamed(prog, trace, opts),
                  run_streamed(prog, trace, opts));
}

TEST(SimBehavior, DropsBreakEquivalenceAsSection351Describes) {
  // §3.5.1: with bounded FIFOs and inadmissible input, lost packets stop
  // updating downstream state, so equivalence to the lossless single
  // pipeline is (correctly) violated.
  const auto prog = compile_mp5(apps::sequencer_example_source());
  Rng rng(53);
  const auto trace = trace_from_fields(random_fields(3000, 1, 4, rng), 4);
  SimOptions opts = mp5_options(4, 53);
  opts.fifo_capacity = 8;
  SimResult result;
  const auto report = run_verified(prog, trace, opts, &result);
  ASSERT_GT(result.dropped_data, 0u);
  EXPECT_FALSE(report.equivalent());
  // Every data drop reached the verifier; the verdict names them.
  EXPECT_EQ(report.first_difference.rfind(
                std::to_string(result.dropped_data + result.dropped_starved) +
                    " packets dropped outside the fault plan",
                0),
            0u)
      << report.first_difference;
  // The counter missed exactly the dropped packets.
  EXPECT_EQ(result.final_registers[0][0],
            static_cast<Value>(result.egressed));
}

TEST(SimBehavior, ArrivalTieBrokenByPort) {
  // Two packets arriving in the same instant: the smaller port id enters
  // (and is sequenced) first (§2.2.1).
  const auto prog = compile_mp5(apps::sequencer_example_source());
  Trace trace;
  TraceItem a;
  a.arrival_time = 0.0;
  a.port = 9;
  a.fields = {0};
  TraceItem b = a;
  b.port = 2;
  trace = {a, b};
  sort_by_arrival(trace);
  const SimOptions opts = mp5_options(2, 1);
  ASSERT_EQ(run_streamed(prog, trace, opts).streams.egress.size(), 2u);
  // seq 0 (= first processed, stamp 1) must be the port-2 packet.
  EXPECT_TRUE(run_verified(prog, trace, opts).equivalent());
}

TEST(SimBehavior, ThroughputMetricSanity) {
  SimResult r;
  r.offered = 1000;
  r.egressed = 1000;
  r.first_arrival = 0;
  r.last_arrival = 249; // 4 pkts/cycle
  r.last_egress = 499;  // drained at 2 pkts/cycle
  EXPECT_NEAR(r.input_rate(), 4.0, 0.1);
  EXPECT_NEAR(r.normalized_throughput(), 0.5, 0.01);
  r.last_egress = 251;
  EXPECT_GT(r.normalized_throughput(), 0.98);
}

} // namespace
} // namespace mp5::test
