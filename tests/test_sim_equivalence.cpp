// Headline property (§2.2.1): MP5 is functionally equivalent to the
// logical single-pipelined switch — identical final register state and
// identical per-packet egress headers — for all programs and traces, as
// long as no packets are dropped.
#include <gtest/gtest.h>

#include <ostream>

#include "apps/programs.hpp"
#include "baseline/presets.hpp"
#include "test_util.hpp"

namespace mp5::test {
namespace {

TEST(Equivalence, PacketCounter) {
  const auto prog = compile_mp5(apps::packet_counter_source());
  Rng rng(7);
  const auto trace =
      trace_from_fields(random_fields(500, 1, 16, rng), /*pipelines=*/4);
  const auto report = run_and_check(prog, trace, mp5_options(4, 1));
  EXPECT_TRUE(report.equivalent()) << report.first_difference;
}

TEST(Equivalence, SequencerExampleStampsArrivalOrder) {
  // §2.3.1 Example 2: every packet gets the counter value; equivalence
  // requires packet i to carry stamp i+1.
  const auto prog = compile_mp5(apps::sequencer_example_source());
  Rng rng(11);
  const auto trace =
      trace_from_fields(random_fields(300, 1, 4, rng), /*pipelines=*/4);
  const SimOptions opts = mp5_options(4, 2);
  const StreamedRun run = run_streamed(prog, trace, opts);
  ASSERT_EQ(run.result.egressed, trace.size());
  const ir::Slot stamp = prog.pvsm.slot_of("stamp");
  for (const auto& rec : run.streams.egress) {
    EXPECT_EQ(rec.headers[static_cast<std::size_t>(stamp)],
              static_cast<Value>(rec.seq) + 1)
        << "packet " << rec.seq;
  }
  const auto report = run_and_check(prog, trace, opts);
  EXPECT_TRUE(report.equivalent()) << report.first_difference;
}

TEST(Equivalence, Figure3Program) {
  const auto prog = compile_mp5(apps::figure3_source());
  Rng rng(13);
  auto fields = random_fields(400, 5, 4, rng);
  for (auto& f : fields) f[4] = rng.chance(0.5) ? 1 : 0; // mux
  const auto trace = trace_from_fields(fields, 2);
  const auto report = run_and_check(prog, trace, mp5_options(2, 3));
  EXPECT_TRUE(report.equivalent()) << report.first_difference;
}

TEST(Equivalence, Figure3ExactScenario) {
  // Packets A..E of Figure 3: A-D access reg1[1] & reg3[2] (mux=1),
  // E accesses reg2[3] & reg3[2] (mux=0). Single pipeline result:
  // reg3[2] = 4*4*4*4 + 7 = 263... the paper's narrative: with initial
  // reg3[2]=0 the updates are 0*4 three times... we reproduce semantics,
  // not the (illustrative) arithmetic: the check is equivalence.
  const auto prog = compile_mp5(apps::figure3_source());
  std::vector<std::vector<Value>> fields = {
      {1, 1, 2, 0, 1}, // A: h1,h2,h3,val,mux
      {1, 1, 2, 0, 1}, // B
      {1, 1, 2, 0, 1}, // C
      {1, 1, 2, 0, 1}, // D
      {1, 3, 2, 0, 0}, // E
  };
  const auto trace = trace_from_fields(fields, 2);
  const auto report = run_and_check(prog, trace, mp5_options(2, 4));
  EXPECT_TRUE(report.equivalent()) << report.first_difference;
}

TEST(Equivalence, StatefulPredicateConservativePhantoms) {
  const auto prog = compile_mp5(apps::stateful_predicate_source());
  EXPECT_GT(prog.conservative_accesses(), 0u);
  Rng rng(17);
  const auto trace = trace_from_fields(random_fields(600, 3, 64, rng), 4);
  const auto report = run_and_check(prog, trace, mp5_options(4, 5));
  EXPECT_TRUE(report.equivalent()) << report.first_difference;
}

TEST(Equivalence, StatefulIndexPinnedArray) {
  const auto prog = compile_mp5(apps::stateful_index_source());
  EXPECT_GT(prog.pinned_registers(), 0u);
  Rng rng(19);
  const auto trace = trace_from_fields(random_fields(600, 4, 64, rng), 4);
  const auto report = run_and_check(prog, trace, mp5_options(4, 6));
  EXPECT_TRUE(report.equivalent()) << report.first_difference;
}

TEST(Equivalence, SyntheticProgramManyStatefulStages) {
  const auto prog = compile_mp5(apps::make_synthetic_source(6, 32));
  Rng rng(23);
  const auto trace = trace_from_fields(random_fields(800, 7, 32, rng), 4);
  const auto report = run_and_check(prog, trace, mp5_options(4, 7));
  EXPECT_TRUE(report.equivalent()) << report.first_difference;
}

TEST(Equivalence, HoldsWithFlowOrderStage) {
  TransformOptions topts;
  topts.add_flow_order_stage = true;
  topts.flow_fields = {"sport", "dport"};
  const auto prog = compile_mp5(apps::wfq_app().source, topts);
  Rng rng(29);
  const auto trace = trace_from_fields(random_fields(400, 6, 512, rng), 4);
  const auto report = run_and_check(prog, trace, mp5_options(4, 8));
  EXPECT_TRUE(report.equivalent()) << report.first_difference;
}

TEST(Equivalence, HoldsForIdealVariant) {
  const auto prog = compile_mp5(apps::make_synthetic_source(4, 16));
  Rng rng(31);
  const auto trace = trace_from_fields(random_fields(600, 5, 16, rng), 4);
  const auto report = run_and_check(prog, trace, ideal_options(4, 9));
  EXPECT_TRUE(report.equivalent()) << report.first_difference;
}

TEST(Equivalence, HoldsForNaiveVariant) {
  const auto prog = compile_mp5(apps::make_synthetic_source(3, 8));
  Rng rng(37);
  const auto trace = trace_from_fields(random_fields(300, 4, 8, rng), 4);
  const auto report = run_and_check(prog, trace, naive_options(4, 10));
  EXPECT_TRUE(report.equivalent()) << report.first_difference;
}

TEST(Equivalence, HoldsWithoutDynamicSharding) {
  const auto prog = compile_mp5(apps::make_synthetic_source(4, 16));
  Rng rng(41);
  const auto trace = trace_from_fields(random_fields(500, 5, 16, rng), 4);
  const auto report = run_and_check(prog, trace, no_d2_options(4, 11));
  EXPECT_TRUE(report.equivalent()) << report.first_difference;
}


TEST(Equivalence, MatchTableProgram) {
  // §2.1 match tables (constant entries, compiled to predicated
  // execution) keep full functional equivalence under MP5.
  const auto prog = compile_mp5(apps::table_routing_source());
  Rng rng(43);
  const auto trace = trace_from_fields(random_fields(800, 3, 256, rng), 4);
  const auto report = run_and_check(prog, trace, mp5_options(4, 12));
  EXPECT_TRUE(report.equivalent()) << report.first_difference;
}

// Parameterized sweep: pipelines x seeds over the real applications.
struct SweepParam {
  std::uint32_t pipelines;
  std::uint64_t seed;
};

// Without a printer gtest shows the raw bytes, padding included, so the
// registered test names would carry uninitialized memory.
void PrintTo(const SweepParam& p, std::ostream* os) {
  *os << "k=" << p.pipelines << " seed=" << p.seed;
}

class EquivalenceSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(EquivalenceSweep, RealAppsAtLineRate) {
  const auto param = GetParam();
  for (const auto& app : apps::real_apps()) {
    const auto prog = compile_mp5(app.source);
    FlowWorkloadConfig config;
    config.pipelines = param.pipelines;
    config.packets = 1500;
    config.seed = param.seed;
    const auto trace = make_flow_trace(config, app.filler);
    const auto report =
        run_and_check(prog, trace, mp5_options(param.pipelines, param.seed));
    EXPECT_TRUE(report.equivalent())
        << app.name << " k=" << param.pipelines << ": "
        << report.first_difference;
  }
}

INSTANTIATE_TEST_SUITE_P(
    PipelinesAndSeeds, EquivalenceSweep,
    ::testing::Values(SweepParam{1, 1}, SweepParam{2, 1}, SweepParam{2, 2},
                      SweepParam{4, 1}, SweepParam{4, 2}, SweepParam{4, 3},
                      SweepParam{8, 1}, SweepParam{8, 2}, SweepParam{16, 1}),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      return std::string("k")
          .append(std::to_string(info.param.pipelines))
          .append("_seed")
          .append(std::to_string(info.param.seed));
    });


// Second grid: design variants x pipeline counts over programs that cover
// every compiler path (plain, conservative predicate, exclusive branches).
struct VariantParam {
  const char* variant;
  std::uint32_t pipelines;
};

// Without a printer gtest shows the raw bytes, pointer included, so the
// registered test names would change with every relink.
void PrintTo(const VariantParam& p, std::ostream* os) {
  *os << p.variant << " k=" << p.pipelines;
}

class VariantEquivalence : public ::testing::TestWithParam<VariantParam> {};

TEST_P(VariantEquivalence, GridHoldsEquivalence) {
  const auto param = GetParam();
  SimOptions opts;
  const std::string variant = param.variant;
  if (variant == "mp5") opts = mp5_options(param.pipelines, 3);
  else if (variant == "ideal") opts = ideal_options(param.pipelines, 3);
  else if (variant == "no_d2") opts = no_d2_options(param.pipelines, 3);
  else if (variant == "naive") opts = naive_options(param.pipelines, 3);
  else FAIL() << "unknown variant";

  const std::string programs[] = {
      apps::make_synthetic_source(4, 64),
      apps::stateful_predicate_source(),
      apps::figure3_source(),
  };
  Rng rng(1234);
  for (const auto& src : programs) {
    const auto prog = compile_mp5(src);
    const auto ast_fields = prog.pvsm.declared_slot.size();
    const auto trace = trace_from_fields(
        random_fields(600, ast_fields, 64, rng), param.pipelines);
    const auto report = run_and_check(prog, trace, opts);
    EXPECT_TRUE(report.equivalent())
        << variant << " k=" << param.pipelines << ": "
        << report.first_difference;
  }
}

INSTANTIATE_TEST_SUITE_P(
    DesignVariants, VariantEquivalence,
    ::testing::Values(VariantParam{"mp5", 2}, VariantParam{"mp5", 8},
                      VariantParam{"ideal", 2}, VariantParam{"ideal", 8},
                      VariantParam{"no_d2", 2}, VariantParam{"no_d2", 8},
                      VariantParam{"naive", 2}, VariantParam{"naive", 8}),
    [](const ::testing::TestParamInfo<VariantParam>& info) {
      return std::string(info.param.variant) + "_k" +
             std::to_string(info.param.pipelines);
    });

// Remap-period sweep: equivalence must hold no matter how often (or
// whether) the sharding heuristic moves state under live traffic.
class RemapEquivalence : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(RemapEquivalence, AnyPeriodPreservesEquivalence) {
  const auto prog = compile_mp5(apps::make_synthetic_source(4, 64));
  Rng rng(77);
  const auto trace = trace_from_fields(random_fields(800, 5, 64, rng), 4);
  SimOptions opts = mp5_options(4, 7);
  opts.remap_period = GetParam();
  const auto report = run_and_check(prog, trace, opts);
  EXPECT_TRUE(report.equivalent()) << report.first_difference;
}

INSTANTIATE_TEST_SUITE_P(Periods, RemapEquivalence,
                         ::testing::Values(1u, 10u, 50u, 100u, 1000u),
                         [](const ::testing::TestParamInfo<std::uint32_t>& i) {
                           return "period" + std::to_string(i.param);
                         });


// Realistic phantom channel (phantoms hop one stage per cycle): the full
// equivalence property must hold unchanged, including in-flight phantom
// cancellation for conservative predicates.
class PhantomChannelEquivalence
    : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(PhantomChannelEquivalence, HoldsWithPhysicalChannel) {
  const std::string programs[] = {
      apps::make_synthetic_source(4, 64),
      apps::stateful_predicate_source(),
      apps::figure3_source(),
      apps::sequencer_example_source(),
  };
  Rng rng(2024);
  for (const auto& src : programs) {
    const auto prog = compile_mp5(src);
    const auto trace = trace_from_fields(
        random_fields(700, prog.pvsm.declared_slot.size(), 64, rng),
        GetParam());
    SimOptions opts = mp5_options(GetParam(), 9);
    opts.realistic_phantom_channel = true;
    const auto report = run_and_check(prog, trace, opts);
    EXPECT_TRUE(report.equivalent())
        << "k=" << GetParam() << ": " << report.first_difference;
  }
}

INSTANTIATE_TEST_SUITE_P(Pipelines, PhantomChannelEquivalence,
                         ::testing::Values(2u, 4u, 8u),
                         [](const ::testing::TestParamInfo<std::uint32_t>& i) {
                           return std::string("k").append(
                               std::to_string(i.param));
                         });

} // namespace
} // namespace mp5::test
