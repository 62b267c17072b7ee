// Replicated design variants (ISSUE 10): the SCR / relaxed-consistency
// simulators and the variant×knob validation sweep. Every MP5-only knob
// combined with a replicated variant must raise ConfigError naming both
// the variant and the knob — never run with silently wrong semantics.
#include <gtest/gtest.h>

#include <ios>
#include <string>
#include <utility>
#include <vector>

#include "baseline/presets.hpp"
#include "baseline/replicated.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "metrics/equivalence.hpp"
#include "metrics/sim_result.hpp"
#include "mp5/simulator.hpp"
#include "telemetry/telemetry.hpp"
#include "test_util.hpp"

namespace mp5::test {
namespace {

/// Shared-state program whose output headers depend on reads of state
/// written by earlier packets — the access pattern where replicated
/// designs genuinely diverge from the single-pipeline reference.
constexpr char kDependent[] = R"(
  struct Packet { int a; int b; };
  int last = 0;
  void prog(struct Packet p) {
    p.b = last;
    last = p.a;
  }
)";

/// Array counter with a read-back: stresses index resolution and replay.
constexpr char kCounter[] = R"(
  struct Packet { int a; int b; };
  int tally[8] = {0};
  void prog(struct Packet p) {
    tally[p.a % 8] = tally[p.a % 8] + 1;
    p.b = tally[p.a % 8];
  }
)";

SimResult run_variant(const Mp5Program& prog, const Trace& trace,
                      SimOptions opts) {
  opts.record_egress = true;
  opts.paranoid_checks = true;
  if (opts.variant == DesignVariant::kScr) {
    return ScrSimulator(prog, opts).run(trace);
  }
  return RelaxedSimulator(prog, opts).run(trace);
}

EquivalenceReport check_variant(const Mp5Program& prog, const Trace& trace,
                                const SimOptions& opts) {
  const SimResult result = run_variant(prog, trace, opts);
  return check_equivalence(prog.pvsm, run_reference(prog, trace), result);
}

Trace dense_trace(const Mp5Program& prog, std::size_t packets,
                  std::uint32_t pipelines, double load = 1.0) {
  Rng rng(7);
  return trace_from_fields(
      random_fields(packets, prog.pvsm.num_slots(), 64, rng), pipelines,
      load);
}

// ---------------------------------------------------------------------------
// Variant×knob validation sweep (satellite 1): one table entry per
// MP5-only knob. Each must be rejected for BOTH replicated variants with
// a message naming the variant and the knob.
// ---------------------------------------------------------------------------

struct KnobCase {
  const char* knob; // must appear verbatim in the error message
  void (*set)(SimOptions&);
};

const std::vector<KnobCase>& mp5_only_knobs() {
  static telemetry::Telemetry telem;
  static const std::vector<KnobCase> cases = {
      {"sharding",
       [](SimOptions& o) { o.sharding = ShardingPolicy::kStaticRandom; }},
      {"phantoms", [](SimOptions& o) { o.phantoms = false; }},
      {"realistic_phantom_channel",
       [](SimOptions& o) { o.realistic_phantom_channel = true; }},
      {"ideal_queues", [](SimOptions& o) { o.ideal_queues = true; }},
      {"naive_single_pipeline",
       [](SimOptions& o) { o.naive_single_pipeline = true; }},
      {"starvation_threshold",
       [](SimOptions& o) { o.starvation_threshold = 16; }},
      {"ecn_threshold", [](SimOptions& o) { o.ecn_threshold = 4; }},
      {"fifo_capacity", [](SimOptions& o) { o.fifo_capacity = 8; }},
      {"faults",
       [](SimOptions& o) {
         PipelineFault fault;
         fault.pipeline = 0;
         fault.fail_at = 10;
         o.faults.pipeline_faults.push_back(fault);
       }},
      {"telemetry", [](SimOptions& o) { o.telemetry = &telem; }},
      {"timeline",
       [](SimOptions& o) { o.timeline = [](const TimelineEvent&) {}; }},
      {"track_flow_reordering",
       [](SimOptions& o) { o.track_flow_reordering = true; }},
      {"egress_sink",
       [](SimOptions& o) { o.egress_sink = [](EgressRecord&&) {}; }},
      {"fault_drop_sink",
       [](SimOptions& o) { o.fault_drop_sink = [](SeqNo, bool) {}; }},
  };
  return cases;
}

TEST(VariantValidation, EveryMp5OnlyKnobRejectedNamingVariantAndKnob) {
  const Mp5Program prog = compile_mp5(kCounter);
  for (const DesignVariant variant :
       {DesignVariant::kScr, DesignVariant::kRelaxed}) {
    for (const KnobCase& c : mp5_only_knobs()) {
      SimOptions opts = variant == DesignVariant::kScr
                            ? scr_options(4, 1)
                            : relaxed_options(4, 1);
      c.set(opts);
      try {
        run_variant(prog, {}, opts);
        FAIL() << to_string(variant) << " accepted MP5-only knob " << c.knob;
      } catch (const ConfigError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(std::string("variant '") + to_string(variant) +
                            "'"),
                  std::string::npos)
            << c.knob << ": message does not name the variant: " << what;
        EXPECT_NE(what.find(c.knob), std::string::npos)
            << "message does not name the knob: " << what;
      }
    }
  }
}

TEST(VariantValidation, StalenessBoundGatedPerVariant) {
  const Mp5Program prog = compile_mp5(kCounter);
  // relaxed requires a bound >= 1.
  SimOptions opts = relaxed_options(4, 1, /*staleness=*/0);
  EXPECT_THROW(run_variant(prog, {}, opts), ConfigError);
  // scr must not carry one.
  opts = scr_options(4, 1);
  opts.staleness_bound = 64;
  EXPECT_THROW(run_variant(prog, {}, opts), ConfigError);
  // And the MP5 family rejects the knob entirely.
  SimOptions mp5 = mp5_options(4, 1);
  mp5.staleness_bound = 8;
  EXPECT_THROW(Mp5Simulator(prog, mp5), ConfigError);
}

TEST(VariantValidation, SimulatorsRejectMismatchedVariants) {
  const Mp5Program prog = compile_mp5(kCounter);
  // Mp5Simulator refuses replicated-variant options…
  EXPECT_THROW(Mp5Simulator(prog, scr_options(4, 1)), ConfigError);
  EXPECT_THROW(Mp5Simulator(prog, relaxed_options(4, 1)), ConfigError);
  // …and each replicated wrapper refuses the other family's options.
  EXPECT_THROW(ScrSimulator(prog, relaxed_options(4, 1)), ConfigError);
  EXPECT_THROW(RelaxedSimulator(prog, scr_options(4, 1)), ConfigError);
  EXPECT_THROW(ScrSimulator(prog, mp5_options(4, 1)), ConfigError);
}

TEST(VariantValidation, GenericBoundsStillChecked) {
  const Mp5Program prog = compile_mp5(kCounter);
  SimOptions opts = scr_options(0, 1);
  EXPECT_THROW(run_variant(prog, {}, opts), ConfigError);
  opts = scr_options(4, 1);
  opts.checkpoint_interval = 100; // no sink
  EXPECT_THROW(run_variant(prog, {}, opts), ConfigError);
}

TEST(VariantValidation, StringRoundTrip) {
  for (const DesignVariant v : {DesignVariant::kMp5, DesignVariant::kScr,
                                DesignVariant::kRelaxed}) {
    EXPECT_EQ(variant_from_string(to_string(v)), v);
  }
  EXPECT_THROW(variant_from_string("eventual"), ConfigError);
}

// ---------------------------------------------------------------------------
// Behavior: where the replicated designs match the reference and where
// they are expected to diverge.
// ---------------------------------------------------------------------------

TEST(VariantBehavior, SinglePipelineIsAlwaysEquivalent) {
  // k = 1 has nothing to replicate: both variants degenerate to the
  // single-pipeline switch.
  for (const char* source : {kDependent, kCounter}) {
    const Mp5Program prog = compile_mp5(source);
    const Trace trace = dense_trace(prog, 300, 1);
    EXPECT_TRUE(check_variant(prog, trace, scr_options(1, 1)).equivalent());
    EXPECT_TRUE(
        check_variant(prog, trace, relaxed_options(1, 1, 16)).equivalent());
  }
}

TEST(VariantBehavior, SparseTrafficIsEquivalent) {
  // With inter-arrival gaps far above the replay delay every digest lands
  // before the next packet reads, so the replicas are always in sync.
  const Mp5Program prog = compile_mp5(kDependent);
  const Trace trace = dense_trace(prog, 200, 4, /*load=*/0.005);
  EXPECT_TRUE(check_variant(prog, trace, scr_options(4, 1)).equivalent());
  EXPECT_TRUE(
      check_variant(prog, trace, relaxed_options(4, 1, 8)).equivalent());
}

TEST(VariantBehavior, DenseReadDependentTrafficDivergesWhereMp5DoesNot) {
  // The tentpole's semantic point: at line rate a read on one replica
  // misses concurrent remote writes, so the variants diverge from the
  // reference — while MP5's D1-D4 machinery stays exactly equivalent.
  const Mp5Program prog = compile_mp5(kDependent);
  const Trace trace = dense_trace(prog, 400, 4);
  EXPECT_TRUE(run_and_check(prog, trace, mp5_options(4, 1)).equivalent());
  EXPECT_FALSE(check_variant(prog, trace, scr_options(4, 1)).equivalent());
  EXPECT_FALSE(
      check_variant(prog, trace, relaxed_options(4, 1, 64)).equivalent());
}

TEST(VariantBehavior, LosslessAndDeterministic) {
  const Mp5Program prog = compile_mp5(kCounter);
  const Trace trace = dense_trace(prog, 500, 4);
  for (const SimOptions& opts :
       {scr_options(4, 1), relaxed_options(4, 1, 32)}) {
    const SimResult a = run_variant(prog, trace, opts);
    const SimResult b = run_variant(prog, trace, opts);
    EXPECT_EQ(a.offered, trace.size());
    EXPECT_EQ(a.egressed, a.offered);
    std::string why;
    EXPECT_TRUE(same_results(a, b, &why)) << why;
  }
}

TEST(VariantBehavior, FastForwardIsBitIdentical) {
  // The replicated simulators always jump idle cycles. On a sparse trace,
  // where the jump actually engages, they must reproduce the digests
  // recorded under their unskipped cycle-by-cycle walk.
  const Mp5Program prog = compile_mp5(kCounter);
  const Trace trace = dense_trace(prog, 120, 4, /*load=*/0.01);
  const std::pair<SimOptions, std::uint64_t> cases[] = {
      {scr_options(4, 1), 0xc977657cf24773ec},
      {relaxed_options(4, 1, 16), 0x84f6cda954c20cbe},
  };
  for (const auto& [opts, golden] : cases) {
    const SimResult result = run_variant(prog, trace, opts);
    EXPECT_GT(result.cycles_run, 10 * trace.size()); // really sparse
    const std::uint64_t digest = result_digest(result);
    EXPECT_EQ(digest, golden) << to_string(opts.variant) << " digest 0x"
                              << std::hex << digest;
  }
}

TEST(VariantBehavior, RelaxedStalenessBoundsDivergenceWindow) {
  // Δ = 1 applies buffered digests at every cycle boundary — the tightest
  // relaxed setting. It can still diverge (updates are deferred to the
  // boundary), but a huge Δ must diverge at least as much: on this
  // counter trace the Δ=1 run stays closer to the reference's final
  // state than Δ=4096.
  const Mp5Program prog = compile_mp5(kCounter);
  const Trace trace = dense_trace(prog, 300, 4);
  const auto reference = run_reference(prog, trace);
  auto mismatches = [&](const SimResult& r) {
    std::size_t count = 0;
    for (std::size_t reg = 0; reg < reference.final_registers.size(); ++reg) {
      for (std::size_t i = 0; i < reference.final_registers[reg].size();
           ++i) {
        count += reference.final_registers[reg][i] !=
                 r.final_registers[reg][i];
      }
    }
    return count;
  };
  const SimResult tight =
      run_variant(prog, trace, relaxed_options(4, 1, 1));
  const SimResult loose =
      run_variant(prog, trace, relaxed_options(4, 1, 4096));
  EXPECT_LE(mismatches(tight), mismatches(loose));
}

TEST(VariantBehavior, SteersCountDigestBroadcasts) {
  // Every stateful stage execution on a k>1 replicated switch emits one
  // digest; with k=1 there is no replication traffic at all.
  const Mp5Program prog = compile_mp5(kCounter);
  const Trace trace = dense_trace(prog, 100, 4);
  EXPECT_GT(run_variant(prog, trace, scr_options(4, 1)).steers, 0u);
  EXPECT_EQ(run_variant(prog, dense_trace(prog, 100, 1),
                        scr_options(1, 1))
                .steers,
            0u);
}

} // namespace
} // namespace mp5::test
