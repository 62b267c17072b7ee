// Replicated design variants (ISSUE 10): the SCR / relaxed-consistency
// simulator. ReplicatedOptions holds only the fields it reads, so MP5's
// knobs cannot reach it and SimOptions cannot configure it.
#include <gtest/gtest.h>

#include <ios>
#include <string>
#include <type_traits>
#include <utility>

#include "baseline/presets.hpp"
#include "baseline/replicated.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "fuzz/differ.hpp"
#include "metrics/equivalence.hpp"
#include "metrics/sim_result.hpp"
#include "mp5/simulator.hpp"
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
                      ReplicatedOptions opts) {
  opts.record_egress = true;
  opts.paranoid_checks = true;
  return ReplicatedSimulator(prog, opts).run(trace);
}

EquivalenceReport check_variant(const Mp5Program& prog, const Trace& trace,
                                const ReplicatedOptions& opts) {
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

TEST(VariantValidation, SimulatorsRejectMismatchedVariants) {
  // Each simulator takes only its own options type: a replicated design
  // cannot be handed MP5's knobs, nor MP5 a staleness bound.
  static_assert(!std::is_constructible_v<Mp5Simulator, const Mp5Program&,
                                         const ReplicatedOptions&>);
  static_assert(!std::is_constructible_v<ReplicatedSimulator,
                                         const Mp5Program&,
                                         const SimOptions&>);
  static_assert(std::is_constructible_v<ReplicatedSimulator,
                                        const Mp5Program&,
                                        const ReplicatedOptions&>);
}

TEST(VariantValidation, GenericBoundsStillChecked) {
  const Mp5Program prog = compile_mp5(kCounter);
  ReplicatedOptions opts = scr_options(0);
  EXPECT_THROW(run_variant(prog, {}, opts), ConfigError);
  opts = scr_options(4);
  opts.checkpoint_interval = 100; // no sink
  EXPECT_THROW(run_variant(prog, {}, opts), ConfigError);
}

TEST(VariantValidation, StringRoundTrip) {
  using fuzz::DesignVariant;
  for (const DesignVariant v : {DesignVariant::kMp5, DesignVariant::kScr,
                                DesignVariant::kRelaxed}) {
    EXPECT_EQ(fuzz::variant_from_string(to_string(v)), v);
  }
  EXPECT_THROW(fuzz::variant_from_string("eventual"), ConfigError);
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
    EXPECT_TRUE(check_variant(prog, trace, scr_options(1)).equivalent());
    EXPECT_TRUE(
        check_variant(prog, trace, relaxed_options(1, 16)).equivalent());
  }
}

TEST(VariantBehavior, SparseTrafficIsEquivalent) {
  // With inter-arrival gaps far above the replay delay every digest lands
  // before the next packet reads, so the replicas are always in sync.
  const Mp5Program prog = compile_mp5(kDependent);
  const Trace trace = dense_trace(prog, 200, 4, /*load=*/0.005);
  EXPECT_TRUE(check_variant(prog, trace, scr_options(4)).equivalent());
  EXPECT_TRUE(
      check_variant(prog, trace, relaxed_options(4, 8)).equivalent());
}

TEST(VariantBehavior, DenseReadDependentTrafficDivergesWhereMp5DoesNot) {
  // The tentpole's semantic point: at line rate a read on one replica
  // misses concurrent remote writes, so the variants diverge from the
  // reference — while MP5's D1-D4 machinery stays exactly equivalent.
  const Mp5Program prog = compile_mp5(kDependent);
  const Trace trace = dense_trace(prog, 400, 4);
  EXPECT_TRUE(run_and_check(prog, trace, mp5_options(4, 1)).equivalent());
  EXPECT_FALSE(check_variant(prog, trace, scr_options(4)).equivalent());
  EXPECT_FALSE(
      check_variant(prog, trace, relaxed_options(4, 64)).equivalent());
}

TEST(VariantBehavior, LosslessAndDeterministic) {
  const Mp5Program prog = compile_mp5(kCounter);
  const Trace trace = dense_trace(prog, 500, 4);
  for (const ReplicatedOptions& opts :
       {scr_options(4), relaxed_options(4, 32)}) {
    const SimResult a = run_variant(prog, trace, opts);
    const SimResult b = run_variant(prog, trace, opts);
    EXPECT_EQ(a.offered, trace.size());
    EXPECT_EQ(a.egressed, a.offered);
    std::string why;
    EXPECT_TRUE(same_results(a, b, &why)) << why;
  }
}

TEST(VariantBehavior, FastForwardIsBitIdentical) {
  // The replicated simulator always jumps idle cycles. On a sparse trace,
  // where the jump actually engages, they must reproduce the digests
  // recorded under their unskipped cycle-by-cycle walk.
  const Mp5Program prog = compile_mp5(kCounter);
  const Trace trace = dense_trace(prog, 120, 4, /*load=*/0.01);
  const std::pair<ReplicatedOptions, std::uint64_t> cases[] = {
      {scr_options(4), 0xc977657cf24773ec},
      {relaxed_options(4, 16), 0x84f6cda954c20cbe},
  };
  for (const auto& [opts, golden] : cases) {
    const SimResult result = run_variant(prog, trace, opts);
    EXPECT_GT(result.cycles_run, 10 * trace.size()); // really sparse
    const std::uint64_t digest = result_digest(result);
    EXPECT_EQ(digest, golden) << "staleness " << opts.staleness_bound
                              << " digest 0x" << std::hex << digest;
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
      run_variant(prog, trace, relaxed_options(4, 1));
  const SimResult loose =
      run_variant(prog, trace, relaxed_options(4, 4096));
  EXPECT_LE(mismatches(tight), mismatches(loose));
}

TEST(VariantBehavior, SteersCountDigestBroadcasts) {
  // Every stateful stage execution on a k>1 replicated switch emits one
  // digest; with k=1 there is no replication traffic at all.
  const Mp5Program prog = compile_mp5(kCounter);
  const Trace trace = dense_trace(prog, 100, 4);
  EXPECT_GT(run_variant(prog, trace, scr_options(4)).steers, 0u);
  EXPECT_EQ(run_variant(prog, dense_trace(prog, 100, 1),
                        scr_options(1))
                .steers,
            0u);
}

} // namespace
} // namespace mp5::test
