// Coverage for the smaller public surfaces: IR printing, machine usage
// reports, the equivalence checker's negative paths, and timeline naming.
#include <algorithm>

#include <gtest/gtest.h>

#include "apps/programs.hpp"
#include "baseline/presets.hpp"
#include "banzai/machine.hpp"
#include "banzai/single_pipeline.hpp"
#include "common/error.hpp"
#include "domino/compiler.hpp"
#include "metrics/equivalence.hpp"
#include "mp5/timeline.hpp"
#include "test_util.hpp"

namespace mp5::test {
namespace {

TEST(IrPrinting, CoversEveryInstructionForm) {
  const auto pvsm = domino::compile(R"(
    struct Packet { int a; int b; };
    int r[4] = {0};
    void f(struct Packet p) {
      p.b = hash2(p.a, 3) % 4;
      p.a = -p.a;
      p.b = p.a > 0 ? p.b : 0;
      if (p.a != 0) { r[p.b % 4] = r[p.b % 4] + 1; }
    }
  )").pvsm;
  const auto dump = ir::to_string(pvsm);
  EXPECT_NE(dump.find("hash("), std::string::npos);
  EXPECT_NE(dump.find("?"), std::string::npos);
  EXPECT_NE(dump.find("r["), std::string::npos);
  EXPECT_NE(dump.find("[if "), std::string::npos);
  EXPECT_NE(dump.find("guard"), std::string::npos);
}

TEST(MachineUsage, ReportsProgramFootprint) {
  const auto pvsm = domino::compile(apps::flowlet_app().source).pvsm;
  const auto u = banzai::usage(pvsm);
  EXPECT_GE(u.stages, 3u);
  EXPECT_GE(u.max_stateful_in_stage, 1u);
  EXPECT_GE(u.max_atom_ops, 2u);
  EXPECT_GE(banzai::template_rank(u.max_template),
            banzai::template_rank(banzai::AtomTemplate::kReadWrite));
  // Usage must be consistent with the fit check.
  banzai::MachineSpec exact;
  exact.max_stages = u.stages;
  exact.max_atoms_per_stage = u.max_atoms_in_stage;
  exact.max_stateful_atoms_per_stage = u.max_stateful_in_stage;
  exact.max_atom_ops = u.max_atom_ops;
  exact.max_register_entries_per_stage = u.max_entries_in_stage;
  exact.max_atom_template = u.max_template;
  EXPECT_TRUE(exact.fits(pvsm));
  exact.max_stages = u.stages - 1;
  EXPECT_FALSE(exact.fits(pvsm));
}

TEST(EquivalenceChecker, DetectsRegisterMismatch) {
  const auto prog = compile_mp5(apps::packet_counter_source());
  Rng rng(3);
  const auto trace = trace_from_fields(random_fields(50, 1, 4, rng), 2);
  const auto reference = run_reference(prog, trace);
  SimOptions opts = mp5_options(2, 3);
  opts.record_egress = true;
  Mp5Simulator sim(prog, opts);
  auto result = sim.run(trace);
  result.final_registers[0][0] += 1; // corrupt
  const auto report = check_equivalence(prog.pvsm, reference, result);
  EXPECT_FALSE(report.registers_equal);
  EXPECT_TRUE(report.packets_equal);
  EXPECT_NE(report.first_difference.find("count"), std::string::npos);
}

TEST(EquivalenceChecker, DetectsPacketMismatchAndMissingPackets) {
  const auto prog = compile_mp5(apps::sequencer_example_source());
  Rng rng(5);
  const auto trace = trace_from_fields(random_fields(50, 1, 4, rng), 2);
  const auto reference = run_reference(prog, trace);
  SimOptions opts = mp5_options(2, 5);
  opts.record_egress = true;
  Mp5Simulator sim(prog, opts);
  auto result = sim.run(trace);
  result.egress[7].headers[static_cast<std::size_t>(
      prog.pvsm.slot_of("stamp"))] ^= 1;
  auto corrupted = check_equivalence(prog.pvsm, reference, result);
  EXPECT_FALSE(corrupted.packets_equal);
  EXPECT_EQ(corrupted.packet_mismatches, 1u);

  result.egress.erase(result.egress.begin() + 3);
  auto missing = check_equivalence(prog.pvsm, reference, result);
  EXPECT_FALSE(missing.packets_equal);
  EXPECT_NE(missing.first_difference.find("egress count"), std::string::npos);
}

TEST(PvsmLayout, DeclaredPrefixIsChecked) {
  const auto prog = compile_mp5(apps::sequencer_example_source());
  const std::size_t declared = prog.pvsm.declared_slot.size();
  ASSERT_GT(prog.pvsm.num_slots(), declared);
  EXPECT_EQ(prog.pvsm.declared_prefix(), declared);
  // Moving a declared field past a temporary breaks the layout that the
  // header loader, the oracle replay and native egress index by.
  ir::Pvsm broken = prog.pvsm;
  const std::string field = broken.fields[0].name;
  std::swap(broken.fields[0], broken.fields[declared]);
  broken.declared_slot[field] = static_cast<ir::Slot>(declared);
  EXPECT_THROW(broken.declared_prefix(), Error);
}

TEST(EquivalenceChecker, SeqIndexedRecordHoleIsNeverEgressed) {
  const auto prog = compile_mp5(apps::sequencer_example_source());
  Rng rng(11);
  const auto trace = trace_from_fields(random_fields(30, 1, 4, rng), 2);
  auto reference = run_reference(prog, trace);
  // A seq-indexed record (the native backend's) keeps a lost packet as an
  // empty slot. Even when the reference fields of that packet are all 0,
  // the hole must not read as a matching packet.
  std::fill(reference.egress_headers[5].begin(),
            reference.egress_headers[5].end(), 0);
  auto egress = reference.egress_headers;
  egress[5].clear();
  const auto report = check_equivalence(prog.pvsm, reference,
                                        reference.final_registers, egress);
  EXPECT_FALSE(report.packets_equal);
  EXPECT_EQ(report.packet_mismatches, 1u);
  EXPECT_NE(report.first_difference.find("packet 5 never egressed"),
            std::string::npos)
      << report.first_difference;

  egress[5] = reference.egress_headers[5];
  EXPECT_TRUE(check_equivalence(prog.pvsm, reference,
                                reference.final_registers, egress)
                  .equivalent());
}

TEST(EquivalenceChecker, DetectsDuplicateEgress) {
  const auto prog = compile_mp5(apps::sequencer_example_source());
  Rng rng(7);
  const auto trace = trace_from_fields(random_fields(30, 1, 4, rng), 2);
  const auto reference = run_reference(prog, trace);
  SimOptions opts = mp5_options(2, 7);
  opts.record_egress = true;
  Mp5Simulator sim(prog, opts);
  auto result = sim.run(trace);
  // A packet leaving the switch twice used to be silently collapsed by
  // the seq-keyed map; it must break packet-state equivalence.
  result.egress.push_back(result.egress[4]);
  const auto report = check_equivalence(prog.pvsm, reference, result);
  EXPECT_FALSE(report.packets_equal);
  EXPECT_GE(report.packet_mismatches, 1u);
  EXPECT_NE(report.first_difference.find("egress count"), std::string::npos);
}

TEST(EquivalenceChecker, DetectsOutOfRangeSeq) {
  const auto prog = compile_mp5(apps::sequencer_example_source());
  Rng rng(9);
  const auto trace = trace_from_fields(random_fields(30, 1, 4, rng), 2);
  const auto reference = run_reference(prog, trace);
  SimOptions opts = mp5_options(2, 9);
  opts.record_egress = true;
  Mp5Simulator sim(prog, opts);
  auto result = sim.run(trace);
  // A seq beyond the reference stream used to index out of bounds; now it
  // is reported as a divergence.
  result.egress[2].seq = 1000000;
  const auto report = check_equivalence(prog.pvsm, reference, result);
  EXPECT_FALSE(report.packets_equal);
  EXPECT_GE(report.packet_mismatches, 1u);
  EXPECT_NE(report.first_difference.find("out-of-range seq"),
            std::string::npos);
}

TEST(Timeline, KindNamesAreStable) {
  EXPECT_STREQ(to_string(TimelineEvent::Kind::kAdmit), "admit");
  EXPECT_STREQ(to_string(TimelineEvent::Kind::kPhantomPush), "phantom");
  EXPECT_STREQ(to_string(TimelineEvent::Kind::kPopWasted), "wasted");
  EXPECT_STREQ(to_string(TimelineEvent::Kind::kEgress), "egress");
}

TEST(AtomTemplateNames, AreStable) {
  using banzai::AtomTemplate;
  EXPECT_STREQ(banzai::to_string(AtomTemplate::kRaw), "RAW");
  EXPECT_STREQ(banzai::to_string(AtomTemplate::kPairs), "Pairs");
}

TEST(Compile, ReserveStagesLeavesRoomForAr) {
  banzai::MachineSpec machine;
  machine.max_stages = 4;
  // Program needing exactly 4 stages fits without reservation...
  const std::string src = R"(
    struct Packet { int a; int b; };
    int x[4] = {0};
    int y[4] = {0};
    void f(struct Packet p) {
      p.b = x[p.a % 4];
      y[p.b % 4] = y[p.b % 4] + 1;
    }
  )";
  EXPECT_NO_THROW(domino::compile(src, machine, 0));
  // ...but not once a stage is reserved for address resolution (the
  // dependent chain cannot shrink below 4 stages even unserialized).
  EXPECT_THROW(domino::compile(src, machine, 1), ResourceError);
  machine.max_stages = 5;
  EXPECT_NO_THROW(domino::compile(src, machine, 1));
  EXPECT_THROW(domino::compile(src, machine, 5), ResourceError);
}

TEST(SimOptions, ZeroPipelinesRejected) {
  const auto prog = compile_mp5(apps::packet_counter_source());
  SimOptions opts;
  opts.pipelines = 0;
  EXPECT_THROW(Mp5Simulator(prog, opts), ConfigError);
}

} // namespace
} // namespace mp5::test
