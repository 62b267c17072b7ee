#include <gtest/gtest.h>

#include "apps/programs.hpp"
#include "baseline/presets.hpp"
#include "metrics/reordering.hpp"
#include "test_util.hpp"

namespace mp5::test {
namespace {

EgressRecord rec(SeqNo seq, Cycle cycle, std::uint64_t flow = 0) {
  EgressRecord r;
  r.seq = seq;
  r.egress_cycle = cycle;
  r.flow = flow;
  return r;
}

TEST(Reordering, PerfectOrderScoresTauOne) {
  std::vector<EgressRecord> egress;
  for (SeqNo s = 0; s < 100; ++s) egress.push_back(rec(s, 10 + s));
  const auto report = analyze_reordering(std::move(egress));
  EXPECT_EQ(report.inversions, 0u);
  EXPECT_DOUBLE_EQ(report.kendall_tau, 1.0);
  EXPECT_EQ(report.max_displacement, 0u);
  EXPECT_EQ(report.intra_flow_reordered, 0u);
}

TEST(Reordering, FullReversalScoresTauMinusOne) {
  std::vector<EgressRecord> egress;
  for (SeqNo s = 0; s < 50; ++s) egress.push_back(rec(s, 1000 - s, 1));
  const auto report = analyze_reordering(std::move(egress));
  EXPECT_DOUBLE_EQ(report.kendall_tau, -1.0);
  EXPECT_EQ(report.inversions, 50u * 49 / 2);
  EXPECT_EQ(report.intra_flow_reordered, 49u);
  EXPECT_EQ(report.max_displacement, 49u);
}

TEST(Reordering, CountsSingleSwap) {
  std::vector<EgressRecord> egress = {rec(0, 1), rec(2, 2, 7), rec(1, 3, 7),
                                      rec(3, 4)};
  const auto report = analyze_reordering(std::move(egress));
  EXPECT_EQ(report.inversions, 1u);
  EXPECT_EQ(report.intra_flow_reordered, 1u); // seq 1 after seq 2, same flow
  EXPECT_EQ(report.max_displacement, 1u);
}

TEST(Reordering, SameCycleDeparturesCountInOrder) {
  std::vector<EgressRecord> egress = {rec(1, 5), rec(0, 5), rec(2, 6)};
  const auto report = analyze_reordering(std::move(egress));
  EXPECT_EQ(report.inversions, 0u); // ties resolved by seq
}

TEST(Reordering, Mp5KeepsPerStateOrderButCanReorderAcrossFlows) {
  // Mixed stateful/stateless traffic: stateless-priority can reorder
  // globally, while per-flow order within single-state flows holds.
  const std::string src = R"(
    struct Packet { int kind; int fid; int v; };
    int acc[16] = {0};
    void f(struct Packet p) {
      if (p.kind == 1) { acc[p.fid % 16] = acc[p.fid % 16] + 1; }
    }
  )";
  const auto prog = compile_mp5(src);
  Rng rng(21);
  auto fields = random_fields(4000, 3, 16, rng);
  for (auto& f : fields) f[0] = rng.chance(0.5) ? 1 : 0;
  auto trace = trace_from_fields(fields, 4);
  const auto report = analyze_reordering(
      run_streamed(prog, trace, mp5_options(4, 21)).streams.egress);
  EXPECT_GT(report.inversions, 0u);  // global reordering happens...
  EXPECT_GT(report.kendall_tau, 0.8); // ...but order stays mostly intact
}

TEST(Reordering, FlowOrderStageRestoresIntraFlowOrder) {
  const std::string src = R"(
    struct Packet { int kind; int fid; int v; };
    int acc[16] = {0};
    void f(struct Packet p) {
      if (p.kind == 1) { acc[p.fid % 16] = acc[p.fid % 16] + 1; }
    }
  )";
  TransformOptions topts;
  topts.add_flow_order_stage = true;
  topts.flow_fields = {"fid"};
  const auto prog = compile_mp5(src, topts);
  Rng rng(23);
  auto fields = random_fields(4000, 3, 16, rng);
  for (std::size_t i = 0; i < fields.size(); ++i) {
    fields[i][0] = rng.chance(0.5) ? 1 : 0;
    fields[i][1] = static_cast<Value>(i % 8);
  }
  auto trace = trace_from_fields(fields, 4);
  for (auto& item : trace) {
    item.flow = static_cast<std::uint64_t>(item.fields[1]);
  }
  const auto report = analyze_reordering(
      run_streamed(prog, trace, mp5_options(4, 23)).streams.egress);
  EXPECT_EQ(report.intra_flow_reordered, 0u);
}

} // namespace
} // namespace mp5::test
