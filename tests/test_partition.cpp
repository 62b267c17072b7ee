// Logical MP5 partitioning (§3.1 footnote 1): several programs, each on
// its own subset of the physical pipelines, fully independent.
#include <gtest/gtest.h>

#include "apps/programs.hpp"
#include "baseline/presets.hpp"
#include "common/error.hpp"
#include "mp5/partition.hpp"
#include "test_util.hpp"

namespace mp5::test {
namespace {

Trace mixed_trace(std::size_t packets, std::uint32_t pipelines) {
  // Field layout is per-partition; packets destined for the counter
  // program need 1 field, WFQ needs 6 — use the max and let each program
  // read its prefix.
  Rng rng(3);
  Trace trace;
  LineRateClock clock(pipelines, 1.0);
  for (std::size_t i = 0; i < packets; ++i) {
    TraceItem item;
    item.arrival_time = clock.next(256);
    item.port = static_cast<std::uint32_t>(i % 64);
    item.size_bytes = 256;
    item.flow = i % 32;
    item.fields = {rng.next_in(0, 1023), rng.next_in(0, 1023),
                   rng.next_in(64, 1500), rng.next_in(0, 100), 0, 0};
    trace.push_back(std::move(item));
  }
  return trace;
}

TEST(Partition, TwoLogicalSwitchesRunIndependently) {
  const auto wfq = compile_mp5(apps::wfq_app().source);
  const auto counter = compile_mp5(apps::packet_counter_source());

  PartitionSpec a;
  a.name = "wfq";
  a.program = &wfq;
  a.pipelines = 3;
  a.options = mp5_options(3, 1);
  PartitionSpec b;
  b.name = "counter";
  b.program = &counter;
  b.pipelines = 1;
  b.options = mp5_options(1, 2);

  PartitionedSwitch sw({a, b}, /*total_pipelines=*/4);
  const auto trace = mixed_trace(8000, 4);
  const auto results =
      sw.run(trace, [](const TraceItem& item) -> std::size_t {
        return item.port < 48 ? 0 : 1; // 3/4 of ports -> wfq
      });

  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].name, "wfq");
  EXPECT_EQ(results[1].name, "counter");
  EXPECT_EQ(results[0].result.offered + results[1].result.offered,
            trace.size());
  // The counter partition processed every packet routed to it: its final
  // register equals its offered count.
  EXPECT_EQ(results[1].result.final_registers[0][0],
            static_cast<Value>(results[1].result.offered));
  const double agg = PartitionedSwitch::aggregate_throughput(results);
  EXPECT_GT(agg, 0.5);
  EXPECT_LE(agg, 1.0);
}

TEST(Partition, EachPartitionKeepsFunctionalEquivalence) {
  const auto prog_a = compile_mp5(apps::make_synthetic_source(2, 64));
  const auto prog_b = compile_mp5(apps::make_synthetic_source(1, 32));

  PartitionSpec a;
  a.name = "a";
  a.program = &prog_a;
  a.pipelines = 2;
  a.options = mp5_options(2, 1);
  PartitionSpec b = a;
  b.name = "b";
  b.program = &prog_b;
  b.options.seed = 2;

  // Each partition's egress streams into a verifier over its own
  // sub-trace, against its own program.
  Rng rng(7);
  const auto trace = trace_from_fields(random_fields(3000, 3, 32, rng), 4);
  Trace subs[2];
  for (const auto& item : trace) subs[item.port % 2].push_back(item);
  soak::RollingVerifier verify_a(
      prog_a.pvsm, std::make_unique<VectorTraceSource>(subs[0]));
  soak::RollingVerifier verify_b(
      prog_b.pvsm, std::make_unique<VectorTraceSource>(subs[1]));
  verify_a.attach(a.options);
  verify_b.attach(b.options);

  PartitionedSwitch sw({a, b}, 4);
  const auto results = sw.run(trace, [](const TraceItem& item) {
    return static_cast<std::size_t>(item.port % 2);
  });
  soak::RollingVerifier* verifiers[] = {&verify_a, &verify_b};
  for (std::size_t part = 0; part < 2; ++part) {
    const auto report = verifiers[part]->finish(results[part].result);
    EXPECT_TRUE(report.equivalent())
        << "partition " << part << ": " << report.first_difference;
  }
}

TEST(Partition, ValidatesConfiguration) {
  const auto prog = compile_mp5(apps::packet_counter_source());
  PartitionSpec spec;
  spec.name = "p";
  spec.program = &prog;
  spec.pipelines = 2;
  EXPECT_THROW(PartitionedSwitch({spec}, 4), ConfigError); // 2 != 4
  EXPECT_THROW(PartitionedSwitch({}, 4), ConfigError);
  PartitionSpec missing;
  missing.name = "q";
  missing.pipelines = 4;
  EXPECT_THROW(PartitionedSwitch({missing}, 4), ConfigError);

  PartitionedSwitch ok({spec, spec}, 4);
  EXPECT_THROW(ok.run({}, nullptr), ConfigError);
  Trace one;
  one.push_back(TraceItem{});
  EXPECT_THROW(
      ok.run(one, [](const TraceItem&) -> std::size_t { return 9; }),
      ConfigError);
}

} // namespace
} // namespace mp5::test
