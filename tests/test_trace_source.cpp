// Streaming trace sources (ISSUE 6): every implementation must yield the
// exact item sequence of the materialized trace, reposition correctly via
// skip_to, and reject malformed inputs with errors instead of UB.
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "apps/programs.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "metrics/sim_result.hpp"
#include "mp5/simulator.hpp"
#include "trace/trace_io.hpp"
#include "trace/trace_source.hpp"
#include "test_util.hpp"

namespace mp5 {
namespace {

Trace small_trace(std::size_t packets, std::size_t fields = 2) {
  Rng rng(7);
  return test::trace_from_fields(
      test::random_fields(packets, fields, 512, rng), /*pipelines=*/4);
}

void expect_same_stream(TraceSource& source, const Trace& want) {
  std::size_t i = 0;
  for (const TraceItem* item; (item = source.peek()) != nullptr;
       source.advance(), ++i) {
    ASSERT_LT(i, want.size());
    EXPECT_EQ(item->arrival_time, want[i].arrival_time) << "item " << i;
    EXPECT_EQ(item->port, want[i].port) << "item " << i;
    EXPECT_EQ(item->flow, want[i].flow) << "item " << i;
    EXPECT_EQ(item->fields, want[i].fields) << "item " << i;
  }
  EXPECT_EQ(i, want.size());
  EXPECT_EQ(source.consumed(), want.size());
}

TEST(VectorSource, StreamsAndSkips) {
  const Trace trace = small_trace(50);
  VectorTraceSource source(trace);
  expect_same_stream(source, trace);

  VectorTraceSource again(trace);
  again.skip_to(20);
  EXPECT_EQ(again.consumed(), 20u);
  EXPECT_EQ(again.peek()->fields, trace[20].fields);
  EXPECT_THROW(again.skip_to(trace.size() + 1), Error);
  EXPECT_EQ(*again.size(), trace.size());
}

TEST(CsvSource, RoundTripsThroughFile) {
  const Trace trace = small_trace(80);
  const std::string path = test::temp_path("rt.trace.csv");
  save_trace_file(trace, path);
  CsvFileTraceSource source(path);
  expect_same_stream(source, trace);

  CsvFileTraceSource again(path);
  again.skip_to(33);
  EXPECT_EQ(again.consumed(), 33u);
  EXPECT_EQ(again.peek()->fields, trace[33].fields);
  EXPECT_THROW(again.skip_to(trace.size() + 5), Error);
}

TEST(CsvSource, RejectsUnsortedArrivals) {
  const std::string path = test::temp_path("unsorted.trace.csv");
  {
    std::ofstream out(path);
    out << "10.0,1,64,0,5\n"
        << "9.0,1,64,0,6\n"; // goes backwards in time
  }
  CsvFileTraceSource source(path);
  ASSERT_NE(source.peek(), nullptr); // first line parses fine
  EXPECT_THROW(source.advance(), Error);
}

TEST(CsvSource, RejectsMalformedCells) {
  // parse_trace_csv_line consumes each cell whole.
  for (const char* line : {"0.0abc,0,64,1,5", "0,0,64zz,1,5", "0,-1,64,1,5"}) {
    const std::string path = test::temp_path("malformed.trace.csv");
    {
      std::ofstream out(path);
      out << "0,0,64,1,5\r\n" << line << "\n";
    }
    CsvFileTraceSource source(path);
    ASSERT_NE(source.peek(), nullptr) << line; // the CRLF line parses fine
    EXPECT_THROW(source.advance(), Error) << line;
  }
}

TEST(SyntheticSource, DeterministicAndSkippable) {
  SyntheticSpec spec;
  spec.packets = 500;
  spec.field_count = 3;
  spec.seed = 42;
  SyntheticTraceSource a(spec);
  SyntheticTraceSource b(spec);
  for (std::uint64_t i = 0; i < spec.packets; ++i) {
    ASSERT_NE(a.peek(), nullptr);
    EXPECT_EQ(a.peek()->fields, b.peek()->fields);
    a.advance();
    b.advance();
  }
  EXPECT_EQ(a.peek(), nullptr);

  // skip_to is a pure reposition: item i is identical whether reached by
  // walking or jumping.
  SyntheticTraceSource walk(spec);
  for (int i = 0; i < 123; ++i) walk.advance();
  SyntheticTraceSource jump(spec);
  jump.skip_to(123);
  EXPECT_EQ(walk.peek()->arrival_time, jump.peek()->arrival_time);
  EXPECT_EQ(walk.peek()->fields, jump.peek()->fields);
  EXPECT_THROW(jump.skip_to(spec.packets + 1), Error);
}

TEST(CsvSource, RejectsMissingFile) {
  EXPECT_THROW(CsvFileTraceSource{test::temp_path("missing.trace.csv")},
               Error);
}

TEST(Materialize, DrainsTheSourceInOrder) {
  const Trace trace = small_trace(40);
  VectorTraceSource source(trace);
  const Trace copy = materialize(source);
  VectorTraceSource again(copy);
  expect_same_stream(again, trace);
  EXPECT_EQ(source.peek(), nullptr);
}

// The streaming run must be indistinguishable from the materialized run:
// same SimResult field-by-field, whatever the source implementation.
TEST(StreamingRun, MatchesMaterializedRun) {
  const Mp5Program prog =
      test::compile_mp5(apps::make_synthetic_source(3, 64));
  Rng rng(11);
  const Trace trace = test::trace_from_fields(
      test::random_fields(400, prog.pvsm.num_slots(), 64, rng), 4);
  const std::string csv = test::temp_path("simrun.trace.csv");
  save_trace_file(trace, csv);

  SimOptions opts;
  opts.record_egress = true;
  const SimResult batch = Mp5Simulator(prog, opts).run(trace);

  CsvFileTraceSource source(csv);
  const SimResult streamed = Mp5Simulator(prog, opts).run(source);
  std::string why;
  EXPECT_TRUE(same_results(batch, streamed, &why)) << why;
}

} // namespace
} // namespace mp5
