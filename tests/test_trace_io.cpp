#include <gtest/gtest.h>

#include <fstream>
#include <string>

#include "common/error.hpp"
#include "trace/trace_io.hpp"
#include "trace/workloads.hpp"
#include "test_util.hpp"

namespace mp5 {
namespace {

std::string write_trace_text(const std::string& text) {
  const std::string path = test::temp_path("trace_io.trace.csv");
  std::ofstream(path) << text;
  return path;
}

TEST(TraceIo, RoundTripsAllFields) {
  SyntheticConfig config;
  config.stateful_stages = 3;
  config.packets = 500;
  config.pattern = AccessPattern::kSkewed;
  Trace original = make_synthetic_trace(config);
  // Arrival times past 10^6 that are not multiples of 1/4 need more than
  // the stream default's 6 significant digits to survive the round trip.
  for (std::size_t i = 0; i < original.size(); ++i) {
    original[i].arrival_time = 1342096.0 + 0.1 * static_cast<double>(i);
  }

  const std::string path = test::temp_path("roundtrip.trace.csv");
  save_trace_file(original, path);
  const Trace loaded = load_trace_file(path);

  ASSERT_EQ(loaded.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(loaded[i].arrival_time, original[i].arrival_time);
    EXPECT_EQ(loaded[i].port, original[i].port);
    EXPECT_EQ(loaded[i].size_bytes, original[i].size_bytes);
    EXPECT_EQ(loaded[i].flow, original[i].flow);
    EXPECT_EQ(loaded[i].fields, original[i].fields);
  }
}

TEST(TraceIo, SkipsCommentsAndBlankLines) {
  const Trace trace = load_trace_file(
      write_trace_text("# a comment\r\n"
                       "1.0,2,64,9,5\r\n" // CRLF line endings are accepted
                       "\r\n"
                       "1.0,9,128,8\n" // no fields: allowed
                       "2.5,3,64,7,10,-20\n"));
  ASSERT_EQ(trace.size(), 3u);
  EXPECT_EQ(trace[0].port, 2u);
  EXPECT_EQ(trace[1].port, 9u);
  EXPECT_EQ(trace[2].port, 3u);
  EXPECT_EQ(trace[2].fields, (std::vector<Value>{10, -20}));
  EXPECT_TRUE(trace[1].fields.empty());
}

TEST(TraceIo, RejectsOutOfOrderLines) {
  // Same time, smaller port: out of admission order, named by line.
  const std::string path = write_trace_text("# header\n"
                                            "1.0,9,128,8\n"
                                            "1.0,2,64,9,5\n");
  try {
    load_trace_file(path);
    FAIL() << "out-of-order trace loaded";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3: out of admission order"),
              std::string::npos)
        << e.what();
  }
}

TEST(TraceIo, RejectsMalformedLines) {
  for (const char* line :
       {"1.0,2", "1.0,abc,64,0",
        "0.0abc,0,64,1,5", // trailing bytes after the arrival time
        "0,0,64zz,1,5",    // trailing bytes after the size
        "0,-1,64,1,5",     // port is unsigned
        "0,0,+64,1,5", "0,0,4294967296,1,5", "nan,0,64,1,5", " 0,0,64,1"}) {
    EXPECT_THROW(load_trace_file(write_trace_text(std::string(line) + "\n")),
                 Error)
        << line;
  }
}

TEST(TraceIo, FileHelpersReportMissingPaths) {
  EXPECT_THROW(load_trace_file("/nonexistent/trace.csv"), Error);
}

} // namespace
} // namespace mp5
