#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "common/error.hpp"
#include "trace/workloads.hpp"

namespace mp5 {
namespace {

TEST(Trace, SortBreaksTiesByPort) {
  Trace trace;
  TraceItem a;
  a.arrival_time = 1.0;
  a.port = 5;
  TraceItem b;
  b.arrival_time = 1.0;
  b.port = 2;
  TraceItem c;
  c.arrival_time = 0.5;
  c.port = 9;
  trace = {a, b, c};
  sort_by_arrival(trace);
  EXPECT_EQ(trace[0].port, 9u);
  EXPECT_EQ(trace[1].port, 2u);
  EXPECT_EQ(trace[2].port, 5u);
}

TEST(Trace, LineRateClockScalesWithPipelinesAndSize) {
  LineRateClock clock(4, 1.0);
  EXPECT_DOUBLE_EQ(clock.next(64), 0.0);
  EXPECT_DOUBLE_EQ(clock.next(64), 0.25);  // 4 min-size packets per cycle
  LineRateClock clock2(4, 1.0);
  (void)clock2.next(128);
  EXPECT_DOUBLE_EQ(clock2.next(64), 0.5);  // 128 B takes twice as long
}

TEST(Trace, LineRateClockRejectsAnImpossibleRate) {
  EXPECT_THROW(LineRateClock(0, 1.0), ConfigError);
  for (const double load : {0.0, -1.0, std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    EXPECT_THROW(LineRateClock(4, load), ConfigError) << load;
  }
  EXPECT_NO_THROW(LineRateClock(1, 1e-6));
}

TEST(Synthetic, GeneratesRequestedShape) {
  SyntheticConfig config;
  config.stateful_stages = 3;
  config.reg_size = 64;
  config.packets = 1000;
  const auto trace = make_synthetic_trace(config);
  ASSERT_EQ(trace.size(), 1000u);
  for (const auto& item : trace) {
    ASSERT_EQ(item.fields.size(), 4u); // h0..h2 + v
    for (int s = 0; s < 3; ++s) {
      EXPECT_GE(item.fields[s], 0);
      EXPECT_LT(item.fields[s], 64);
    }
  }
  // Line rate: last arrival ~ packets / pipelines cycles.
  EXPECT_NEAR(trace.back().arrival_time, 1000.0 / 4, 2.0);
}

TEST(Synthetic, DeterministicPerSeed) {
  SyntheticConfig config;
  config.packets = 100;
  config.seed = 42;
  const auto a = make_synthetic_trace(config);
  const auto b = make_synthetic_trace(config);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].fields, b[i].fields);
  }
  config.seed = 43;
  const auto c = make_synthetic_trace(config);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].fields != c[i].fields) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Synthetic, SkewedPatternConcentratesAccesses) {
  SyntheticConfig config;
  config.stateful_stages = 1;
  config.reg_size = 100;
  config.packets = 20000;
  config.pattern = AccessPattern::kSkewed;
  const auto trace = make_synthetic_trace(config);
  std::map<Value, int> counts;
  for (const auto& item : trace) ++counts[item.fields[0]];
  std::vector<int> sorted;
  for (const auto& [k, v] : counts) sorted.push_back(v);
  std::sort(sorted.rbegin(), sorted.rend());
  long hot = 0;
  for (std::size_t i = 0; i < 30 && i < sorted.size(); ++i) hot += sorted[i];
  EXPECT_GT(static_cast<double>(hot) / trace.size(), 0.90);
}

TEST(WebSearch, FlowSizesAreHeavyTailed) {
  Rng rng(1);
  std::vector<double> sizes;
  for (int i = 0; i < 20000; ++i) {
    sizes.push_back(static_cast<double>(web_search_flow_bytes(rng)));
  }
  std::sort(sizes.begin(), sizes.end());
  const double median = sizes[sizes.size() / 2];
  const double p99 = sizes[static_cast<std::size_t>(sizes.size() * 0.99)];
  EXPECT_LT(median, 200.0 * 1024);      // most flows are small
  EXPECT_GT(p99, 5.0 * 1024 * 1024);    // the tail is multi-megabyte
}

TEST(FlowTrace, BimodalSizesAndFlowAffinity) {
  FlowWorkloadConfig config;
  config.packets = 5000;
  config.active_flows = 16;
  const auto trace = make_flow_trace(
      config, [](const FlowPacketInfo& info) {
        return std::vector<Value>{static_cast<Value>(info.flow)};
      });
  ASSERT_EQ(trace.size(), 5000u);
  int small = 0, large = 0, other = 0;
  std::map<std::uint64_t, std::uint32_t> flow_port;
  for (const auto& item : trace) {
    if (item.size_bytes == 200) ++small;
    else if (item.size_bytes == 1400) ++large;
    else ++other; // final runt packet of a flow
    auto [it, inserted] = flow_port.try_emplace(item.flow, item.port);
    EXPECT_EQ(it->second, item.port); // a flow keeps its ingress port
  }
  EXPECT_GT(small, 1000);
  EXPECT_GT(large, 1000);
  EXPECT_LT(other, 1500);
  EXPECT_GT(flow_port.size(), 16u); // flows complete and are replaced
}

TEST(FlowTrace, ArrivalTimesNondecreasing) {
  FlowWorkloadConfig config;
  config.packets = 2000;
  const auto trace = make_flow_trace(config, [](const FlowPacketInfo&) {
    return std::vector<Value>{0};
  });
  for (std::size_t i = 1; i < trace.size(); ++i) {
    EXPECT_GE(trace[i].arrival_time, trace[i - 1].arrival_time);
  }
}

TEST(FlowTrace, RequiresFiller) {
  FlowWorkloadConfig config;
  EXPECT_THROW(make_flow_trace(config, nullptr), ConfigError);
}

} // namespace
} // namespace mp5
