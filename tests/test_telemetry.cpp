// Telemetry subsystem tests: registry semantics, event-ring bounds,
// exporter validity, run-to-run determinism, and the read-only export
// contract (telemetry attached vs absent must not change the simulation,
// and the exported counters equal the run's own counts, across restores).
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <sstream>
#include <string>
#include <vector>

#include "apps/programs.hpp"
#include "baseline/presets.hpp"
#include "common/error.hpp"
#include "domino/compiler.hpp"
#include "mp5/simulator.hpp"
#include "mp5/transform.hpp"
#include "telemetry/bench_report.hpp"
#include "telemetry/chrome_trace.hpp"
#include "telemetry/json_writer.hpp"
#include "telemetry/results.hpp"
#include "telemetry/telemetry.hpp"
#include "test_util.hpp"
#include "trace/workloads.hpp"

namespace mp5 {
namespace {

using telemetry::BenchReport;
using telemetry::Config;
using telemetry::EventRing;
using telemetry::JsonWriter;
using telemetry::RunMeta;
using telemetry::Telemetry;

// ---------------------------------------------------------------------
// Minimal recursive-descent JSON syntax checker, so the exporter tests
// validate real JSON instead of grepping for substrings. Accepts exactly
// the RFC 8259 grammar (no trailing commas, no comments).
class MiniJsonParser {
public:
  explicit MiniJsonParser(std::string text) : s_(std::move(text)) {}

  bool parse() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_; // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool array() {
    ++pos_; // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
      }
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_; // closing quote
    return true;
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool literal(const std::string& word) {
    if (s_.compare(pos_, word.size(), word) != 0) return false;
    pos_ += word.size();
    return true;
  }
  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  std::string s_;
  std::size_t pos_ = 0;
};

Mp5Program synthetic_program() {
  return transform(domino::compile(apps::make_synthetic_source(4, 64),
                                   banzai::MachineSpec{}, 1)
                       .pvsm);
}

Trace synthetic_trace(std::uint64_t seed, std::uint64_t packets = 2000) {
  SyntheticConfig config;
  config.stateful_stages = 4;
  config.reg_size = 64;
  config.pattern = AccessPattern::kSkewed;
  config.pipelines = 4;
  config.packets = packets;
  config.seed = seed;
  config.active_flows = 16;
  return make_synthetic_trace(config);
}

// ---------------------------------------------------------------------
// Registry semantics

TEST(Telemetry, RegistryFindOrCreate) {
  Telemetry telem;
  auto& a = telem.counter("x");
  a.inc(3);
  EXPECT_EQ(&telem.counter("x"), &a);
  EXPECT_EQ(telem.counter("x").value(), 3u);
  EXPECT_NE(&telem.counter("y"), &a);

  auto& g = telem.gauge("depth");
  g.set(4.0);
  g.set_max(2.0); // lower: ignored
  EXPECT_DOUBLE_EQ(telem.gauge("depth").value(), 4.0);
  g.set_max(9.0);
  EXPECT_DOUBLE_EQ(telem.gauge("depth").value(), 9.0);
}

TEST(Telemetry, HistogramShapeMismatchThrows) {
  Telemetry telem;
  auto& h = telem.histogram("lat", 1.0, 32);
  h.add(3.0);
  EXPECT_EQ(&telem.histogram("lat", 1.0, 32), &h); // same shape: same object
  EXPECT_THROW(telem.histogram("lat", 2.0, 32), ConfigError);
  EXPECT_THROW(telem.histogram("lat", 1.0, 64), ConfigError);
}

TEST(Telemetry, EventsDisabledByZeroCapacity) {
  Telemetry telem(Config{.event_capacity = 0});
  EXPECT_FALSE(telem.events_enabled());
  TimelineEvent event;
  telem.record(event); // silently ignored
  EXPECT_THROW(telem.events(), Error);
}

// ---------------------------------------------------------------------
// Event ring

TEST(EventRingTest, WrapsKeepingNewest) {
  EventRing ring(4);
  EXPECT_THROW(EventRing(0), ConfigError);
  for (std::uint64_t i = 0; i < 10; ++i) {
    TimelineEvent event;
    event.cycle = i;
    ring.push(event);
  }
  EXPECT_EQ(ring.capacity(), 4u);
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.recorded(), 10u);
  EXPECT_EQ(ring.dropped(), 6u);
  // Oldest-first: cycles 6, 7, 8, 9 survive.
  for (std::size_t i = 0; i < ring.size(); ++i) {
    EXPECT_EQ(ring.at(i).cycle, 6 + i);
  }
  const auto snap = ring.snapshot();
  ASSERT_EQ(snap.size(), 4u);
  EXPECT_EQ(snap.front().cycle, 6u);
  EXPECT_EQ(snap.back().cycle, 9u);
}

TEST(EventRingTest, PartialFillIsOrdered) {
  EventRing ring(8);
  for (std::uint64_t i = 0; i < 3; ++i) {
    TimelineEvent event;
    event.cycle = 100 + i;
    ring.push(event);
  }
  EXPECT_EQ(ring.size(), 3u);
  EXPECT_EQ(ring.dropped(), 0u);
  EXPECT_EQ(ring.at(0).cycle, 100u);
  EXPECT_EQ(ring.at(2).cycle, 102u);
}

// ---------------------------------------------------------------------
// JSON writer

TEST(JsonWriterTest, EscapesAndStructures) {
  std::ostringstream out;
  JsonWriter w(out);
  w.begin_object();
  w.kv("plain", std::uint64_t{7});
  w.kv("quote\"back\\slash", std::string_view{"line\nfeed\ttab"});
  w.key("nested");
  w.begin_array();
  w.value(1.5);
  w.value(true);
  w.null();
  w.end_array();
  w.end_object();
  EXPECT_TRUE(w.complete());
  MiniJsonParser parser(out.str());
  EXPECT_TRUE(parser.parse()) << out.str();
  EXPECT_NE(out.str().find("\\\""), std::string::npos);
  EXPECT_NE(out.str().find("\\n"), std::string::npos);
}

// ---------------------------------------------------------------------
// Simulator integration

TEST(TelemetrySim, CountersMatchSimResult) {
  // Every counter with a SimResult twin must equal it in every
  // configuration: fault-free, under a lane fail/recover plan with phantom
  // channel faults (the fault twins are non-zero), and without phantoms,
  // where fifo.push_dropped counts data drops instead of phantom drops.
  struct Case {
    const char* name;
    SimOptions opts;
  };
  std::vector<Case> cases;
  cases.push_back({"mp5", mp5_options(4, 1)});
  {
    SimOptions opts = mp5_options(4, 1);
    opts.faults.pipeline_faults.push_back(PipelineFault{1, 300, 900});
    opts.faults.stalls.push_back(StageStall{2, 1, 100, 400});
    opts.realistic_phantom_channel = true;
    opts.faults.phantom_loss_rate = 0.02;
    opts.faults.phantom_delay_rate = 0.02;
    opts.faults.phantom_extra_delay = 3;
    cases.push_back({"lane-fail-recover", opts});
  }
  {
    SimOptions opts = no_d4_options(4, 1);
    opts.fifo_capacity = 2;
    cases.push_back({"no-d4", opts});
  }
  const auto prog = synthetic_program();
  const auto trace = synthetic_trace(1);
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    Telemetry telem;
    SimOptions opts = c.opts;
    opts.telemetry = &telem;
    Mp5Simulator sim(prog, opts);
    const auto result = sim.run(trace);

    // Every twin (a kResultCounters row with a telemetry name) equals its
    // result field.
    const auto counters = telem.counter_snapshot();
    for (const ResultCounter& c : kResultCounters) {
      if (c.telemetry != nullptr) {
        EXPECT_EQ(counters.at(c.telemetry), result.*c.member) << c.telemetry;
      }
    }
    EXPECT_GT(counters.at("fifo.push"), 0u);
    EXPECT_GT(counters.at("shard.state_accesses"), 0u);
    EXPECT_TRUE(telem.events_enabled());
    EXPECT_GT(telem.events().recorded(), 0u);
    // End-of-run gauges.
    EXPECT_DOUBLE_EQ(telem.gauge("sim.cycles_run").value(),
                     static_cast<double>(result.cycles_run));
    // Egress-latency histogram saw every egressed packet.
    EXPECT_EQ(telem.histograms().at("sim.egress_latency").total(),
              result.egressed);

    // Not a twin: a failed push drops a phantom under D4 but the data
    // packet itself without phantoms.
    EXPECT_EQ(counters.at("fifo.push_dropped"),
              opts.phantoms ? result.dropped_phantom : result.dropped_data);
    if (!opts.phantoms) {
      EXPECT_GT(counters.at("fifo.push_dropped"), 0u);
      EXPECT_EQ(result.dropped_phantom, 0u);
    }
    if (!opts.faults.pipeline_faults.empty()) {
      EXPECT_GT(result.pipeline_failures, 0u);
      EXPECT_GT(result.pipeline_recoveries, 0u);
      EXPECT_GT(result.fault_remapped_indices, 0u);
      EXPECT_GT(result.stalled_cycles, 0u);
      EXPECT_GT(result.phantom_lost, 0u);
      EXPECT_GT(result.phantom_delayed, 0u);
    }
  }
}

TEST(TelemetrySim, ResumedRunCountersCoverTheWholeRun) {
  // A run resumed from a checkpoint reports counters, gauges and
  // histograms for the whole run, even when the checkpointing run had no
  // telemetry attached: the checkpoint carries every count and histogram,
  // not the registry.
  const auto prog = synthetic_program();
  for (const double load : {1.0, 0.05}) {
    SCOPED_TRACE(load);
    SyntheticConfig config;
    config.stateful_stages = 4;
    config.reg_size = 64;
    config.pattern = AccessPattern::kSkewed;
    config.packets = 2000;
    config.load = load;
    config.seed = 9;
    const Trace trace = make_synthetic_trace(config);
    SimOptions opts = mp5_options(4, 9);
    opts.faults.pipeline_faults.push_back(PipelineFault{2, 200, 700});

    Telemetry whole;
    SimOptions wopts = opts;
    wopts.telemetry = &whole;
    const SimResult uninterrupted = Mp5Simulator(prog, wopts).run(trace);

    std::vector<std::string> blobs;
    SimOptions copts = opts;
    copts.checkpoint_interval =
        std::max<std::uint64_t>(1, uninterrupted.cycles_run / 4);
    copts.checkpoint_sink = [&blobs](Cycle, std::string&& blob) {
      blobs.push_back(std::move(blob));
    };
    (void)Mp5Simulator(prog, copts).run(trace);
    ASSERT_GE(blobs.size(), 3u);

    for (std::size_t i = 1; i < blobs.size(); ++i) {
      SCOPED_TRACE(i);
      Telemetry resumed;
      SimOptions ropts = opts;
      ropts.telemetry = &resumed;
      Mp5Simulator sim(prog, ropts);
      VectorTraceSource source(trace);
      (void)sim.resume(source, blobs[i]);
      EXPECT_EQ(resumed.counter_snapshot(), whole.counter_snapshot());
      // Gauges and histograms cover the whole run too: the checkpoint
      // carries both histograms.
      ASSERT_EQ(resumed.gauges().size(), whole.gauges().size());
      for (const auto& [name, gauge] : whole.gauges()) {
        SCOPED_TRACE(name);
        ASSERT_EQ(resumed.gauges().count(name), 1u);
        EXPECT_EQ(resumed.gauges().at(name).value(), gauge.value());
      }
      ASSERT_EQ(resumed.histograms().size(), whole.histograms().size());
      for (const auto& [name, hist] : whole.histograms()) {
        SCOPED_TRACE(name);
        ASSERT_EQ(resumed.histograms().count(name), 1u);
        EXPECT_EQ(resumed.histograms().at(name).buckets(), hist.buckets());
        EXPECT_EQ(resumed.histograms().at(name).total(), hist.total());
      }
    }
  }
}

TEST(TelemetrySim, TwoSimulatorsOneRegistryScopedPrefixesDoNotCollide) {
  // Per-instance scoping regression: two simulators sharing one Telemetry
  // must not merge their metrics as long as they use distinct prefixes
  // (the fabric runs N+M switches against one registry this way). Before
  // telemetry_prefix existed, both registered the flat "sim.admitted" and
  // the counts silently summed.
  const auto prog = synthetic_program();
  const auto trace_a = synthetic_trace(1, 1500);
  const auto trace_b = synthetic_trace(2, 700);
  Telemetry telem;
  SimOptions opts_a = mp5_options(4, 1);
  opts_a.telemetry = &telem;
  opts_a.telemetry_prefix = "fabric.leaf0.";
  SimOptions opts_b = opts_a;
  opts_b.telemetry_prefix = "fabric.spine1.";
  Mp5Simulator sim_a(prog, opts_a);
  Mp5Simulator sim_b(prog, opts_b);
  const auto ra = sim_a.run(trace_a);
  const auto rb = sim_b.run(trace_b);
  ASSERT_NE(ra.offered, rb.offered); // distinct loads, else vacuous

  const auto counters = telem.counter_snapshot();
  EXPECT_EQ(counters.at("fabric.leaf0.sim.admitted"), ra.offered);
  EXPECT_EQ(counters.at("fabric.spine1.sim.admitted"), rb.offered);
  EXPECT_EQ(counters.at("fabric.leaf0.sim.egressed"), ra.egressed);
  EXPECT_EQ(counters.at("fabric.spine1.sim.egressed"), rb.egressed);
  // No un-prefixed (merged) names leaked into the shared registry.
  EXPECT_EQ(counters.count("sim.admitted"), 0u);
  // Gauges and histograms are scoped too.
  EXPECT_DOUBLE_EQ(telem.gauge("fabric.leaf0.sim.cycles_run").value(),
                   static_cast<double>(ra.cycles_run));
  EXPECT_DOUBLE_EQ(telem.gauge("fabric.spine1.sim.cycles_run").value(),
                   static_cast<double>(rb.cycles_run));
  EXPECT_EQ(telem.histograms().at("fabric.leaf0.sim.egress_latency").total(),
            ra.egressed);
  EXPECT_EQ(telem.histograms().at("fabric.spine1.sim.egress_latency").total(),
            rb.egressed);
  // An empty prefix still yields the classic flat names (single-simulator
  // tools keep their dashboards).
  Telemetry flat;
  SimOptions opts_flat = mp5_options(4, 1);
  opts_flat.telemetry = &flat;
  Mp5Simulator sim_flat(prog, opts_flat);
  const auto rf = sim_flat.run(trace_a);
  EXPECT_EQ(flat.counter_snapshot().at("sim.admitted"), rf.offered);
}

TEST(TelemetrySim, RebalanceRunsCountedUniformlyAcrossPolicies) {
  // shard.rebalance_runs counts every crossed remap boundary under every
  // policy — the static policies (kStaticRandom, kSinglePipeline) close
  // their counter windows at the same cadence as the moving policies and
  // used to under-report by never bumping the counter.
  const auto prog = synthetic_program();
  const auto trace = synthetic_trace(5);
  SimOptions (*const presets[])(std::uint32_t, std::uint64_t) = {
      mp5_options, no_d2_options, naive_options, ideal_options};
  for (const auto make : presets) {
    Telemetry telem;
    SimOptions opts = make(4, 5);
    opts.telemetry = &telem;
    Mp5Simulator sim(prog, opts);
    const auto result = sim.run(trace);
    const auto counters = telem.counter_snapshot();
    // One run per boundary: boundaries lie at cycles period-1, 2*period-1,
    // ... strictly below cycles_run.
    ASSERT_NE(opts.remap_period, 0u);
    const std::uint64_t expected = result.cycles_run / opts.remap_period;
    EXPECT_EQ(counters.at("shard.rebalance_runs"), expected);
    EXPECT_GT(expected, 0u);
    // The windowed working set is recorded for every policy too.
    EXPECT_GT(counters.at("shard.touched_indices"), 0u);
    EXPECT_LE(counters.at("shard.touched_indices"),
              counters.at("shard.state_accesses"));
  }
}

TEST(TelemetrySim, DeterministicAcrossSameSeedRuns) {
  const auto prog = synthetic_program();
  const auto trace = synthetic_trace(7);
  std::map<std::string, std::uint64_t> snap[2];
  std::uint64_t recorded[2] = {0, 0};
  for (int i = 0; i < 2; ++i) {
    Telemetry telem;
    SimOptions opts = mp5_options(4, 7);
    opts.telemetry = &telem;
    Mp5Simulator sim(prog, opts);
    (void)sim.run(trace);
    snap[i] = telem.counter_snapshot();
    recorded[i] = telem.events().recorded();
  }
  EXPECT_EQ(snap[0], snap[1]);
  EXPECT_EQ(recorded[0], recorded[1]);
  EXPECT_FALSE(snap[0].empty());
}

TEST(TelemetrySim, DisabledRunIsBitIdentical) {
  const auto prog = synthetic_program();
  const auto trace = synthetic_trace(3);

  SimOptions opts = mp5_options(4, 3);
  const auto plain = test::run_streamed(prog, trace, opts);

  Telemetry telem;
  opts.telemetry = &telem;
  test::expect_same_run(plain, test::run_streamed(prog, trace, opts));
}

// ---------------------------------------------------------------------
// Exporters

TEST(TelemetryExport, ChromeTraceParsesNonEmpty) {
  const auto prog = synthetic_program();
  const auto trace = synthetic_trace(1, 500);
  Telemetry telem;
  SimOptions opts = mp5_options(4, 1);
  opts.telemetry = &telem;
  Mp5Simulator sim(prog, opts);
  (void)sim.run(trace);

  std::ostringstream out;
  telemetry::write_chrome_trace(out, telem);
  const std::string json = out.str();
  MiniJsonParser parser(json);
  EXPECT_TRUE(parser.parse());
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos)
      << "expected at least one instant event";
  EXPECT_NE(json.find("\"mp5-chrome-trace\""), std::string::npos);
}

TEST(TelemetryExport, ResultsJsonParses) {
  const auto prog = synthetic_program();
  const auto trace = synthetic_trace(1, 500);
  Telemetry telem;
  SimOptions opts = mp5_options(4, 1);
  opts.telemetry = &telem;
  Mp5Simulator sim(prog, opts);
  const auto result = sim.run(trace);

  RunMeta meta;
  meta.design = "mp5";
  meta.program = "synthetic";
  meta.pipelines = 4;
  meta.packets = trace.size();
  meta.seed = 1;

  std::ostringstream with_telem;
  telemetry::write_results_json(with_telem, meta, result, &telem);
  MiniJsonParser parser(with_telem.str());
  EXPECT_TRUE(parser.parse());
  EXPECT_NE(with_telem.str().find("\"mp5-results\""), std::string::npos);
  EXPECT_NE(with_telem.str().find("\"sim.admitted\""), std::string::npos);

  std::ostringstream without;
  telemetry::write_results_json(without, meta, result, nullptr);
  MiniJsonParser parser2(without.str());
  EXPECT_TRUE(parser2.parse());
  EXPECT_NE(without.str().find("\"telemetry\":null"), std::string::npos);
}

TEST(TelemetryExport, BenchReportRoundTrip) {
  BenchReport report("unit");
  report.row("a").metric("x", 1.5).label("kind", "first");
  report.row("b").metric("y", 2.0);
  report.row("a").metric("z", 3.0); // find-or-append: still two rows
  EXPECT_EQ(report.size(), 2u);

  std::ostringstream out;
  report.write_to(out);
  MiniJsonParser parser(out.str());
  EXPECT_TRUE(parser.parse());
  EXPECT_NE(out.str().find("\"mp5-bench\""), std::string::npos);
  EXPECT_NE(out.str().find("\"z\":3"), std::string::npos);
}

} // namespace
} // namespace mp5
