// mp5bench — one whole run of one benchmark workload, timed from outside.
//
// Each invocation compiles the program, builds the input, constructs the
// executor and runs it, exactly as mp5sim / mp5native / mp5fabric do, and
// prints one JSON line describing the run. perfbench/run.py starts this
// binary once per repetition and aggregates the lines.
//
// Every timing is taken here, around public calls into the library: a span
// wraps parse, compile, transform, trace generation, executor construction,
// the run call and the reference replay. Nothing inside src/ is
// instrumented for the benchmark. With --traced the program's existing
// counters are switched on too (telemetry::Telemetry for the simulator,
// NativeOptions::profile for the native backend) and the native trace
// source is wrapped in a timing decorator; untraced runs leave all of that
// off, so they measure the path users get.
//
// With --verify the result is checked after the timed window against a
// sequential banzai::ReferenceSwitch replay of the same input (sims and
// native) or against the fabric's conservation ledger and per-switch C1
// count. --corrupt hands the check a copy of the result with one value
// flipped; the check must then fail (the benchmark's own test uses it).
#include <sched.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "apps/programs.hpp"
#include "banzai/single_pipeline.hpp"
#include "baseline/presets.hpp"
#include "common/error.hpp"
#include "common/stats.hpp"
#include "domino/compiler.hpp"
#include "domino/parser.hpp"
#include "fabric/fabric.hpp"
#include "metrics/equivalence.hpp"
#include "mp5/simulator.hpp"
#include "mp5/transform.hpp"
#include "native/backend.hpp"
#include "telemetry/json_writer.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/trace_source.hpp"
#include "trace/workloads.hpp"

#ifndef MP5BENCH_BUILD_TYPE
#define MP5BENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace mp5;

// Workload sizes at --scale 1. See perfbench/README.md for how they were
// chosen: each repetition takes one to three seconds on a 4-CPU host.
constexpr std::uint64_t kDensePackets = 400'000;
constexpr std::uint64_t kSparsePackets = 10'000;
constexpr double kSparseLoad = 0.01;
constexpr std::uint64_t kNativePackets = 2'000'000;
constexpr std::uint32_t kNativeWorkers = 3;
constexpr std::uint64_t kFabricFlows = 60'000;
// The default flow_rate of 1.0 sits where CONGA path choice herds traffic
// onto one switch for about half of all seeds, building queues of 30-60K
// cycles, so every fabric metric would be bimodal across seeds. At 0.6 no
// seed tried congests.
constexpr double kFabricFlowRate = 0.6;
constexpr std::uint32_t kPipelines = 4;
// Setup runs at least kMinSetupRounds times per repetition, and more until
// kSetupBudgetS seconds of setup have passed (so sub-millisecond setups
// get enough rounds for a steady median); setup_s is the median round.
// Only the last round's executor runs. The first round is cold (fresh
// process), so the median reports the warm setup cost.
constexpr int kMinSetupRounds = 5;
constexpr int kMaxSetupRounds = 100;
constexpr double kSetupBudgetS = 0.05;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Spans kept in memory and written out at exit. A span's parent is the
/// span open when it started, so the log is a forest of well-nested
/// intervals.
class SpanLog {
public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
  };

  int open(std::string name) {
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({std::move(name), now_ns(), 0,
                      stack_.empty() ? -1 : stack_.back()});
    stack_.push_back(id);
    return id;
  }
  void close(int id) {
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    stack_.pop_back();
  }

  /// Seconds of one closed span.
  double seconds(int id) const {
    const Span& s = spans_[static_cast<std::size_t>(id)];
    return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  }
  /// Median seconds over the spans with this name (one per setup round).
  double median_seconds(const std::string& name) const {
    std::vector<double> durations;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].name == name) {
        durations.push_back(seconds(static_cast<int>(i)));
      }
    }
    return percentile(std::move(durations), 0.5);
  }
  const std::vector<Span>& spans() const { return spans_; }

private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Run f() inside a span named `name`; the span closes after the result is
/// constructed in the caller.
template <typename F>
auto timed(SpanLog& log, const char* name, F&& f) {
  struct Closer {
    SpanLog& log;
    int id;
    ~Closer() { log.close(id); }
  } closer{log, log.open(name)};
  return f();
}

/// Build a workload's executor with make() for the rounds given above, each
/// round inside a "setup" span, and return the last. Each earlier round is
/// torn down inside a "teardown" span, which counts towards neither setup_s
/// nor the run. `setup_s` receives the median round's seconds.
template <typename Make>
auto set_up(SpanLog& log, Make&& make, double& setup_s) {
  decltype(make()) kept;
  std::vector<double> rounds;
  double total = 0.0;
  while (static_cast<int>(rounds.size()) < kMinSetupRounds ||
         (total < kSetupBudgetS &&
          static_cast<int>(rounds.size()) < kMaxSetupRounds)) {
    if (kept) {
      const int teardown = log.open("teardown");
      kept.reset();
      log.close(teardown);
    }
    const int setup = log.open("setup");
    kept = make();
    log.close(setup);
    rounds.push_back(log.seconds(setup));
    total += rounds.back();
  }
  setup_s = percentile(std::move(rounds), 0.5);
  return kept;
}

/// Timing decorator around a TraceSource: accumulates the host time spent
/// inside peek() and advance(), which the native backend pays on its
/// dispatcher thread.
class TimedSource final : public TraceSource {
public:
  explicit TimedSource(TraceSource& inner) : inner_(inner) {}

  const TraceItem* peek() override {
    const std::int64_t t = now_ns();
    const TraceItem* item = inner_.peek();
    ns_ += now_ns() - t;
    return item;
  }
  void advance() override {
    const std::int64_t t = now_ns();
    inner_.advance();
    ns_ += now_ns() - t;
  }
  std::uint64_t consumed() const override { return inner_.consumed(); }
  void skip_to(std::uint64_t n) override { inner_.skip_to(n); }
  std::optional<std::uint64_t> size() const override { return inner_.size(); }

  std::int64_t ns() const { return ns_; }

private:
  TraceSource& inner_;
  std::int64_t ns_ = 0;
};

std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

/// Order-dependent digest of a sequence of 64-bit words.
class Digest {
public:
  void add(std::uint64_t v) { h_ = mix64(h_ ^ v) + 0x9e3779b97f4a7c15ULL; }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add_registers(const std::vector<std::vector<Value>>& regs) {
    add(static_cast<std::uint64_t>(regs.size()));
    for (const auto& arr : regs) {
      add(static_cast<std::uint64_t>(arr.size()));
      for (const Value v : arr) add(static_cast<std::uint64_t>(v));
    }
  }
  std::uint64_t value() const { return h_; }

private:
  std::uint64_t h_ = 0;
};

/// Declared-field slots of a program, in a fixed order. Only declared
/// fields are packet state; compiler temporaries are scratch.
std::vector<ir::Slot> declared_slots(const ir::Pvsm& pvsm) {
  std::vector<ir::Slot> slots;
  for (const auto& [name, slot] : pvsm.declared_slot) slots.push_back(slot);
  std::sort(slots.begin(), slots.end());
  return slots;
}

/// Hash of one egressed packet: its seq and declared fields. Summing these
/// gives a digest of the egress set that ignores egress order.
std::uint64_t packet_hash(SeqNo seq, const std::vector<Value>& headers,
                          const std::vector<ir::Slot>& slots) {
  Digest d;
  d.add(seq);
  for (const ir::Slot s : slots) {
    const auto i = static_cast<std::size_t>(s);
    d.add(static_cast<std::uint64_t>(i < headers.size() ? headers[i] : 0));
  }
  return d.value();
}

std::vector<Value> reference_headers(const TraceItem& item,
                                     std::size_t num_slots) {
  std::vector<Value> headers(item.fields.begin(), item.fields.end());
  headers.resize(num_slots, 0);
  return headers;
}

/// Peak resident memory of this process image. VmHWM, not getrusage:
/// Linux carries ru_maxrss across exec, so a child started by a large
/// parent would report the parent's peak.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0; // kB
    }
  }
  throw Error("no VmHWM line in /proc/self/status");
}

double safe_div(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double scale = 1.0;
  std::uint32_t workers = kNativeWorkers;
  bool traced = false;
  bool verify = false;
  bool corrupt = false;
  bool fingerprint = false;
  std::string trace_out;

  std::uint64_t scaled(std::uint64_t n) const {
    return std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(static_cast<double>(n) * scale));
  }
};

/// What one repetition measured and checked.
struct Outcome {
  double setup_s = 0.0;
  double run_s = 0.0;
  std::uint64_t offered = 0;
  std::uint64_t delivered = 0;
  std::uint64_t declared_drops = 0; // fault drops the run declares
  double peak_rss_mib = 0.0;
  std::map<std::string, double> layers;
  std::uint64_t digest = 0;
  bool verified = false;
  bool correct = true;
  std::string why;

  void fail(const std::string& reason) {
    if (correct) why = reason;
    correct = false;
  }
};

/// Final registers must equal the reference replay's. --corrupt flips one
/// value in the copy handed to the check.
void check_registers(const Args& a, const ir::Pvsm& pvsm,
                     const banzai::ReferenceSwitch& ref,
                     std::vector<std::vector<Value>> regs, Outcome& out) {
  if (a.corrupt && !regs.empty() && !regs[0].empty()) regs[0][0] ^= 1;
  EquivalenceVerifier registers(pvsm);
  registers.compare_registers(ref.registers(), regs);
  if (!registers.report().registers_equal) {
    out.fail("final registers differ from the reference: " +
             registers.report().first_difference);
  }
}

Mp5Program compile_program(SpanLog& log, const std::string& source) {
  const domino::Ast ast =
      timed(log, "domino.parse", [&] { return domino::parse(source); });
  const domino::CompileResult compiled = timed(log, "domino.compile", [&] {
    return domino::compile(ast, banzai::MachineSpec{}, /*reserve_stages=*/1);
  });
  return timed(log, "mp5.transform", [&] { return transform(compiled.pvsm); });
}

void record_compile_layers(const SpanLog& log, Outcome& out) {
  out.layers["domino.parse_s"] = log.median_seconds("domino.parse");
  out.layers["domino.compile_s"] = log.median_seconds("domino.compile");
  out.layers["mp5.transform_s"] = log.median_seconds("mp5.transform");
}

/// Telemetry counters named by the per-layer metrics. A missing one means
/// the program renamed it, which must not read as a silent 0.
void record_counters(const telemetry::Telemetry& telem, Outcome& out) {
  const auto counters = telem.counter_snapshot();
  for (const char* name :
       {"fifo.pop_blocked", "fifo.pop_wasted", "phantom.sent",
        "shard.rebalance_runs", "shard.rebalance_moves",
        "shard.touched_indices"}) {
    const auto it = counters.find(name);
    if (it == counters.end()) {
      throw Error(std::string("telemetry counter '") + name + "' is missing");
    }
    out.layers[name] = static_cast<double>(it->second);
  }
}

/// Fault plan of the sparse workload: pipeline 1 fails and later recovers,
/// and one cell of pipeline 3's first stateful stage stalls for a while.
/// The fail and recover instants are placed in arrival gaps long enough for
/// the switch to drain, so no packet is inside the failing pipeline and the
/// run stays exactly checkable against the reference. The stall only delays
/// stateful packets, which queue behind it.
FaultPlan plan_faults(const Trace& trace, const Mp5Program& program) {
  const std::size_t n = trace.size();
  const Cycle drain = 4 * static_cast<Cycle>(program.num_stages) + 16;
  auto quiet_cycle = [&](double at) -> Cycle {
    for (auto i = static_cast<std::size_t>(at * static_cast<double>(n));
         i + 1 < n; ++i) {
      const Cycle quiet = static_cast<Cycle>(trace[i].arrival_time) + drain;
      if (trace[i + 1].arrival_time >= static_cast<double>(quiet + 1)) {
        return quiet;
      }
    }
    throw Error("sparse workload: no arrival gap to place a fault in");
  };
  FaultPlan plan;
  plan.pipeline_faults.push_back(
      PipelineFault{1, quiet_cycle(0.3), quiet_cycle(0.6)});
  const auto stall_from = static_cast<Cycle>(
      trace[static_cast<std::size_t>(0.45 * static_cast<double>(n))]
          .arrival_time);
  plan.stalls.push_back(StageStall{kPipelines - 1,
                                   program.accesses.front().stage, stall_from,
                                   stall_from + 20'000});
  plan.validate(kPipelines);
  return plan;
}

/// Everything one simulator run needs, built by one setup round. Held on
/// the heap so the pointer the sinks capture stays valid.
struct SimSetup {
  Mp5Program program;
  Trace trace;
  std::vector<ir::Slot> slots;
  std::vector<std::uint32_t> latency;
  std::uint64_t egress_sum = 0;
  std::uint64_t bad_seqs = 0;
  std::vector<SimResult::FaultDrop> drops;
  std::unique_ptr<telemetry::Telemetry> telem;
  std::unique_ptr<Mp5Simulator> sim;
};

std::unique_ptr<SimSetup> make_sim(const Args& a, SpanLog& log,
                                   const apps::AppSpec& app, bool sparse) {
  auto s = std::make_unique<SimSetup>();
  s->program = compile_program(log, app.source);
  FlowWorkloadConfig config;
  config.pipelines = kPipelines;
  config.packets = a.scaled(sparse ? kSparsePackets : kDensePackets);
  config.seed = a.seed;
  config.load = sparse ? kSparseLoad : 1.0;
  s->trace = timed(log, "trace.gen", [&] {
    return make_flow_trace(config, app.filler);
  });

  const int options = log.open("sim.options");
  SimOptions opts = mp5_options(kPipelines, a.seed);
  if (sparse) {
    opts.faults = plan_faults(s->trace, s->program);
    const auto last = static_cast<std::uint64_t>(s->trace.back().arrival_time);
    opts.max_cycles = std::max(opts.max_cycles, 2 * last + 1'000'000);
  }
  s->slots = declared_slots(s->program.pvsm);
  s->latency.reserve(s->trace.size());
  SimSetup* state = s.get();
  opts.egress_sink = [state](EgressRecord&& rec) {
    if (rec.seq >= state->trace.size()) {
      ++state->bad_seqs;
      return;
    }
    state->latency.push_back(static_cast<std::uint32_t>(
        rec.egress_cycle -
        static_cast<Cycle>(state->trace[rec.seq].arrival_time)));
    state->egress_sum += packet_hash(rec.seq, rec.headers, state->slots);
  };
  opts.fault_drop_sink = [state](SeqNo seq, bool touched) {
    state->drops.push_back({seq, touched});
  };
  if (a.traced) {
    telemetry::Config tconfig;
    tconfig.event_capacity = 0; // counters only; the event ring is not used
    s->telem = std::make_unique<telemetry::Telemetry>(tconfig);
    opts.telemetry = s->telem.get();
  }
  log.close(options);

  s->sim = timed(log, "sim.construct", [&] {
    return std::make_unique<Mp5Simulator>(s->program, opts);
  });
  return s;
}

/// The two flowlet simulator workloads (mirrors `mp5sim --builtin flowlet
/// --flow-workload`): dense at line rate, or sparse with a fault plan.
Outcome run_sim(const Args& a, SpanLog& log, bool sparse) {
  Outcome out;
  const apps::AppSpec app = apps::flowlet_app();
  const int wall = log.open("wall");
  const auto s =
      set_up(log, [&] { return make_sim(a, log, app, sparse); }, out.setup_s);
  const Trace& trace = s->trace;
  const Mp5Program& program = s->program;
  const int run = log.open("sim.run");
  const SimResult result = s->sim->run(trace);
  log.close(run);
  log.close(wall);
  out.peak_rss_mib = peak_rss_mib();

  out.run_s = log.seconds(run);
  out.offered = result.offered;
  out.delivered = result.egressed;
  out.declared_drops = s->drops.size();
  std::vector<double> latency(s->latency.begin(), s->latency.end());
  const double latency_p50 = percentile(latency, 0.50);
  const double latency_p99 = percentile(std::move(latency), 0.99);

  record_compile_layers(log, out);
  auto& L = out.layers;
  L["trace.gen_s"] = log.median_seconds("trace.gen");
  L["sim.run_s"] = out.run_s;
  L["sim.ns_per_cycle"] =
      safe_div(out.run_s * 1e9, static_cast<double>(result.cycles_run));
  L["sim.ns_per_pkt"] =
      safe_div(out.run_s * 1e9, static_cast<double>(result.egressed));
  L["sim.cycles"] = static_cast<double>(result.cycles_run);
  L["sim.steers"] = static_cast<double>(result.steers);
  L["sim.max_queue_depth"] = static_cast<double>(result.max_queue_depth);
  L["sim.norm_throughput"] = result.normalized_throughput();
  L["sim.latency_p50_cycles"] = latency_p50;
  L["sim.latency_p99_cycles"] = latency_p99;
  if (s->telem) record_counters(*s->telem, out);

  Digest d;
  for (const std::uint64_t v :
       {result.offered, result.egressed, result.dropped_phantom,
        result.dropped_data, result.dropped_starved, result.dropped_fault,
        result.ecn_marked, result.first_arrival, result.last_arrival,
        result.last_egress, result.cycles_run, result.steers,
        result.wasted_cycles, result.blocked_cycles, result.remap_moves,
        static_cast<std::uint64_t>(result.max_queue_depth),
        result.pipeline_failures, result.pipeline_recoveries,
        result.fault_remapped_indices, result.stalled_cycles,
        result.time_to_recover, result.c1_violating_packets, s->egress_sum}) {
    d.add(v);
  }
  d.add_registers(result.final_registers);
  for (const auto& drop : s->drops) d.add(drop.seq * 2 + drop.state_touched);
  d.add(latency_p50);
  d.add(latency_p99);
  out.digest = d.value();

  if (!a.verify) return out;
  out.verified = true;
  const int verify = log.open("verify");
  // Fate per packet: 0 egressed, 1 dropped before touching state, 2 dropped
  // after touching state (its register effects remain, so the reference
  // replays it but expects no egress).
  std::vector<std::uint8_t> fate(trace.size(), 0);
  for (const auto& drop : s->drops) {
    if (drop.seq < fate.size()) fate[drop.seq] = drop.state_touched ? 2 : 1;
  }
  banzai::ReferenceSwitch ref(program.pvsm);
  ref.set_access_logging(false);
  std::uint64_t ref_sum = 0;
  std::uint64_t replayed = 0;
  const int replay = log.open("verify.ref");
  for (std::size_t seq = 0; seq < trace.size(); ++seq) {
    if (fate[seq] == 1) continue;
    std::vector<Value> headers = ref.process(
        reference_headers(trace[seq], program.pvsm.num_slots()));
    ++replayed;
    if (fate[seq] == 0) ref_sum += packet_hash(seq, headers, s->slots);
  }
  log.close(replay);
  const double ref_s = log.seconds(replay);
  L["verify.ref_s"] = ref_s;
  L["verify.ref_pkts_per_s"] = safe_div(static_cast<double>(replayed), ref_s);

  check_registers(a, program.pvsm, ref, result.final_registers, out);
  if (ref_sum != s->egress_sum) {
    out.fail("egress (seq, declared fields) digest differs from the reference");
  }
  if (s->bad_seqs != 0) out.fail("egress records with out-of-range seq");
  if (result.egressed + result.dropped_fault != result.offered ||
      s->drops.size() != result.dropped_fault) {
    out.fail("packets lost outside the declared fault drops");
  }
  if (result.c1_violating_packets != 0) {
    out.fail(std::to_string(result.c1_violating_packets) +
             " packets violated C1");
  }
  if (sparse && (result.pipeline_failures != 1 ||
                 result.pipeline_recoveries != 1 ||
                 result.stalled_cycles == 0)) {
    out.fail("the fault plan did not fire inside the run");
  }
  log.close(verify);
  return out;
}

/// One native run's program, streamed source and backend.
struct NativeSetup {
  Mp5Program program;
  SyntheticSpec spec;
  std::unique_ptr<SyntheticTraceSource> source;
  std::unique_ptr<TimedSource> timed_source;
  std::unique_ptr<native::NativeBackend> backend;
};

std::unique_ptr<NativeSetup> make_native(const Args& a, SpanLog& log,
                                         const apps::AppSpec& app) {
  auto s = std::make_unique<NativeSetup>();
  s->program = compile_program(log, app.source);
  s->spec.packets = a.scaled(kNativePackets);
  s->spec.pipelines = kNativeWorkers; // same trace for every worker count
  s->spec.field_count =
      static_cast<std::uint32_t>(s->program.pvsm.declared_slot.size());
  s->spec.seed = a.seed;
  s->source = timed(log, "trace.gen", [&] {
    return std::make_unique<SyntheticTraceSource>(s->spec);
  });
  if (a.traced) s->timed_source = std::make_unique<TimedSource>(*s->source);
  native::NativeOptions nopts;
  nopts.workers = a.workers;
  nopts.pin_threads = false;
  nopts.profile = a.traced;
  s->backend = timed(log, "native.construct", [&] {
    return std::make_unique<native::NativeBackend>(s->program, nopts);
  });
  return s;
}

/// `mp5native --builtin flowlet --cores 3 --no-pin` on a streamed synthetic
/// trace: NativeOptions{} apart from workers and pin_threads.
Outcome run_native(const Args& a, SpanLog& log) {
  Outcome out;
  const apps::AppSpec app = apps::flowlet_app();
  const int wall = log.open("wall");
  const auto s = set_up(log, [&] { return make_native(a, log, app); },
                        out.setup_s);
  const int run = log.open("native.run");
  const native::NativeResult result = s->backend->run(
      s->timed_source ? static_cast<TraceSource&>(*s->timed_source)
                      : *s->source);
  log.close(run);
  log.close(wall);
  out.peak_rss_mib = peak_rss_mib();

  out.run_s = log.seconds(run);
  out.offered = s->spec.packets;
  out.delivered = result.packets;

  record_compile_layers(log, out);
  auto& L = out.layers;
  L["trace.gen_s"] = log.median_seconds("trace.gen");
  L["native.run_s"] = out.run_s;
  L["native.shard_moves"] = static_cast<double>(result.shard_moves);
  if (s->timed_source) {
    const double packets = static_cast<double>(result.packets);
    // Includes the two clock reads around each call. Subtracting a
    // separately measured clock cost left a difference of two noisy
    // numbers that often came out at or below 0.
    L["trace.pull_ns_per_pkt"] =
        safe_div(static_cast<double>(s->timed_source->ns()), packets);
    double busy = 0, idle = 0, forwards = 0, parks = 0;
    for (const auto& w : result.profile.workers) {
      busy += static_cast<double>(w.busy_ns);
      idle += static_cast<double>(w.idle_ns);
      forwards += static_cast<double>(w.forwards);
      parks += static_cast<double>(w.parks);
    }
    double remote = 0, performed = 0;
    for (const auto& r : result.profile.registers) {
      remote += static_cast<double>(r.remote);
      performed += static_cast<double>(r.performed);
    }
    L["native.busy_frac"] = safe_div(busy, busy + idle);
    L["native.forwards_per_pkt"] = safe_div(forwards, packets);
    L["native.parks_per_pkt"] = safe_div(parks, packets);
    L["native.remote_frac"] = safe_div(remote, performed);
    L["native.serial_fraction"] = result.profile.serial_fraction;
  }

  // Ownership moves depend on thread timing, so only the packet count and
  // the final registers are deterministic.
  Digest d;
  d.add(result.packets);
  d.add_registers(result.final_registers);
  out.digest = d.value();

  if (!a.verify) return out;
  out.verified = true;
  const int verify = log.open("verify");
  const Mp5Program& program = s->program;
  banzai::ReferenceSwitch ref(program.pvsm);
  ref.set_access_logging(false);
  SyntheticTraceSource replay_source(s->spec);
  std::uint64_t replayed = 0;
  const int replay = log.open("verify.ref");
  for (const TraceItem* item; (item = replay_source.peek()) != nullptr;
       replay_source.advance()) {
    ref.process(reference_headers(*item, program.pvsm.num_slots()));
    ++replayed;
  }
  log.close(replay);
  const double ref_s = log.seconds(replay);
  L["verify.ref_s"] = ref_s;
  L["verify.ref_pkts_per_s"] = safe_div(static_cast<double>(replayed), ref_s);

  check_registers(a, program.pvsm, ref, result.final_registers, out);
  if (result.packets != replayed) out.fail("native processed a short stream");
  log.close(verify);
  return out;
}

std::unique_ptr<fabric::FabricSimulator> make_fabric(const Args& a,
                                                     SpanLog& log) {
  fabric::FabricOptions opts;
  opts.seed = a.seed;
  opts.workload.seed = a.seed;
  opts.workload.flows = a.scaled(kFabricFlows);
  opts.workload.flow_rate = kFabricFlowRate;
  return timed(log, "fabric.construct", [&] {
    return std::make_unique<fabric::FabricSimulator>(opts);
  });
}

/// `mp5fabric --flows N --flow-rate R`: otherwise FabricOptions{} (4 leaves
/// x 2 spines, CONGA).
Outcome run_fabric(const Args& a, SpanLog& log) {
  Outcome out;
  const int wall = log.open("wall");
  const auto sim = set_up(log, [&] { return make_fabric(a, log); },
                          out.setup_s);
  const int run = log.open("fabric.run");
  const fabric::FabricResult r = sim->run();
  log.close(run);
  log.close(wall);
  out.peak_rss_mib = peak_rss_mib();

  out.run_s = log.seconds(run);
  out.offered = r.injected;
  out.delivered = r.delivered;

  double switch_pkts = 0;
  for (const auto& s : r.switches) {
    switch_pkts += static_cast<double>(s.sim.offered);
  }
  auto& L = out.layers;
  L["fabric.run_s"] = out.run_s;
  L["fabric.cycles"] = static_cast<double>(r.cycles_run);
  L["fabric.ns_per_cycle"] =
      safe_div(out.run_s * 1e9, static_cast<double>(r.cycles_run));
  L["fabric.switch_pkts"] = switch_pkts;
  L["fabric.ns_per_switch_pkt"] = safe_div(out.run_s * 1e9, switch_pkts);
  L["fabric.uplink_util_skew"] = r.uplink_util_skew;
  L["fabric.reordered"] = static_cast<double>(r.reordered_packets);
  L["sim.norm_throughput"] =
      safe_div(r.throughput_pkts_per_cycle, r.offered_pkts_per_cycle);
  L["sim.latency_p50_cycles"] = r.latency_p50;
  L["sim.latency_p99_cycles"] = r.latency_p99;

  Digest d;
  for (const std::uint64_t v :
       {r.injected, r.delivered, r.dropped_total(), r.in_flight_end,
        r.cycles_run, r.flows_started, r.flows_completed,
        r.flows_fully_delivered, r.peak_concurrent_flows,
        r.reordered_packets, r.fct_count}) {
    d.add(v);
  }
  for (const double v : {r.fct_p50, r.fct_p99, r.latency_p50, r.latency_p90,
                         r.latency_p99, r.uplink_util_skew}) {
    d.add(v);
  }
  for (const auto& s : r.switches) {
    d.add(s.sim.offered);
    d.add(s.sim.egressed);
    d.add(s.sim.steers);
    d.add(s.sim.c1_violating_packets);
    d.add_registers(s.sim.final_registers);
  }
  for (const auto& l : r.links) d.add(l.bytes);
  out.digest = d.value();

  if (!a.verify) return out;
  out.verified = true;
  const int verify = log.open("verify");
  fabric::FabricResult checked = r;
  if (a.corrupt) ++checked.delivered;
  if (!checked.conserved()) out.fail("fabric packet ledger does not balance");
  if (checked.delivered != checked.injected) {
    out.fail("fabric delivered " + std::to_string(checked.delivered) + " of " +
             std::to_string(checked.injected) + " packets");
  }
  for (const auto& s : checked.switches) {
    if (s.sim.c1_violating_packets != 0) {
      out.fail(s.name + ": " + std::to_string(s.sim.c1_violating_packets) +
               " packets violated C1");
    }
  }
  log.close(verify);
  return out;
}

std::string cgroup_cpu_max() {
  std::ifstream in("/sys/fs/cgroup/cpu.max");
  std::string line;
  if (!in || !std::getline(in, line)) return "none";
  return line;
}

std::string compiler_id() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

void print_fingerprint() {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int affinity =
      sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 0;
  telemetry::JsonWriter json(std::cout);
  json.begin_object();
  json.kv("affinity_cpus", static_cast<std::uint64_t>(affinity));
  json.kv("hardware_concurrency",
          static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  json.kv("cgroup_cpu_max", cgroup_cpu_max());
  json.kv("compiler", compiler_id());
  json.kv("build_type", MP5BENCH_BUILD_TYPE);
  json.end_object();
  std::cout << "\n";
}

void write_chrome_trace(const std::string& path, const Args& a,
                        const SpanLog& log) {
  std::ofstream out(path);
  if (!out) throw ConfigError("--trace-out: cannot open '" + path + "'");
  const auto& spans = log.spans();
  const std::int64_t base = spans.empty() ? 0 : spans.front().start_ns;
  telemetry::JsonWriter json(out);
  json.begin_object();
  json.key("traceEvents").begin_array();
  for (const auto& s : spans) {
    json.begin_object();
    json.kv("name", s.name);
    json.kv("cat", "perfbench");
    json.kv("ph", "X");
    json.kv("ts", static_cast<double>(s.start_ns - base) * 1e-3);
    json.kv("dur", static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
    json.kv("pid", 1);
    json.kv("tid", 1);
    json.key("args").begin_object();
    json.kv("workload", a.workload);
    json.key("parent");
    if (s.parent < 0) json.null();
    else json.value(spans[static_cast<std::size_t>(s.parent)].name);
    json.end_object();
    json.end_object();
  }
  json.end_array();
  json.kv("displayTimeUnit", "ms");
  json.end_object();
  out << "\n";
}

void print_outcome(const Args& a, const Outcome& o, const SpanLog& log) {
  telemetry::JsonWriter json(std::cout);
  json.begin_object();
  json.kv("workload", a.workload);
  json.kv("seed", a.seed);
  json.kv("workers", a.workers);
  json.kv("traced", a.traced);
  json.kv("setup_s", o.setup_s);
  json.kv("run_s", o.run_s);
  json.kv("wall_s", o.setup_s + o.run_s);
  json.kv("offered", o.offered);
  json.kv("delivered", o.delivered);
  json.kv("declared_drops", o.declared_drops);
  json.kv("pkts_per_s", safe_div(static_cast<double>(o.delivered), o.run_s));
  json.kv("peak_rss_mib", o.peak_rss_mib);
  json.key("layers").begin_object();
  for (const auto& [name, value] : o.layers) json.kv(name, value);
  json.end_object();
  json.key("spans").begin_array();
  for (const auto& s : log.spans()) {
    json.begin_array();
    json.value(s.name);
    json.value(static_cast<std::int64_t>(s.start_ns));
    json.value(static_cast<std::int64_t>(s.end_ns));
    json.value(s.parent);
    json.end_array();
  }
  json.end_array();
  std::ostringstream hex;
  hex << std::hex << o.digest;
  json.kv("digest", hex.str());
  json.kv("verified", o.verified);
  json.kv("correct", o.correct);
  json.kv("why", o.why);
  json.end_object();
  std::cout << "\n";
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw ConfigError(arg + " needs an argument");
      return argv[++i];
    };
    if (arg == "--workload") a.workload = next();
    else if (arg == "--seed") a.seed = std::stoull(next());
    else if (arg == "--scale") a.scale = std::stod(next());
    else if (arg == "--workers")
      a.workers = static_cast<std::uint32_t>(std::stoul(next()));
    else if (arg == "--traced") a.traced = true;
    else if (arg == "--verify") a.verify = true;
    else if (arg == "--corrupt") a.corrupt = true;
    else if (arg == "--trace-out") a.trace_out = next();
    else if (arg == "--fingerprint") a.fingerprint = true;
    else throw ConfigError("unknown option '" + arg + "'");
  }
  if (!(a.scale > 0.0)) throw ConfigError("--scale must be > 0");
  return a;
}

int run(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  if (a.fingerprint) {
    print_fingerprint();
    return 0;
  }
  SpanLog log;
  Outcome out;
  if (a.workload == "sim-flowlet-dense") out = run_sim(a, log, false);
  else if (a.workload == "sim-flowlet-sparse-faults") out = run_sim(a, log, true);
  else if (a.workload == "native-flowlet") out = run_native(a, log);
  else if (a.workload == "fabric-conga") out = run_fabric(a, log);
  else throw ConfigError("unknown workload '" + a.workload + "'");
  if (!a.trace_out.empty()) write_chrome_trace(a.trace_out, a, log);
  print_outcome(a, out, log);
  return 0;
}

} // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "mp5bench: " << e.what() << "\n";
    return 1;
  }
}
