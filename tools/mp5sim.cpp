// mp5sim — run an MP5 (or baseline) simulation from the command line.
//
// Usage:
//   mp5sim --builtin flowlet --pipelines 4
//   mp5sim program.dom --trace trace.csv --design no-d4
//   mp5sim --builtin counter --packets 5000 --check-equivalence
//   mp5sim --builtin synthetic --packets 100000000 --load 0.9
//          --check-equivalence --checkpoint-interval 200000
//          --checkpoint-out soak.ckpt
//
// Every run streams its packets: memory stays flat at any --packets, as
// long as the offered load stays below what the switch sustains (~0.97 of
// line rate; sustained overload grows the in-switch backlog). An MP5
// design's cycle ceiling leaves 64 cycles per packet at the offered load
// (and, for --trace, room past the last arrival), at least 5,000,000.
//
// Program source:
//   <file.dom> | --builtin <name>      (see mp5c --list; `synthetic` is
//                                      the §4.3.1 sensitivity program)
// Traffic (choose one):
//   --trace file.csv                   replay a stored trace (in admission
//                                      order: arrival_time, then port)
//   --flow-workload                    §4.4 web-search flows (uses the
//                                      builtin's field filler; builtin
//                                      only; held in memory)
//   --rand-fields B                    the synthetic stream mp5native
//                                      uses, fields uniform in [0, B)
//                                      (default, B=1024)
// Options:
//   --design mp5|ideal|no-d2|no-d4|naive|recirc|scr|relaxed  (default mp5)
//                           mp5..naive are the MP5 designs; scr and relaxed
//                           are the replicated-state baselines
//   --staleness N           synchronization period Δ in cycles for
//                           --design relaxed (default 64)
//   --pipelines K  --packets N  --seed S  --load F  --flow-order f1,f2
//   --fifo-capacity N  --remap N          (MP5 designs only)
//   --check-equivalence     verify vs the single-pipeline reference,
//                           packet by packet as the run goes, modulo the
//                           packets a fault plan drops (verification stops
//                           at the first dropped packet that changed state);
//                           any other drop is a violation. scr and relaxed
//                           take it only without checkpoint flags
//   --save-trace file.csv   store the generated trace (held in memory)
// A flag the chosen design does not honour is rejected, naming the flag
// and the design (kDesignFlags below lists which designs take which flag).
// Checkpoint/restore (MP5 and replicated designs; see DESIGN.md "Soak &
// crash recovery"):
//   --checkpoint-interval N write an mp5-checkpoint v1 file every N
//                           cycles (requires --checkpoint-out); with
//                           --check-equivalence an MP5 design appends the
//                           verifier's frame to the simulator's
//   --checkpoint-out FILE   checkpoint destination (atomically replaced
//                           at each interval; path validated up front)
//   --restore FILE          resume from a checkpoint instead of starting
//                           fresh — rerun with the *same* program, trace
//                           and semantic flags (the config fingerprint is
//                           enforced, the trace identity cannot be)
//   --self-test             run uninterrupted, then fork a checkpointing
//                           child, SIGKILL it after its first checkpoint,
//                           resume from the file and require the same
//                           result (MP5 designs; defaults to a checkpoint
//                           every 5000 cycles in mp5sim.selftest.ckpt)
// Fault injection (MP5 designs only):
//   --fail-pipeline P@CYCLE[:RECOVER]   kill pipeline P at CYCLE; with
//                                       :RECOVER it rejoins empty there
//                                       (repeatable)
//   --phantom-channel                   model the phantom channel as a
//                                       physical pipeline (required by the
//                                       phantom fault flags)
//   --phantom-loss-rate R               lose each phantom with prob. R
//   --phantom-delay-rate R  --phantom-delay D
//                                       delay each phantom D extra cycles
//                                       with probability R
//   --paranoid                          per-cycle invariant watchdog
//                                       (MP5 and replicated designs)
// Telemetry & machine-readable output (see DESIGN.md "Telemetry"):
//   --telemetry                         attach the telemetry registry
//                                       (counters + event ring; MP5
//                                       designs only)
//   --trace-out file.json               write the event ring as a Chrome
//                                       trace_event file (implies
//                                       --telemetry; load in Perfetto or
//                                       chrome://tracing)
//   --json file.json                    write the schema-versioned
//                                       "mp5-results" document (includes
//                                       the telemetry section when
//                                       --telemetry is on)
// After the metric table every run prints `result digest: 0x<16 hex>`,
// result_digest() of the whole result: equal lines mean field-by-field
// equal results (a resumed run prints its uninterrupted run's digest).
#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <utility>

#include <sys/wait.h>
#include <unistd.h>

#include "apps/programs.hpp"
#include "baseline/presets.hpp"
#include "baseline/recirc.hpp"
#include "baseline/replicated.hpp"
#include "cli.hpp"
#include "common/table.hpp"
#include "domino/compiler.hpp"
#include "domino/parser.hpp"
#include "mp5/checkpoint.hpp"
#include "mp5/transform.hpp"
#include "soak/rolling_verify.hpp"
#include "soak/soak_runner.hpp"
#include "telemetry/chrome_trace.hpp"
#include "telemetry/results.hpp"
#include "telemetry/run_envelope.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/trace_io.hpp"
#include "trace/trace_source.hpp"
#include "trace/workloads.hpp"

namespace {

using namespace mp5;

struct Args {
  std::string source;
  std::string builtin;
  std::string design = "mp5";
  std::string trace_file;
  std::string save_trace;
  bool flow_workload = false;
  Value rand_bound = 1024;
  std::uint32_t pipelines = 4;
  std::uint32_t staleness = 0; // 0 = unset (relaxed defaults to 64)
  std::uint64_t packets = 20000;
  std::uint64_t seed = 1;
  double load = 1.0;
  std::size_t fifo_capacity = 0;
  std::uint32_t remap = 100;
  std::vector<std::string> flow_order_fields;
  bool check_equivalence = false;
  std::uint64_t timeline = 0; // print the first N simulator events
  FaultPlan faults;
  bool phantom_channel = false;
  bool paranoid = false;
  bool telemetry = false;
  std::string trace_out; // Chrome trace_event JSON (implies telemetry)
  std::string json_out;  // mp5-results JSON
  std::uint64_t checkpoint_interval = 0;
  std::string checkpoint_out;
  std::string restore_from;
  bool self_test = false;
  std::vector<std::string> flags; // every option given, in order
};

Args parse_args(int argc, char** argv) {
  Args args;
  cli::ArgReader in(argc, argv);
  while (in.next()) {
    const std::string& arg = in.arg();
    if (arg.starts_with("--")) args.flags.push_back(arg);
    if (arg == "--builtin") args.builtin = in.value();
    else if (arg == "--design") args.design = in.value();
    else if (arg == "--trace") args.trace_file = in.value();
    else if (arg == "--save-trace") args.save_trace = in.value();
    else if (arg == "--flow-workload") args.flow_workload = true;
    else if (arg == "--rand-fields") in.read(args.rand_bound);
    else if (arg == "--pipelines") in.read(args.pipelines);
    else if (arg == "--staleness") {
      in.read(args.staleness);
      // Δ = 0 is how ReplicatedOptions spells SCR; --design scr asks for
      // that, so --staleness 0 under --design relaxed is a mistake.
      if (args.staleness == 0) {
        throw ConfigError("--staleness must be >= 1 (cycles between "
                          "synchronization boundaries)");
      }
    }
    else if (arg == "--packets") in.read(args.packets);
    else if (arg == "--seed") in.read(args.seed);
    else if (arg == "--load") in.read_positive(args.load);
    else if (arg == "--fifo-capacity") in.read(args.fifo_capacity);
    else if (arg == "--remap") in.read(args.remap);
    else if (arg == "--flow-order")
      args.flow_order_fields = cli::split_csv(in.value());
    else if (arg == "--check-equivalence") args.check_equivalence = true;
    else if (arg == "--timeline") in.read(args.timeline);
    else if (arg == "--fail-pipeline")
      args.faults.pipeline_faults.push_back(cli::parse_fail_spec(in.value()));
    else if (arg == "--phantom-channel") args.phantom_channel = true;
    else if (arg == "--phantom-loss-rate")
      in.read(args.faults.phantom_loss_rate);
    else if (arg == "--phantom-delay-rate")
      in.read(args.faults.phantom_delay_rate);
    else if (arg == "--phantom-delay") in.read(args.faults.phantom_extra_delay);
    else if (arg == "--paranoid") args.paranoid = true;
    else if (arg == "--telemetry") args.telemetry = true;
    else if (arg == "--trace-out") args.trace_out = in.value();
    else if (arg == "--json") args.json_out = in.value();
    else if (arg == "--checkpoint-interval") in.read(args.checkpoint_interval);
    else if (arg == "--checkpoint-out") args.checkpoint_out = in.value();
    else if (arg == "--restore") args.restore_from = in.value();
    else if (arg == "--self-test") args.self_test = true;
    else args.source = in.program();
  }
  if (args.self_test) {
    // The self-test kills a checkpointing child, so it always checkpoints.
    if (args.checkpoint_interval == 0) args.checkpoint_interval = 5000;
    if (args.checkpoint_out.empty()) {
      args.checkpoint_out = "mp5sim.selftest.ckpt";
    }
  }
  return args;
}

/// Flags that only some designs honour, with the designs that accept each.
/// Checked once after parsing, so no design silently ignores a flag.
constexpr const char* kMp5Designs = "mp5|ideal|no-d2|no-d4|naive";
constexpr const char* kCheckpointingDesigns =
    "mp5|ideal|no-d2|no-d4|naive|scr|relaxed";
constexpr std::pair<const char*, const char*> kDesignFlags[] = {
    {"--staleness", "relaxed"},
    {"--fifo-capacity", kMp5Designs},
    {"--remap", kMp5Designs},
    {"--timeline", kMp5Designs},
    {"--fail-pipeline", kMp5Designs},
    {"--phantom-channel", kMp5Designs},
    {"--phantom-loss-rate", kMp5Designs},
    {"--phantom-delay-rate", kMp5Designs},
    {"--phantom-delay", kMp5Designs},
    {"--telemetry", kMp5Designs},
    {"--trace-out", kMp5Designs},
    {"--paranoid", kCheckpointingDesigns},
    {"--checkpoint-interval", kCheckpointingDesigns},
    {"--checkpoint-out", kCheckpointingDesigns},
    {"--restore", kCheckpointingDesigns},
    {"--self-test", kMp5Designs},
};

bool design_in(const std::string& design, const std::string& designs) {
  return ("|" + designs + "|").find("|" + design + "|") != std::string::npos;
}

void validate_design_flags(const Args& args) {
  if (!design_in(args.design, std::string(kCheckpointingDesigns) + "|recirc")) {
    throw ConfigError("unknown design '" + args.design + "'");
  }
  for (const std::string& flag : args.flags) {
    for (const auto& [restricted, designs] : kDesignFlags) {
      if (flag == restricted && !design_in(args.design, designs)) {
        throw ConfigError(flag + " applies to --design " + designs +
                          " only, not " + args.design);
      }
    }
  }
}

/// Up-front checkpoint-flag validation: a 10^8-cycle run must not discover
/// an unwritable checkpoint path at the first interval.
void validate_checkpoint_args(const Args& args) {
  if (args.checkpoint_interval != 0 && args.checkpoint_out.empty()) {
    throw ConfigError(
        "--checkpoint-interval requires --checkpoint-out (nowhere to write "
        "the checkpoints)");
  }
  if (!args.checkpoint_out.empty() && args.checkpoint_interval == 0) {
    throw ConfigError("--checkpoint-out requires --checkpoint-interval");
  }
  // Only the MP5 soak file carries the verifier's frame.
  if (args.check_equivalence && !design_in(args.design, kMp5Designs) &&
      (args.checkpoint_interval != 0 || !args.restore_from.empty())) {
    throw ConfigError("--check-equivalence with --checkpoint-interval or "
                      "--restore applies to --design " +
                      std::string(kMp5Designs) + " only, not " +
                      args.design);
  }
  if (!args.checkpoint_out.empty()) {
    // Probe the same temporary name write_checkpoint_file uses, so the
    // probe exercises the actual write path without clobbering an
    // existing checkpoint.
    const std::string probe_path = args.checkpoint_out + ".tmp";
    std::ofstream probe(probe_path);
    if (!probe) {
      throw ConfigError("--checkpoint-out: cannot write '" +
                        args.checkpoint_out + "'");
    }
    probe.close();
    std::remove(probe_path.c_str());
  }
}

/// The cycle ceiling of an MP5 run: headroom over the arrival span (64
/// cycles per packet at the offered load) so a livelock still ends but no
/// long run trips it, never below SimOptions' default. A stored trace is
/// read once up front for its length and last arrival, and runs at full
/// load from there.
std::uint64_t max_cycles(const Args& args, TraceSource& source) {
  std::uint64_t packets = source.size().value_or(0);
  double last_arrival = 0.0;
  if (!args.trace_file.empty()) {
    packets = 0;
    for (const TraceItem* item; (item = source.peek()) != nullptr;
         source.advance()) {
      ++packets;
      last_arrival = item->arrival_time;
    }
  }
  const double load = args.trace_file.empty() ? args.load : 1.0;
  const double per_packet = 64.0 / std::max(load, 0.01);
  return std::max(SimOptions{}.max_cycles,
                  static_cast<std::uint64_t>(
                      last_arrival + static_cast<double>(packets) * per_packet) +
                      1'000'000);
}

/// Crash-recovery self-test: run uninterrupted for the baseline result,
/// fork a checkpointing child and SIGKILL it once its first checkpoint
/// file lands, then resume from that file in-process. Returns the resumed
/// run's report; throws Error unless its result equals the baseline's
/// field by field.
soak::SoakReport run_self_test(const Mp5Program& program,
                               const soak::SoakOptions& options) {
  // Only the resumed run reports, so only it carries telemetry and the
  // timeline.
  soak::SoakOptions plain = options;
  plain.resume.clear();
  plain.sim.telemetry = nullptr;
  plain.sim.timeline = nullptr;
  std::remove(options.checkpoint_path.c_str());

  std::cout << "[self-test] baseline run (no checkpoints)" << std::endl;
  soak::SoakOptions uninterrupted = plain;
  uninterrupted.checkpoint_interval = 0;
  uninterrupted.checkpoint_path.clear();
  const soak::SoakReport baseline = soak::run_soak(program, uninterrupted);

  std::cout << "[self-test] forking checkpointing child" << std::endl;
  const pid_t child = fork();
  if (child < 0) throw Error("self-test: fork failed");
  if (child == 0) {
    // The parent kills the child mid-run, so the child prints nothing.
    try {
      (void)soak::run_soak(program, plain);
      _exit(0);
    } catch (...) {
      _exit(1);
    }
  }

  // The atomic rename in write_checkpoint_file guarantees the file is a
  // complete checkpoint no matter when the SIGKILL hits.
  bool seen = false;
  for (int spin = 0; spin < 60000 && !seen; ++spin) {
    if (std::FILE* f = std::fopen(options.checkpoint_path.c_str(), "rb")) {
      std::fclose(f);
      seen = true;
    } else if (waitpid(child, nullptr, WNOHANG) == child) {
      throw Error("self-test: child finished before its first checkpoint "
                  "(lower --checkpoint-interval or raise --packets)");
    } else {
      usleep(1000);
    }
  }
  kill(child, SIGKILL);
  waitpid(child, nullptr, 0);
  if (!seen) throw Error("self-test: no checkpoint appeared within 60s");
  std::cout << "[self-test] child SIGKILLed after first checkpoint\n"
            << "[self-test] resuming from " << options.checkpoint_path
            << std::endl;

  soak::SoakOptions resumed = options;
  resumed.resume = options.checkpoint_path;
  soak::SoakReport report = soak::run_soak(program, resumed);
  std::string why;
  if (!same_results(baseline.result, report.result, &why)) {
    throw Error("self-test: recovered result diverged: " + why);
  }
  std::remove(options.checkpoint_path.c_str());
  std::cout << "[self-test] OK: kill/restore reproduced the uninterrupted "
               "run bit-for-bit\n";
  return report;
}

int run(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  validate_design_flags(args);
  validate_checkpoint_args(args);

  // Resolve the program.
  std::string source = args.source;
  FieldFiller filler;
  if (!args.builtin.empty()) {
    apps::AppSpec app = apps::builtin(args.builtin);
    source = std::move(app.source);
    filler = std::move(app.filler);
  }
  if (source.empty()) {
    std::cerr << "usage: mp5sim <file.dom> | --builtin <name> [options]\n";
    return 2;
  }

  TransformOptions topts;
  if (!args.flow_order_fields.empty()) {
    topts.add_flow_order_stage = true;
    topts.flow_fields = args.flow_order_fields;
  }
  const auto ast = domino::parse(source);
  const auto compiled =
      domino::compile(ast, banzai::MachineSpec{}, /*reserve_stages=*/1);
  const Mp5Program program = transform(compiled.pvsm, topts);

  // Resolve the traffic. The run streams it; only the flow workload and
  // --save-trace hold the whole trace in memory.
  SyntheticSpec spec;
  spec.packets = args.packets;
  spec.pipelines = args.pipelines;
  spec.load = args.load;
  spec.field_count = static_cast<std::uint32_t>(ast.fields.size());
  spec.field_bound = args.rand_bound;
  spec.seed = args.seed;
  const bool flow_workload = args.flow_workload && args.trace_file.empty();
  const bool in_memory = flow_workload || !args.save_trace.empty();
  Trace trace;
  if (flow_workload) {
    if (!filler) {
      throw ConfigError("--flow-workload needs a --builtin app (its filler "
                        "maps flows to header fields)");
    }
    FlowWorkloadConfig config;
    config.pipelines = args.pipelines;
    config.packets = args.packets;
    config.seed = args.seed;
    config.load = args.load;
    trace = make_flow_trace(config, filler);
  } else if (in_memory) {
    trace = materialize(*open_traffic(args.trace_file, spec));
  }
  if (!args.save_trace.empty()) save_trace_file(trace, args.save_trace);
  const soak::TrafficOpener traffic = [&]() -> std::unique_ptr<TraceSource> {
    if (in_memory) return std::make_unique<VectorTraceSource>(trace);
    return open_traffic(args.trace_file, spec);
  };

  // Resolve the design and run. The wall clock covers building the
  // simulator and running it, which streams the traffic in and, under
  // --check-equivalence, replays it through the reference alongside; the
  // JSON carries it only in its profile.
  const std::uint64_t cycle_ceiling =
      design_in(args.design, kMp5Designs) ? max_cycles(args, *traffic()) : 0;
  const auto sim_start = std::chrono::steady_clock::now();
  const bool want_telemetry = args.telemetry || !args.trace_out.empty();
  soak::SoakReport report;
  std::unique_ptr<telemetry::Telemetry> telem;
  std::uint32_t staleness = 0; // the relaxed design's Δ as it ran
  // The baseline designs stream their egress into the verifier run_soak
  // attaches to the MP5 designs.
  std::unique_ptr<soak::RollingVerifier> verifier;
  if (args.check_equivalence && !design_in(args.design, kMp5Designs)) {
    verifier = std::make_unique<soak::RollingVerifier>(program.pvsm, traffic());
  }
  if (args.design == "recirc") {
    RecircOptions ropts;
    ropts.pipelines = args.pipelines;
    ropts.seed = args.seed;
    if (verifier) verifier->attach(ropts);
    report.result = RecircSimulator(program, ropts).run(*traffic());
  } else if (args.design == "scr" || args.design == "relaxed") {
    ReplicatedOptions ropts = args.design == "scr"
                                  ? scr_options(args.pipelines)
                                  : relaxed_options(args.pipelines);
    if (args.staleness != 0) ropts.staleness_bound = args.staleness;
    ropts.paranoid_checks = args.paranoid;
    if (verifier) verifier->attach(ropts);
    if (args.checkpoint_interval != 0) {
      ropts.checkpoint_interval = args.checkpoint_interval;
      ropts.checkpoint_sink = [&](Cycle, std::string&& blob) {
        write_checkpoint_file(args.checkpoint_out, blob);
        ++report.checkpoints_written;
      };
    }
    staleness = ropts.staleness_bound;
    ReplicatedSimulator sim(program, ropts);
    const auto packets = traffic();
    if (args.restore_from.empty()) {
      report.result = sim.run(*packets);
    } else {
      const std::string blob = read_checkpoint_file(args.restore_from);
      report.resumed = true;
      report.resumed_from_cycle = parse_checkpoint(blob).cycle;
      report.result = sim.resume(*packets, blob);
    }
  } else {
    soak::SoakOptions sopts;
    sopts.traffic = traffic;
    SimOptions& opts = sopts.sim;
    if (args.design == "mp5") opts = mp5_options(args.pipelines, args.seed);
    else if (args.design == "ideal") opts = ideal_options(args.pipelines, args.seed);
    else if (args.design == "no-d2") opts = no_d2_options(args.pipelines, args.seed);
    else if (args.design == "no-d4") opts = no_d4_options(args.pipelines, args.seed);
    else opts = naive_options(args.pipelines, args.seed);
    opts.fifo_capacity = args.fifo_capacity;
    opts.remap_period = args.remap;
    opts.max_cycles = cycle_ceiling;
    opts.faults = args.faults;
    if (args.phantom_channel) opts.realistic_phantom_channel = true;
    opts.paranoid_checks = args.paranoid;
    if (want_telemetry) {
      telem = std::make_unique<telemetry::Telemetry>();
      opts.telemetry = telem.get();
    }
    std::uint64_t printed = 0;
    if (args.timeline > 0) {
      opts.timeline = [&printed, &args](const TimelineEvent& event) {
        if (printed++ >= args.timeline) return;
        std::cout << "cycle " << event.cycle << "  pipe " << event.pipeline
                  << "  stage " << event.stage << "  " << to_string(event.kind);
        if (event.seq != kInvalidSeqNo) std::cout << "  pkt " << event.seq;
        if (event.arg != 0) std::cout << "  arg " << event.arg;
        std::cout << "\n";
      };
    }
    sopts.checkpoint_interval = args.checkpoint_interval;
    sopts.checkpoint_path = args.checkpoint_out;
    sopts.resume = args.restore_from;
    sopts.verify = args.check_equivalence;
    report = args.self_test ? run_self_test(program, sopts)
                            : soak::run_soak(program, sopts);
  }
  if (verifier) soak::finish_verification(*verifier, report);
  const SimResult& result = report.result;
  if (report.resumed) {
    std::cout << "resumed from cycle " << report.resumed_from_cycle << " ("
              << (args.self_test ? args.checkpoint_out : args.restore_from)
              << ")\n";
  }
  if (args.checkpoint_interval != 0) {
    std::cout << "checkpoints written: " << report.checkpoints_written << " ("
              << args.checkpoint_out << ")\n";
  }
  const double wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - sim_start)
                            .count();

  TextTable table({"metric", "value"});
  table.add_row({"design", args.design});
  table.add_row({"pipelines", TextTable::integer(args.pipelines)});
  table.add_row({"offered", TextTable::integer(
                                static_cast<long long>(result.offered))});
  table.add_row({"egressed", TextTable::integer(
                                 static_cast<long long>(result.egressed))});
  table.add_row({"throughput", TextTable::num(result.normalized_throughput(), 4)});
  table.add_row({"drops (phantom/data/starved/fault)",
                 std::to_string(result.dropped_phantom) + "/" +
                     std::to_string(result.dropped_data) + "/" +
                     std::to_string(result.dropped_starved) + "/" +
                     std::to_string(result.dropped_fault)});
  if (result.pipeline_failures > 0 || result.phantom_lost > 0 ||
      result.phantom_delayed > 0 || result.stalled_cycles > 0) {
    table.add_row({"pipeline failures / recoveries",
                   std::to_string(result.pipeline_failures) + "/" +
                       std::to_string(result.pipeline_recoveries)});
    table.add_row({"fault-remapped indices",
                   TextTable::integer(static_cast<long long>(
                       result.fault_remapped_indices))});
    table.add_row({"phantoms lost / delayed",
                   std::to_string(result.phantom_lost) + "/" +
                       std::to_string(result.phantom_delayed)});
    table.add_row({"stalled cell-cycles",
                   TextTable::integer(
                       static_cast<long long>(result.stalled_cycles))});
    table.add_row({"time to recover (cycles)",
                   TextTable::integer(
                       static_cast<long long>(result.time_to_recover))});
  }
  table.add_row({"C1 violating packets",
                 TextTable::integer(
                     static_cast<long long>(result.c1_violating_packets))});
  table.add_row({"max stage queue", TextTable::integer(static_cast<long long>(
                                        result.max_queue_depth))});
  table.add_row({"steers", TextTable::integer(
                               static_cast<long long>(result.steers))});
  table.add_row({"wasted pops", TextTable::integer(static_cast<long long>(
                                    result.wasted_cycles))});
  table.add_row({"remap moves", TextTable::integer(static_cast<long long>(
                                    result.remap_moves))});
  table.add_row({"recirculations",
                 TextTable::integer(
                     static_cast<long long>(result.recirculations))});
  table.add_row({"cycles", TextTable::integer(
                               static_cast<long long>(result.cycles_run))});
  table.add_row({"wall seconds", TextTable::num(wall_s, 3)});
  table.add_row({"sim cycles/s",
                 TextTable::integer(static_cast<long long>(
                     wall_s > 0 ? static_cast<double>(result.cycles_run) / wall_s
                                : 0.0))});
  table.print(std::cout);
  std::cout << telemetry::host_build_line() << "\nresult digest: "
            << telemetry::digest_hex(result_digest(result)) << "\n";

  if (!args.json_out.empty()) {
    std::ofstream out(args.json_out);
    if (!out) {
      throw ConfigError("--json: cannot open '" + args.json_out +
                        "' for writing");
    }
    telemetry::RunMeta meta;
    meta.design = args.design;
    if (args.design == "scr" || args.design == "relaxed") {
      meta.variant = args.design;
      meta.staleness = staleness;
    }
    meta.program = !args.builtin.empty() ? args.builtin : "custom";
    meta.pipelines = args.pipelines;
    meta.packets = result.offered;
    meta.seed = args.seed;
    meta.load = args.load;
    telemetry::write_results_json(out, meta, result, telem.get(), wall_s);
    std::cout << "results json: " << args.json_out << "\n";
  }
  if (!args.trace_out.empty()) {
    std::ofstream out(args.trace_out);
    if (!out) {
      throw ConfigError("--trace-out: cannot open '" + args.trace_out +
                        "' for writing");
    }
    telemetry::write_chrome_trace(out, *telem);
    std::cout << "chrome trace: " << args.trace_out << " ("
              << telem->events().size() << " events retained, "
              << telem->events().dropped() << " dropped)\n";
  }

  if (report.verify_ran) {
    // Verified up to the first fault-dropped packet that changed state
    // counts as equivalent: the packets after it have no reference state
    // to compare against.
    const bool ok = report.verified ||
                    (report.truncated && report.equivalence.packets_equal);
    std::cout << "verified " << report.verified_packets
              << " packets (window peak " << report.verify_window_peak
              << ")\nfunctional equivalence: " << (ok ? "OK" : "VIOLATED")
              << "\n";
    if (!report.verified) {
      std::cout << "  " << report.equivalence.first_difference << "\n";
    }
    if (!ok) return 1;
  }
  return 0;
}

} // namespace

int main(int argc, char** argv) {
  return mp5::cli::run_main("mp5sim", run, argc, argv);
}
