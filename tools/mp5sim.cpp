// mp5sim — run an MP5 (or baseline) simulation from the command line.
//
// Usage:
//   mp5sim --builtin flowlet --pipelines 4
//   mp5sim program.dom --trace trace.csv --design no-d4
//   mp5sim --builtin counter --packets 5000 --check-equivalence
//
// Program source:
//   <file.dom> | --builtin <name>      (see mp5c --list)
// Traffic (choose one):
//   --trace file.csv                   replay a stored trace (in admission
//                                      order: arrival_time, then port)
//   --flow-workload                    §4.4 web-search flows (uses the
//                                      builtin's field filler; builtin only)
//   --rand-fields B                    the synthetic stream mp5native and
//                                      mp5soak use, fields uniform in
//                                      [0, B) (default, B=1024)
// Options:
//   --design mp5|ideal|no-d2|no-d4|naive|recirc|scr|relaxed  (default mp5)
//                           mp5..naive are the MP5 designs; scr and relaxed
//                           are the replicated-state baselines
//   --staleness N           synchronization period Δ in cycles for
//                           --design relaxed (default 64)
//   --pipelines K  --packets N  --seed S  --load F  --flow-order f1,f2
//   --fifo-capacity N  --remap N          (MP5 designs only)
//   --check-equivalence     verify vs the single-pipeline reference
//   --save-trace file.csv   store the generated trace
// A flag the chosen design does not honour is rejected, naming the flag
// and the design (kDesignFlags below lists which designs take which flag).
// Checkpoint/restore (MP5 and replicated designs; see DESIGN.md "Soak &
// crash recovery"):
//   --checkpoint-interval N write an mp5-checkpoint v1 file every N
//                           cycles (requires --checkpoint-out)
//   --checkpoint-out FILE   checkpoint destination (atomically replaced
//                           at each interval; path validated up front)
//   --restore FILE          resume from a checkpoint instead of starting
//                           fresh — rerun with the *same* program, trace
//                           and semantic flags (the config fingerprint is
//                           enforced, the trace identity cannot be)
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
#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>
#include <utility>

#include "apps/programs.hpp"
#include "banzai/single_pipeline.hpp"
#include "baseline/presets.hpp"
#include "baseline/recirc.hpp"
#include "baseline/replicated.hpp"
#include "cli.hpp"
#include "common/table.hpp"
#include "domino/compiler.hpp"
#include "domino/parser.hpp"
#include "metrics/equivalence.hpp"
#include "mp5/checkpoint.hpp"
#include "mp5/simulator.hpp"
#include "mp5/transform.hpp"
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
    else args.source = in.program();
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

  // Resolve the traffic.
  Trace trace;
  if (args.flow_workload && args.trace_file.empty()) {
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
  } else {
    SyntheticSpec spec;
    spec.packets = args.packets;
    spec.pipelines = args.pipelines;
    spec.load = args.load;
    spec.field_count = static_cast<std::uint32_t>(ast.fields.size());
    spec.field_bound = args.rand_bound;
    spec.seed = args.seed;
    trace = materialize(*open_traffic(args.trace_file, spec));
  }
  if (!args.save_trace.empty()) save_trace_file(trace, args.save_trace);

  // Resolve the design and run. The wall clock covers building the
  // simulator and running it; the JSON carries it only in its profile.
  const auto sim_start = std::chrono::steady_clock::now();
  const bool want_telemetry = args.telemetry || !args.trace_out.empty();
  SimResult result;
  std::unique_ptr<telemetry::Telemetry> telem;
  std::uint64_t checkpoints_written = 0;
  auto checkpoint_sink = [&](Cycle, std::string&& blob) {
    write_checkpoint_file(args.checkpoint_out, blob);
    ++checkpoints_written;
  };
  std::string restore_blob;
  if (!args.restore_from.empty()) {
    restore_blob = read_checkpoint_file(args.restore_from);
    std::cout << "resumed from cycle " << parse_checkpoint(restore_blob).cycle
              << " (" << args.restore_from << ")\n";
  }
  std::uint32_t staleness = 0; // the relaxed design's Δ as it ran
  if (args.design == "recirc") {
    RecircOptions ropts;
    ropts.pipelines = args.pipelines;
    ropts.seed = args.seed;
    ropts.record_egress = args.check_equivalence;
    RecircSimulator sim(program, ropts);
    result = sim.run(trace);
  } else if (args.design == "scr" || args.design == "relaxed") {
    ReplicatedOptions ropts = args.design == "scr"
                                  ? scr_options(args.pipelines)
                                  : relaxed_options(args.pipelines);
    if (args.staleness != 0) ropts.staleness_bound = args.staleness;
    ropts.record_egress = args.check_equivalence;
    ropts.paranoid_checks = args.paranoid;
    if (args.checkpoint_interval != 0) {
      ropts.checkpoint_interval = args.checkpoint_interval;
      ropts.checkpoint_sink = checkpoint_sink;
    }
    staleness = ropts.staleness_bound;
    ReplicatedSimulator sim(program, ropts);
    result = restore_blob.empty() ? sim.run(trace)
                                  : sim.resume(trace, restore_blob);
  } else {
    SimOptions opts;
    if (args.design == "mp5") opts = mp5_options(args.pipelines, args.seed);
    else if (args.design == "ideal") opts = ideal_options(args.pipelines, args.seed);
    else if (args.design == "no-d2") opts = no_d2_options(args.pipelines, args.seed);
    else if (args.design == "no-d4") opts = no_d4_options(args.pipelines, args.seed);
    else opts = naive_options(args.pipelines, args.seed);
    opts.fifo_capacity = args.fifo_capacity;
    opts.remap_period = args.remap;
    opts.record_egress = args.check_equivalence;
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
    if (args.checkpoint_interval != 0) {
      opts.checkpoint_interval = args.checkpoint_interval;
      opts.checkpoint_sink = checkpoint_sink;
    }
    Mp5Simulator sim(program, opts);
    VectorTraceSource source(trace);
    result = restore_blob.empty() ? sim.run(trace)
                                  : sim.resume(source, restore_blob);
  }
  if (args.checkpoint_interval != 0) {
    std::cout << "checkpoints written: " << checkpoints_written << " ("
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
    meta.packets = trace.size();
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

  if (args.check_equivalence) {
    banzai::ReferenceSwitch reference(program.pvsm);
    const auto ref =
        reference.run(to_header_batch(trace, program.pvsm));
    const auto report = check_equivalence(program.pvsm, ref, result);
    std::cout << "functional equivalence: "
              << (report.equivalent() ? "OK" : "VIOLATED") << "\n";
    if (!report.equivalent()) {
      std::cout << "  " << report.first_difference << "\n";
      if (result.dropped_fault > 0) {
        std::cout << "  note: " << result.dropped_fault
                  << " packets were dropped by injected faults; the "
                     "reference processes the full trace, so mismatches "
                     "are expected (equivalence modulo the declared drop "
                     "set is what the fault tests check)\n";
      }
      return 1;
    }
  }
  return 0;
}

} // namespace

int main(int argc, char** argv) {
  return mp5::cli::run_main("mp5sim", run, argc, argv);
}
