// mp5soak — billion-packet soak driver with crash recovery.
//
// Streams packets from the deterministic synthetic generator (or a trace
// file) through the MP5 simulator with rolling equivalence verification,
// periodic whole-state checkpoints, and an enforced RSS ceiling. A killed
// soak resumes from its last checkpoint and must finish with the same
// SimResult as an uninterrupted run — --self-test proves exactly that by
// SIGKILLing a child mid-run.
//
// Usage (each example is one command line, wrapped here):
//   mp5soak --packets 100000000 --checkpoint-interval 200000
//           --checkpoint-out soak.ckpt --rss-limit-kib 524288
//   mp5soak --resume --packets 100000000 --checkpoint-interval 200000
//           --checkpoint-out soak.ckpt
//   mp5soak --self-test --packets 2000000
//
// Program source (default: the synthetic sensitivity program):
//   <file.dom> | --builtin <name> | --synthetic-stages N
// Traffic:
//   --trace FILE        stream a .trace.csv trace (in admission order:
//                       arrival_time, then port)
//   --packets N         synthetic generator length (default 10^7)
//   --load F            offered load vs aggregate line rate (default 0.9;
//                       sustained overload grows the in-switch backlog and
//                       with it RSS — the flat-memory contract assumes the
//                       switch can keep up)
//   --flows N --field-bound B --seed S
// Simulator:
//   --pipelines K --fifo-capacity N --remap N --paranoid
//   --max-cycles N      override the derived safety ceiling
//   --fail-pipeline P@CYCLE[:RECOVER]   fault plan entry (repeatable)
// Soak mode:
//   --checkpoint-interval N  checkpoint every N cycles (0 = off)
//   --checkpoint-out FILE    combined simulator+verifier checkpoint file
//   --resume                 restore from --checkpoint-out and continue
//   --no-verify              disable rolling verification
//   --verify-window N        pending-fate cap (default 2^20)
//   --rss-limit-kib N        abort if VmRSS exceeds N KiB at a checkpoint
//   --self-test              fork a checkpointing child, SIGKILL it after
//                            its first checkpoint, resume from the file,
//                            and require the SimResult to be identical to
//                            an uninterrupted run
//
// The report prints `result digest: 0x<16 hex>`, result_digest() of the
// run's SimResult: a resumed soak prints its uninterrupted run's line.
#include <csignal>
#include <iostream>
#include <string>

#include <sys/wait.h>
#include <unistd.h>

#include "apps/programs.hpp"
#include "cli.hpp"
#include "domino/compiler.hpp"
#include "domino/parser.hpp"
#include "metrics/sim_result.hpp"
#include "mp5/transform.hpp"
#include "soak/soak_runner.hpp"
#include "telemetry/run_envelope.hpp"

namespace {

using namespace mp5;

struct Args {
  std::string source;
  std::string builtin;
  std::uint32_t synthetic_stages = 4;
  soak::SoakOptions soak;
  std::uint64_t max_cycles_override = 0;
  bool self_test = false;
};

Args parse_args(int argc, char** argv) {
  Args args;
  args.soak.synthetic.packets = 10'000'000;
  // A soak's flat-memory contract holds only when the offered load stays
  // below the switch's sustainable service rate (~0.97 of aggregate line
  // rate for the default program). At exactly 1.0 the backlog random-walks
  // upward and in-flight packets — and therefore RSS and checkpoint size —
  // grow with the trace length. Default to a sustainable 0.9; --load can
  // still push into overload deliberately.
  args.soak.synthetic.load = 0.9;
  cli::ArgReader in(argc, argv);
  while (in.next()) {
    const std::string& arg = in.arg();
    if (arg == "--builtin") args.builtin = in.value();
    else if (arg == "--synthetic-stages") in.read(args.synthetic_stages);
    else if (arg == "--trace") args.soak.trace_path = in.value();
    else if (arg == "--packets") in.read(args.soak.synthetic.packets);
    else if (arg == "--load") in.read_positive(args.soak.synthetic.load);
    else if (arg == "--flows") in.read(args.soak.synthetic.flows);
    else if (arg == "--field-bound") in.read(args.soak.synthetic.field_bound);
    else if (arg == "--seed") {
      in.read(args.soak.sim.seed);
      args.soak.synthetic.seed = args.soak.sim.seed;
    }
    else if (arg == "--pipelines") {
      in.read(args.soak.sim.pipelines);
      args.soak.synthetic.pipelines = args.soak.sim.pipelines;
    }
    else if (arg == "--fifo-capacity") in.read(args.soak.sim.fifo_capacity);
    else if (arg == "--remap") in.read(args.soak.sim.remap_period);
    else if (arg == "--paranoid") args.soak.sim.paranoid_checks = true;
    else if (arg == "--max-cycles") in.read(args.max_cycles_override);
    else if (arg == "--fail-pipeline")
      args.soak.sim.faults.pipeline_faults.push_back(
          cli::parse_fail_spec(in.value()));
    else if (arg == "--checkpoint-interval")
      in.read(args.soak.checkpoint_interval);
    else if (arg == "--checkpoint-out") args.soak.checkpoint_path = in.value();
    else if (arg == "--resume") args.soak.resume = true;
    else if (arg == "--no-verify") args.soak.verify = false;
    else if (arg == "--verify-window") in.read(args.soak.verify_window);
    else if (arg == "--rss-limit-kib") in.read(args.soak.rss_limit_kib);
    else if (arg == "--self-test") args.self_test = true;
    else args.source = in.program();
  }
  if (args.soak.checkpoint_interval != 0 && args.soak.checkpoint_path.empty()) {
    throw ConfigError(
        "--checkpoint-interval requires --checkpoint-out (nowhere to write "
        "the checkpoints)");
  }
  if (args.soak.resume && args.soak.checkpoint_path.empty()) {
    throw ConfigError("--resume requires --checkpoint-out");
  }
  return args;
}

Mp5Program resolve_program(Args& args) {
  std::string source = args.source;
  if (!args.builtin.empty()) source = apps::builtin(args.builtin).source;
  if (source.empty()) {
    source = apps::make_synthetic_source(args.synthetic_stages, 1024);
  }
  const auto ast = domino::parse(source);
  // The synthetic generator must fill every declared field.
  args.soak.synthetic.field_count =
      static_cast<std::uint32_t>(ast.fields.size());
  return transform(
      domino::compile(ast, banzai::MachineSpec{}, /*reserve_stages=*/1).pvsm);
}

/// Safety ceiling for the cycle loop: generous headroom over the arrival
/// span so a genuine livelock still terminates, but a full soak never
/// trips it. Only derivable when the stream length is known.
void derive_max_cycles(Args& args) {
  if (args.max_cycles_override != 0) {
    args.soak.sim.max_cycles = args.max_cycles_override;
    return;
  }
  const auto source = open_traffic(args.soak.trace_path, args.soak.synthetic);
  if (const auto total = source->size()) {
    const double load =
        args.soak.trace_path.empty() ? args.soak.synthetic.load : 1.0;
    const double per_packet = 64.0 / (load < 0.01 ? 0.01 : load);
    args.soak.sim.max_cycles =
        static_cast<std::uint64_t>(static_cast<double>(*total) * per_packet) +
        1'000'000;
  }
}

void print_report(const soak::SoakReport& report) {
  const SimResult& r = report.result;
  std::cout << "offered " << r.offered << "  egressed " << r.egressed
            << "  fault-dropped " << r.dropped_fault << "  cycles "
            << r.cycles_run << "\n"
            << "throughput " << r.normalized_throughput() << "\n"
            << "result digest: " << telemetry::digest_hex(result_digest(r))
            << "\n";
  if (report.resumed) {
    std::cout << "resumed from cycle " << report.resumed_from_cycle << "\n";
  }
  if (report.checkpoints_written > 0) {
    std::cout << "checkpoints written: " << report.checkpoints_written << "\n";
  }
  std::cout << "rss " << report.rss_kib << " KiB (peak " << report.peak_rss_kib
            << " KiB)\n";
  if (report.verify_ran) {
    std::cout << "verified " << report.verified_packets
              << " packets (window peak " << report.verify_window_peak << ")";
    if (report.truncated) {
      std::cout << " — truncated: " << report.equivalence.first_difference;
    } else if (!report.verified) {
      std::cout << " — VIOLATION: " << report.equivalence.first_difference;
    } else {
      std::cout << " — OK";
    }
    std::cout << "\n";
  }
}

/// Success = fully verified, or verified up to a state-touching fault
/// drop with no mismatch before the truncation point.
bool verification_ok(const soak::SoakReport& report) {
  if (!report.verify_ran) return true;
  if (report.verified) return true;
  return report.truncated && report.equivalence.packets_equal;
}

int run_once(const Mp5Program& program, const Args& args) {
  const soak::SoakReport report = soak::run_soak(program, args.soak);
  print_report(report);
  return verification_ok(report) ? 0 : 2;
}

/// Crash-recovery self-test: run the soak uninterrupted for the baseline
/// SimResult, then fork a checkpointing child and SIGKILL it once its
/// first checkpoint file lands, resume from that file in-process, and
/// require the recovered SimResult to match the baseline field-by-field.
int run_self_test(const Mp5Program& program, const Args& args) {
  Args cfg = args;
  if (cfg.soak.checkpoint_path.empty()) {
    cfg.soak.checkpoint_path = "mp5soak.selftest.ckpt";
  }
  if (cfg.soak.checkpoint_interval == 0) {
    cfg.soak.checkpoint_interval = 5000;
  }
  std::remove(cfg.soak.checkpoint_path.c_str());

  std::cout << "[self-test] baseline run (no checkpoints)\n";
  soak::SoakOptions baseline_opts = cfg.soak;
  baseline_opts.checkpoint_interval = 0;
  baseline_opts.checkpoint_path.clear();
  baseline_opts.resume = false;
  const soak::SoakReport baseline = soak::run_soak(program, baseline_opts);

  std::cout << "[self-test] forking checkpointing child\n";
  const pid_t child = fork();
  if (child < 0) throw Error("self-test: fork failed");
  if (child == 0) {
    // Child: a plain checkpointing soak. Output is suppressed — the
    // parent kills us mid-run and partial output would interleave.
    soak::SoakOptions child_opts = cfg.soak;
    child_opts.resume = false;
    try {
      (void)soak::run_soak(program, child_opts);
      _exit(0);
    } catch (...) {
      _exit(1);
    }
  }

  // Wait for the first checkpoint to land, then kill the child without
  // warning. The atomic rename in write_checkpoint_file guarantees the
  // file is a complete checkpoint no matter when the SIGKILL hits.
  bool seen = false;
  for (int spin = 0; spin < 60000; ++spin) {
    std::FILE* f = std::fopen(cfg.soak.checkpoint_path.c_str(), "rb");
    if (f != nullptr) {
      std::fclose(f);
      seen = true;
      break;
    }
    int status = 0;
    if (waitpid(child, &status, WNOHANG) == child) {
      throw Error("self-test: child finished before its first checkpoint "
                  "(lower --checkpoint-interval or raise --packets)");
    }
    usleep(1000);
  }
  if (!seen) {
    kill(child, SIGKILL);
    waitpid(child, nullptr, 0);
    throw Error("self-test: no checkpoint appeared within 60s");
  }
  kill(child, SIGKILL);
  int status = 0;
  waitpid(child, &status, 0);
  std::cout << "[self-test] child SIGKILLed after first checkpoint\n";

  std::cout << "[self-test] resuming from " << cfg.soak.checkpoint_path
            << "\n";
  soak::SoakOptions resume_opts = cfg.soak;
  resume_opts.resume = true;
  const soak::SoakReport recovered = soak::run_soak(program, resume_opts);
  print_report(recovered);

  std::string why;
  if (!same_results(baseline.result, recovered.result, &why)) {
    std::cout << "[self-test] FAIL: recovered result diverged: " << why
              << "\n";
    return 2;
  }
  if (!verification_ok(recovered)) {
    std::cout << "[self-test] FAIL: rolling verification: "
              << recovered.equivalence.first_difference << "\n";
    return 2;
  }
  std::remove(cfg.soak.checkpoint_path.c_str());
  std::cout << "[self-test] OK: kill/restore reproduced the uninterrupted "
               "run bit-for-bit\n";
  return 0;
}

int run(int argc, char** argv) {
  Args args = parse_args(argc, argv);
  const Mp5Program program = resolve_program(args);
  derive_max_cycles(args);
  if (args.self_test) return run_self_test(program, args);
  return run_once(program, args);
}

} // namespace

int main(int argc, char** argv) {
  return mp5::cli::run_main("mp5soak", run, argc, argv);
}
