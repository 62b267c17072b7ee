// mp5native — run a compiled Domino/PVSM program natively on CPU cores
// and report real packets per second (the NFOS-style multicore backend;
// see DESIGN.md "Native multicore backend").
//
// Usage:
//   mp5native --builtin counter --cores 4 --packets 1000000
//   mp5native program.dom --trace trace.csv --cores 2 --check
//   mp5native --builtin flowlet --cores 8 --profile --json out.json
//
// Program source:
//   <file.dom> | --builtin <name>      (see mp5c --list)
// Traffic (choose one):
//   --trace file.csv                   replay a stored trace (in admission
//                                      order: arrival_time, then port)
//   synthetic (default):  --packets N  --rand-fields B  --flows F
// Options:
//   --cores K          worker threads / state shards   (default 1)
//   --batch N          ring push/pop batch             (default 32)
//   --ring-capacity N  per-ring slots                  (default 1024)
//   --pool N           in-flight packet window         (default 8192)
//   --policy dynamic|static-random|single-pipeline|ideal-lpt
//                      shard placement policy          (default dynamic)
//   --rebalance N      reshard every N packets         (default 8192)
//   --seed S  --load F
//   --no-pin           don't pin workers to cores
//   --check            verify egress + final state vs the AstInterp oracle
//   --profile          per-worker and dispatcher busy/idle accounting +
//                      register table
//   --json file.json   write the mp5-native-results document
//   --quiet            suppress the human-readable table
//
// The table ends with the host/build line and `result digest: 0x<16 hex>`
// (native_result_digest): one digest for every --cores and --policy.
#include <fstream>
#include <iostream>
#include <memory>

#include "apps/programs.hpp"
#include "cli.hpp"
#include "common/host.hpp"
#include "common/table.hpp"
#include "domino/ast_interp.hpp"
#include "domino/compiler.hpp"
#include "domino/parser.hpp"
#include "mp5/transform.hpp"
#include "metrics/equivalence.hpp"
#include "native/backend.hpp"
#include "native/results.hpp"
#include "telemetry/run_envelope.hpp"
#include "trace/trace_source.hpp"

namespace {

using namespace mp5;

struct Args {
  std::string source;
  std::string program_name = "custom";
  std::string builtin;
  std::string trace_file;
  std::uint64_t packets = 100000;
  Value rand_bound = 1024;
  std::uint64_t flows = 64;
  std::uint64_t seed = 1;
  double load = 1.0;
  native::NativeOptions native;
  bool check = false;
  bool quiet = false;
  std::string json_out;
};

Args parse_args(int argc, char** argv) {
  Args args;
  cli::ArgReader in(argc, argv);
  while (in.next()) {
    const std::string& arg = in.arg();
    if (arg == "--builtin") args.builtin = in.value();
    else if (arg == "--trace") args.trace_file = in.value();
    else if (arg == "--packets") in.read(args.packets);
    else if (arg == "--rand-fields") in.read(args.rand_bound);
    else if (arg == "--flows") in.read(args.flows);
    else if (arg == "--seed") in.read(args.seed);
    else if (arg == "--load") in.read_positive(args.load);
    else if (arg == "--cores") in.read(args.native.workers);
    else if (arg == "--batch") in.read(args.native.batch);
    else if (arg == "--ring-capacity") in.read(args.native.ring_capacity);
    else if (arg == "--pool") in.read(args.native.pool_packets);
    else if (arg == "--policy")
      args.native.policy = sharding_from_string(in.value());
    else if (arg == "--rebalance") in.read(args.native.rebalance_packets);
    else if (arg == "--no-pin") args.native.pin_threads = false;
    else if (arg == "--check") args.check = true;
    else if (arg == "--profile") args.native.profile = true;
    else if (arg == "--json") args.json_out = in.value();
    else if (arg == "--quiet") args.quiet = true;
    else {
      args.source = in.program();
      args.program_name = arg;
    }
  }
  args.native.seed = args.seed;
  return args;
}

int run(int argc, char** argv) {
  const Args args = parse_args(argc, argv);

  std::string source = args.source;
  std::string program_name = args.program_name;
  if (!args.builtin.empty()) {
    source = apps::builtin(args.builtin).source;
    program_name = args.builtin;
  }
  if (source.empty()) {
    std::cerr << "usage: mp5native <file.dom> | --builtin <name> [options]\n";
    return 2;
  }

  if (args.native.workers < 1) {
    throw ConfigError("--cores must be >= 1");
  }
  const std::uint32_t cpus = host::usable_cpus();
  if (cpus != 0 && args.native.workers > cpus) {
    std::cerr << "mp5native: warning: --cores " << args.native.workers
              << " exceeds the " << cpus
              << " CPU(s) this process may run on; workers will time-share "
                 "cores and throughput numbers will not reflect scaling\n";
  }

  const auto ast = domino::parse(source);
  const auto compiled =
      domino::compile(ast, banzai::MachineSpec{}, /*reserve_stages=*/1);
  const Mp5Program program = transform(compiled.pvsm);

  native::NativeOptions nopts = args.native;
  nopts.record_egress = args.check;

  // Resolve traffic. The oracle needs the materialized trace; pure
  // throughput runs stream it.
  SyntheticSpec spec;
  spec.packets = args.packets;
  spec.pipelines = args.native.workers;
  spec.load = args.load;
  spec.field_count = static_cast<std::uint32_t>(ast.fields.size());
  spec.field_bound = args.rand_bound;
  spec.flows = args.flows;
  spec.seed = args.seed;
  std::unique_ptr<TraceSource> traffic = open_traffic(args.trace_file, spec);
  Trace trace;
  if (args.check) {
    trace = materialize(*traffic);
    traffic = std::make_unique<VectorTraceSource>(trace);
  }

  native::NativeBackend backend(program, nopts);
  const native::NativeResult result = backend.run(*traffic);

  EquivalenceReport check;
  if (args.check) {
    domino::AstInterp oracle(ast);
    check = check_equivalence(program.pvsm,
                              domino::replay(oracle, program.pvsm, trace),
                              result.final_registers, result.egress_fields);
  }

  if (!args.quiet) {
    TextTable table({"metric", "value"});
    table.add_row({"program", program_name});
    table.add_row({"cores", TextTable::integer(args.native.workers)});
    table.add_row({"policy", to_string(args.native.policy)});
    table.add_row({"packets", TextTable::integer(
                                  static_cast<long long>(result.packets))});
    table.add_row({"seconds", TextTable::num(result.seconds, 4)});
    table.add_row({"pkts/s", TextTable::num(result.pkts_per_sec, 0)});
    table.add_row({"shard moves / rebalances",
                   std::to_string(result.shard_moves) + "/" +
                       std::to_string(result.rebalances)});
    if (!result.profile.serializing_register.empty()) {
      table.add_row({"serializing register",
                     result.profile.serializing_register + " (" +
                         TextTable::num(result.profile.serial_fraction, 3) +
                         " of packets via one core)"});
    }
    table.print(std::cout);

    if (args.native.profile) {
      const auto count = [](std::uint64_t v) {
        return TextTable::integer(static_cast<long long>(v));
      };
      const auto busy_pct = [](std::uint64_t busy_ns, std::uint64_t idle_ns) {
        const double total =
            static_cast<double>(busy_ns) + static_cast<double>(idle_ns);
        return TextTable::num(total > 0 ? 100.0 * busy_ns / total : 0.0, 1);
      };
      TextTable workers({"worker", "hops", "accesses", "forwards", "parks",
                         "idle iters", "pool full", "busy%"});
      for (std::size_t w = 0; w < result.profile.workers.size(); ++w) {
        const auto& s = result.profile.workers[w];
        workers.add_row({count(w), count(s.hops), count(s.accesses),
                         count(s.forwards), count(s.parks),
                         count(s.idle_spins), "-",
                         busy_pct(s.busy_ns, s.idle_ns)});
      }
      // The dispatcher's "hops" are the packets it admitted (first hops).
      const auto& d = result.profile.dispatcher;
      workers.add_row({"dispatcher", count(d.admitted), "-", "-", "-",
                       count(d.idle_spins), count(d.pool_full),
                       busy_pct(d.busy_ns, d.idle_ns)});
      workers.print(std::cout);
      TextTable regs({"register", "claimed", "performed", "remote", "parks",
                      "owner share"});
      for (const auto& r : result.profile.registers) {
        regs.add_row({r.name, count(r.claimed), count(r.performed),
                      count(r.remote), count(r.parks),
                      TextTable::num(r.owner_share, 3)});
      }
      regs.print(std::cout);
    }
    if (args.check) {
      std::cout << "oracle equivalence: "
                << (check.equivalent() ? "OK" : "VIOLATED") << "\n";
      if (!check.equivalent()) {
        std::cout << "  " << check.first_difference << "\n";
      }
    }
    std::cout << telemetry::host_build_line() << "\nresult digest: "
              << telemetry::digest_hex(
                     native::native_result_digest(program.pvsm, result))
              << "\n";
  }

  if (!args.json_out.empty()) {
    std::ofstream out(args.json_out);
    if (!out) {
      throw ConfigError("--json: cannot open '" + args.json_out +
                        "' for writing");
    }
    native::write_native_results_json(out, program_name, program.pvsm,
                                      args.native, result,
                                      args.check ? &check : nullptr);
    if (!args.quiet) std::cout << "results json: " << args.json_out << "\n";
  }

  return args.check && !check.equivalent() ? 1 : 0;
}

} // namespace

int main(int argc, char** argv) {
  return mp5::cli::run_main("mp5native", run, argc, argv);
}
