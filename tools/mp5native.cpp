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
//   --json file.json   write the mp5-native-results v1 document
//   --quiet            suppress the human-readable table
#include <fstream>
#include <iostream>
#include <memory>
#include <thread>

#include "apps/programs.hpp"
#include "cli.hpp"
#include "common/table.hpp"
#include "domino/ast_interp.hpp"
#include "domino/compiler.hpp"
#include "domino/parser.hpp"
#include "mp5/transform.hpp"
#include "metrics/equivalence.hpp"
#include "native/backend.hpp"
#include "telemetry/json_writer.hpp"
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

void write_json(std::ostream& out, const Args& args,
                const std::string& program_name,
                const native::NativeResult& result, bool oracle_checked,
                bool oracle_equivalent) {
  telemetry::JsonWriter json(out);
  json.begin_object();
  json.kv("schema", "mp5-native-results");
  json.kv("schema_version", std::uint64_t{1});
  json.key("meta").begin_object();
  json.kv("program", program_name);
  json.kv("cores", args.native.workers);
  json.kv("batch", args.native.batch);
  json.kv("ring_capacity", args.native.ring_capacity);
  json.kv("pool_packets", args.native.pool_packets);
  json.kv("policy", to_string(args.native.policy));
  json.kv("rebalance_packets", args.native.rebalance_packets);
  json.kv("seed", args.seed);
  json.kv("pinned", args.native.pin_threads);
  json.kv("hardware_concurrency",
          static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  json.end_object();
  json.key("throughput").begin_object();
  json.kv("packets", result.packets);
  json.kv("seconds", result.seconds);
  json.kv("pkts_per_sec", result.pkts_per_sec);
  json.end_object();
  json.key("sharding").begin_object();
  json.kv("policy", to_string(args.native.policy));
  json.kv("moves", result.shard_moves);
  json.kv("rebalances", result.rebalances);
  json.end_object();
  json.key("profiler").begin_object();
  json.key("workers").begin_array();
  for (const auto& w : result.profile.workers) {
    json.begin_object();
    json.kv("hops", w.hops);
    json.kv("stages", w.stages);
    json.kv("accesses", w.accesses);
    json.kv("forwards", w.forwards);
    json.kv("parks", w.parks);
    json.kv("idle_spins", w.idle_spins);
    json.kv("busy_ns", w.busy_ns);
    json.kv("idle_ns", w.idle_ns);
    json.end_object();
  }
  json.end_array();
  const auto& d = result.profile.dispatcher;
  json.key("dispatcher").begin_object();
  json.kv("admitted", d.admitted);
  json.kv("reaped", d.reaped);
  json.kv("idle_spins", d.idle_spins);
  json.kv("pool_full", d.pool_full);
  json.kv("busy_ns", d.busy_ns);
  json.kv("idle_ns", d.idle_ns);
  json.end_object();
  json.key("registers").begin_array();
  for (const auto& r : result.profile.registers) {
    json.begin_object();
    json.kv("name", r.name);
    json.kv("claimed", r.claimed);
    json.kv("performed", r.performed);
    json.kv("remote", r.remote);
    json.kv("parks", r.parks);
    json.kv("busiest_owner", r.busiest_owner);
    json.kv("busiest_owner_accesses", r.busiest_owner_accesses);
    json.kv("owner_share", r.owner_share);
    json.end_object();
  }
  json.end_array();
  json.key("serializing_register");
  if (result.profile.serializing_register.empty()) json.null();
  else json.value(result.profile.serializing_register);
  json.kv("serial_fraction", result.profile.serial_fraction);
  json.end_object();
  json.key("oracle").begin_object();
  json.kv("checked", oracle_checked);
  json.key("equivalent");
  if (oracle_checked) json.value(oracle_equivalent);
  else json.null();
  json.end_object();
  json.end_object();
  out << "\n";
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
  const std::uint32_t cpus = native::usable_cpus();
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
        regs.add_row({r.name,
                      TextTable::integer(static_cast<long long>(r.claimed)),
                      TextTable::integer(
                          static_cast<long long>(r.performed)),
                      TextTable::integer(static_cast<long long>(r.remote)),
                      TextTable::integer(static_cast<long long>(r.parks)),
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
  }

  if (!args.json_out.empty()) {
    std::ofstream out(args.json_out);
    if (!out) {
      throw ConfigError("--json: cannot open '" + args.json_out +
                        "' for writing");
    }
    write_json(out, args, program_name, result, args.check,
               check.equivalent());
    if (!args.quiet) std::cout << "results json: " << args.json_out << "\n";
  }

  return args.check && !check.equivalent() ? 1 : 0;
}

} // namespace

int main(int argc, char** argv) {
  return mp5::cli::run_main("mp5native", run, argc, argv);
}
