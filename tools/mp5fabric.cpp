// mp5fabric — run a leaf–spine Clos fabric of MP5 switches end to end.
//
// Usage:
//   mp5fabric --leaves 4 --spines 2 --lb conga --flows 100000
//   mp5fabric --lb flowlet --kill-switch spine1@20000 --json out.json
//
// Topology:
//   --leaves N  --spines M  --hosts-per-leaf H        (default 4 x 2 x 16)
//   --link-latency L          per-link propagation, cycles (default 8)
//   --link-bytes-per-cycle B  per-link capacity (default 64)
//   --spine-weights w0,w1,... WCMP weight per spine (default equal)
// Load balancing (at the leaves):
//   --lb ecmp|wcmp|flowlet|conga                      (default conga)
//   --hash addresses|addresses-ports|five-tuple       (ecmp/wcmp tuple)
//   --salt S                  ECMP/WCMP hash salt
// Workload (millions of concurrent flows; all seeded):
//   --flows N                 total flows (default 20000)
//   --flow-rate R             flow births per cycle (default 1.0)
//   --mean-lifetime L         mean flow lifetime, cycles (default 4000;
//                             concurrent flows ~= rate x lifetime)
//   --max-flow-packets N  --zipf S      flow sizes: Zipf(S) in [1, N]
//   --burst-size N  --burst-spacing C   packets per flowlet, spacing
//   --packet-bytes B
// Per-switch MP5 knobs:
//   --pipelines K  --fifo-capacity N  --remap N  --paranoid
// Run control:
//   --seed S  --max-cycles N  --util-window W
// Fault plan (repeatable; switch names are leaf<i>/spine<i>):
//   --kill-switch NAME@CYCLE      kill a whole switch mid-run
//   --kill-link FROM:TO@CYCLE     kill one directional link
// Output:
//   --json FILE       write the "mp5-fabric-results" document
//   --telemetry       attach a shared telemetry registry (per-switch
//                     metrics under fabric.<switch>.*; lands in --json)
//   --quiet           suppress the human-readable summary
//
// The summary ends with the host/build line and `result digest: 0x<16
// hex>`, fabric_result_digest() of the whole result: equal lines mean
// field-by-field equal results.
#include <fstream>
#include <iostream>
#include <memory>

#include "cli.hpp"
#include "fabric/fabric.hpp"
#include "fabric/results.hpp"
#include "telemetry/run_envelope.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using namespace mp5;
using namespace mp5::fabric;

struct Args {
  FabricOptions opts;
  std::vector<std::string> kill_switch_specs;
  std::vector<std::string> kill_link_specs;
  std::string json_out;
  bool telemetry = false;
  bool quiet = false;
};

/// Split "SPEC@CYCLE", returning the spec and filling the cycle.
std::string split_at_cycle(const std::string& spec, const char* flag,
                           Cycle* cycle) {
  const auto at = spec.find('@');
  if (at == std::string::npos || at == 0 || at + 1 >= spec.size()) {
    throw ConfigError(std::string(flag) + " expects SPEC@CYCLE, got '" +
                      spec + "'");
  }
  *cycle = cli::parse_flag_value<Cycle>(flag, spec.substr(at + 1));
  return spec.substr(0, at);
}

/// Resolve the fault specs against the (now final) topology. Done after
/// parsing because "--kill-switch spine1" must see --spines.
void resolve_faults(Args& args) {
  const FabricTopology& topo = args.opts.topology;
  for (const std::string& spec : args.kill_switch_specs) {
    FabricFaultEvent ev;
    ev.kind = FabricFaultEvent::Kind::kKillSwitch;
    ev.target = topo.switch_by_name(
        split_at_cycle(spec, "--kill-switch", &ev.cycle));
    args.opts.faults.events.push_back(ev);
  }
  for (const std::string& spec : args.kill_link_specs) {
    FabricFaultEvent ev;
    ev.kind = FabricFaultEvent::Kind::kKillLink;
    const std::string names =
        split_at_cycle(spec, "--kill-link", &ev.cycle);
    const auto colon = names.find(':');
    if (colon == std::string::npos) {
      throw ConfigError("--kill-link expects FROM:TO@CYCLE, got '" + spec +
                        "'");
    }
    const SwitchId from = topo.switch_by_name(names.substr(0, colon));
    const SwitchId to = topo.switch_by_name(names.substr(colon + 1));
    if (topo.is_leaf(from) && topo.is_spine(to)) {
      ev.link = topo.uplink(from, topo.spine_index(to));
    } else if (topo.is_spine(from) && topo.is_leaf(to)) {
      ev.link = topo.downlink(topo.spine_index(from), to);
    } else {
      throw ConfigError("--kill-link: '" + names +
                        "' is not a leaf->spine or spine->leaf link");
    }
    args.opts.faults.events.push_back(ev);
  }
}

Args parse_args(int argc, char** argv) {
  Args args;
  FabricOptions& o = args.opts;
  cli::ArgReader in(argc, argv);
  while (in.next()) {
    const std::string& arg = in.arg();
    if (arg == "--leaves") in.read(o.topology.leaves);
    else if (arg == "--spines") in.read(o.topology.spines);
    else if (arg == "--hosts-per-leaf") in.read(o.topology.hosts_per_leaf);
    else if (arg == "--link-latency") in.read(o.topology.link_latency);
    else if (arg == "--link-bytes-per-cycle")
      in.read(o.topology.link_bytes_per_cycle);
    else if (arg == "--spine-weights") {
      o.topology.spine_weights.clear();
      for (const std::string& w : cli::split_csv(in.value())) {
        o.topology.spine_weights.push_back(
            cli::parse_flag_value<double>(arg, w));
      }
    }
    else if (arg == "--lb") o.lb = parse_lb_mode(in.value());
    else if (arg == "--hash") o.hash_alg = parse_hash_alg(in.value());
    else if (arg == "--salt") in.read(o.salt);
    else if (arg == "--flows") in.read(o.workload.flows);
    else if (arg == "--flow-rate") in.read(o.workload.flow_rate);
    else if (arg == "--mean-lifetime") in.read(o.workload.mean_lifetime);
    else if (arg == "--max-flow-packets") in.read(o.workload.max_flow_packets);
    else if (arg == "--zipf") in.read(o.workload.zipf_exponent);
    else if (arg == "--burst-size") in.read(o.workload.burst_size);
    else if (arg == "--burst-spacing") in.read(o.workload.burst_spacing);
    else if (arg == "--packet-bytes") in.read(o.workload.packet_bytes);
    else if (arg == "--pipelines") in.read(o.pipelines);
    else if (arg == "--fifo-capacity") in.read(o.fifo_capacity);
    else if (arg == "--remap") in.read(o.remap_period);
    else if (arg == "--paranoid") o.paranoid_checks = true;
    else if (arg == "--seed") in.read(o.seed);
    else if (arg == "--max-cycles") in.read(o.max_cycles);
    else if (arg == "--util-window") in.read(o.util_window);
    else if (arg == "--kill-switch")
      args.kill_switch_specs.push_back(in.value());
    else if (arg == "--kill-link") args.kill_link_specs.push_back(in.value());
    else if (arg == "--json") args.json_out = in.value();
    else if (arg == "--telemetry") args.telemetry = true;
    else if (arg == "--quiet") args.quiet = true;
    else in.unknown();
  }
  // The workload inherits the run seed unless the flows themselves need a
  // different one; one knob reproduces the whole fabric.
  args.opts.workload.seed = args.opts.seed;
  resolve_faults(args);
  return args;
}

void print_summary(const FabricOptions& opts, const FabricResult& r) {
  const FabricTopology& topo = opts.topology;
  std::cout << "fabric: " << topo.leaves << " leaves x " << topo.spines
            << " spines, " << topo.num_hosts() << " hosts, lb="
            << lb_mode_name(opts.lb) << ", seed=" << opts.seed << "\n";
  std::cout << "  cycles " << r.cycles_run
            << (r.truncated ? " (truncated)" : "") << ", injected "
            << r.injected << ", delivered " << r.delivered << " ("
            << r.delivered_fraction * 100.0 << "%), dropped "
            << r.dropped_total() << ", in flight " << r.in_flight_end
            << "\n";
  std::cout << "  throughput " << r.throughput_pkts_per_cycle
            << " pkt/cycle (offered " << r.offered_pkts_per_cycle << ")\n";
  std::cout << "  flows: " << r.flows_started << "/" << r.flows_total
            << " started, " << r.flows_fully_delivered
            << " fully delivered, peak concurrent "
            << r.peak_concurrent_flows << "\n";
  std::cout << "  fct p50/p90/p99 " << r.fct_p50 << "/" << r.fct_p90 << "/"
            << r.fct_p99 << " cycles (n=" << r.fct_count << ", mean "
            << r.fct_mean << ")\n";
  std::cout << "  latency p50/p90/p99 " << r.latency_p50 << "/"
            << r.latency_p90 << "/" << r.latency_p99
            << ", e2e reordered " << r.reordered_packets << "\n";
  std::cout << "  uplink util max/mean " << r.uplink_util_max << "/"
            << r.uplink_util_mean << " (skew " << r.uplink_util_skew
            << ")\n";
  for (const FabricSwitchResult& s : r.switches) {
    std::cout << "  " << s.name << ": offered " << s.sim.offered
              << ", egressed " << s.sim.egressed << ", C1 "
              << s.sim.c1_violating_packets << " ("
              << s.sim.c1_fraction() * 100.0 << "%)";
    if (s.killed) std::cout << " [killed @" << s.killed_at << "]";
    std::cout << "\n";
  }
  std::cout << telemetry::host_build_line() << "\nresult digest: "
            << telemetry::digest_hex(fabric_result_digest(r)) << "\n";
}

int run(int argc, char** argv) {
  Args args = parse_args(argc, argv);

  std::unique_ptr<telemetry::Telemetry> telem;
  if (args.telemetry) {
    telemetry::Config config;
    config.event_capacity = 0; // a shared event ring would be all noise
    telem = std::make_unique<telemetry::Telemetry>(config);
    args.opts.telemetry = telem.get();
  }

  FabricSimulator sim(args.opts);
  const FabricResult result = sim.run();

  if (!args.quiet) print_summary(args.opts, result);
  if (!args.json_out.empty()) {
    std::ofstream out(args.json_out);
    if (!out) {
      throw ConfigError("cannot open '" + args.json_out + "' for writing");
    }
    write_fabric_results_json(out, args.opts, result, telem.get());
    if (!args.quiet) std::cout << "wrote " << args.json_out << "\n";
  }
  return 0;
}

} // namespace

int main(int argc, char** argv) {
  return mp5::cli::run_main("mp5fabric", run, argc, argv);
}
