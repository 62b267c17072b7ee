#include "fabric/results.hpp"

#include "telemetry/json_writer.hpp"
#include "telemetry/results.hpp"
#include "telemetry/telemetry.hpp"

namespace mp5::fabric {

using telemetry::JsonWriter;

void write_fabric_results_json(std::ostream& out,
                               const FabricOptions& options,
                               const FabricResult& result,
                               const telemetry::Telemetry* telem) {
  JsonWriter json(out);
  json.begin_object();
  json.kv("schema", "mp5-fabric-results");
  json.kv("schema_version", kFabricResultsSchemaVersion);

  const FabricTopology& topo = options.topology;
  json.key("config").begin_object();
  json.kv("leaves", topo.leaves);
  json.kv("spines", topo.spines);
  json.kv("hosts_per_leaf", topo.hosts_per_leaf);
  json.kv("link_latency", topo.link_latency);
  json.kv("link_bytes_per_cycle", topo.link_bytes_per_cycle);
  json.kv("lb", lb_mode_name(options.lb));
  json.kv("hash", hash_alg_name(options.hash_alg));
  json.kv("salt", options.salt);
  json.kv("seed", options.seed);
  json.kv("pipelines", options.pipelines);
  json.kv("remap_period", options.remap_period);
  json.kv("util_window", options.util_window);
  json.key("workload").begin_object();
  const FabricWorkloadConfig& wl = options.workload;
  json.kv("flows", wl.flows);
  json.kv("flow_rate", wl.flow_rate);
  json.kv("mean_lifetime", wl.mean_lifetime);
  json.kv("max_flow_packets", wl.max_flow_packets);
  json.kv("zipf_exponent", wl.zipf_exponent);
  json.kv("burst_size", wl.burst_size);
  json.kv("burst_spacing", wl.burst_spacing);
  json.kv("packet_bytes", wl.packet_bytes);
  json.kv("seed", wl.seed);
  json.end_object();
  json.end_object();

  json.key("totals").begin_object();
  json.kv("injected", result.injected);
  json.kv("delivered", result.delivered);
  json.key("dropped").begin_object();
  json.kv("dead_source", result.dropped_dead_source);
  json.kv("dead_destination", result.dropped_dead_destination);
  json.kv("switch_killed", result.dropped_switch_killed);
  json.kv("in_switch", result.dropped_in_switch);
  json.kv("total", result.dropped_total());
  json.end_object();
  json.kv("in_flight_end", result.in_flight_end);
  json.kv("conserved", result.conserved());
  json.kv("truncated", result.truncated);
  json.kv("cycles_run", result.cycles_run);
  json.kv("throughput_pkts_per_cycle", result.throughput_pkts_per_cycle);
  json.kv("offered_pkts_per_cycle", result.offered_pkts_per_cycle);
  json.kv("delivered_fraction", result.delivered_fraction);
  json.end_object();

  json.key("flows").begin_object();
  json.kv("total", result.flows_total);
  json.kv("started", result.flows_started);
  json.kv("completed", result.flows_completed);
  json.kv("fully_delivered", result.flows_fully_delivered);
  json.kv("peak_concurrent", result.peak_concurrent_flows);
  json.kv("reordered_packets", result.reordered_packets);
  json.key("fct").begin_object();
  json.kv("count", result.fct_count);
  json.kv("p50", result.fct_p50);
  json.kv("p90", result.fct_p90);
  json.kv("p99", result.fct_p99);
  json.kv("mean", result.fct_mean);
  json.kv("max", result.fct_max);
  json.end_object();
  json.end_object();

  json.key("latency").begin_object();
  json.kv("p50", result.latency_p50);
  json.kv("p90", result.latency_p90);
  json.kv("p99", result.latency_p99);
  json.end_object();

  json.key("uplinks").begin_object();
  json.kv("util_max", result.uplink_util_max);
  json.kv("util_mean", result.uplink_util_mean);
  json.kv("util_skew", result.uplink_util_skew);
  json.end_object();

  json.key("links").begin_array();
  for (const FabricLinkResult& l : result.links) {
    json.begin_object();
    json.kv("name", l.name);
    json.kv("from", l.from);
    json.kv("to", l.to);
    json.kv("uplink", l.uplink);
    json.kv("killed", l.killed);
    json.kv("weight", l.weight);
    json.kv("packets", l.packets);
    json.kv("bytes", l.bytes);
    json.kv("busy_cycles", l.busy_cycles);
    json.kv("utilization", l.utilization);
    json.kv("peak_queue_cycles", l.peak_queue_cycles);
    json.end_object();
  }
  json.end_array();

  json.key("switches").begin_array();
  for (const FabricSwitchResult& s : result.switches) {
    json.begin_object();
    json.kv("name", s.name);
    json.kv("killed", s.killed);
    json.kv("killed_at", s.killed_at);
    for (const ResultCounter& c : kResultCounters) {
      json.kv(c.name, s.sim.*c.member);
    }
    json.kv("c1_fraction", s.sim.c1_fraction());
    json.end_object();
  }
  json.end_array();

  json.key("telemetry");
  if (telem != nullptr) {
    telemetry::write_telemetry_section(json, *telem);
  } else {
    json.null();
  }

  json.end_object();
  out << "\n";
}

} // namespace mp5::fabric
