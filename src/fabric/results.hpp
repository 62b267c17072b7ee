// Machine-readable fabric run results, schema "mp5-fabric-results"
// (validated by tools/validate_results.py), inside the run envelope
// (telemetry/run_envelope.hpp: schema, schema_version 2, host, build,
// digest = fabric_result_digest, profile = null):
//   {
//     "config":   { leaves, spines, hosts_per_leaf, link_latency,
//                   link_bytes_per_cycle, lb, hash, salt, seed, pipelines,
//                   remap_period, util_window,
//                   workload { flows, flow_rate, mean_lifetime,
//                              max_flow_packets, zipf_exponent, burst_size,
//                              burst_spacing, packet_bytes, seed } },
//     "totals", "flows", "latency", "uplinks": every kFabricFields row at
//                   its section and key, plus totals.dropped.total and
//                   totals.conserved (derived),
//     "links":    [ { every kFabricLinkFields row } ],
//     "switches": [ { name, killed, killed_at, <every SimResult counter,
//                     by its kResultCounters name>, c1_fraction } ],
//     "telemetry": { counters, gauges, histograms, events } | null
//   }
//
// Per-switch telemetry metrics appear in the telemetry section under
// their "fabric.<switch-name>." prefixes (each switch's
// SimOptions::telemetry_prefix keeps the names collision-free in the
// shared registry).
#pragma once

#include <ostream>

#include "fabric/fabric.hpp"

namespace mp5::fabric {

void write_fabric_results_json(std::ostream& out,
                               const FabricOptions& options,
                               const FabricResult& result,
                               const telemetry::Telemetry* telem = nullptr);

} // namespace mp5::fabric
