// Machine-readable fabric run results, schema "mp5-fabric-results"
// version 1 (validated by tools/validate_results.py):
//   {
//     "schema": "mp5-fabric-results", "schema_version": 1,
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

inline constexpr int kFabricResultsSchemaVersion = 1;

void write_fabric_results_json(std::ostream& out,
                               const FabricOptions& options,
                               const FabricResult& result,
                               const telemetry::Telemetry* telem = nullptr);

} // namespace mp5::fabric
