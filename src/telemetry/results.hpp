// Machine-readable run results: every SimResult counter plus an optional
// telemetry section, as a schema-versioned JSON document. `mp5sim --json
// <path>` writes one per run.
//
// Schema "mp5-results" (DESIGN.md "Telemetry"), inside the run envelope
// (telemetry/run_envelope.hpp: schema, schema_version 2, host, build,
// digest = result_digest, profile = { wall_seconds } | null). Each
// section holds the kResultCounters rows of that section
// (metrics/sim_result.hpp), in table order, then its derived values:
//   {
//     "meta":        { design, variant, staleness, program, pipelines,
//                      packets, seed, load },
//     "packets":     { offered, egressed, dropped_*, ecn_marked },
//     "timing":      { first_arrival, last_arrival, last_egress,
//                      cycles_run, input_rate, normalized_throughput },
//     "mechanics":   { steers, wasted_cycles, blocked_cycles, remap_moves,
//                      recirculations, max_queue_depth },
//     "faults":      { pipeline_failures, pipeline_recoveries,
//                      fault_remapped_indices, phantom_lost,
//                      phantom_delayed, stalled_cycles, time_to_recover,
//                      fault_drops },
//     "correctness": { c1_violating_packets, reordered_flow_packets,
//                      c1_fraction, drop_fraction },
//     "telemetry":   { counters, gauges, histograms, events } | null
//   }
#pragma once

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>

#include "metrics/sim_result.hpp"

namespace mp5::telemetry {

class Telemetry;

/// Free-form description of what was run; lands in the "meta" section.
struct RunMeta {
  std::string design;
  /// Consistency design family ("mp5", "scr", "relaxed"); "mp5" covers
  /// the ablations too (those differ in `design`).
  std::string variant = "mp5";
  /// Staleness bound Δ in cycles; 0 except for the relaxed variant.
  std::uint32_t staleness = 0;
  std::string program;
  std::uint32_t pipelines = 0;
  std::uint64_t packets = 0;
  std::uint64_t seed = 0;
  double load = 1.0;
};

/// Emit the full document. `telemetry` may be null (the "telemetry" key
/// is then JSON null); so may the wall time the run took (profile null).
void write_results_json(std::ostream& out, const RunMeta& meta,
                        const SimResult& result, const Telemetry* telemetry,
                        std::optional<double> wall_seconds = std::nullopt);

class JsonWriter;

/// Emit the standard "telemetry" member (counters/gauges/histograms/
/// events, or null without a registry) into an in-progress document —
/// shared by the single-switch and fabric results exporters.
void write_telemetry_section(JsonWriter& json, const Telemetry* telem);

} // namespace mp5::telemetry
