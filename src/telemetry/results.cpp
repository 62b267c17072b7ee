#include "telemetry/results.hpp"

#include <string_view>

#include "telemetry/json_writer.hpp"
#include "telemetry/run_envelope.hpp"
#include "telemetry/telemetry.hpp"

namespace mp5::telemetry {

void write_telemetry_section(JsonWriter& json, const Telemetry* telemetry) {
  json.key("telemetry");
  if (telemetry == nullptr) {
    json.null();
    return;
  }
  const Telemetry& telem = *telemetry;
  json.begin_object();

  json.key("counters").begin_object();
  for (const auto& [name, counter] : telem.counters()) {
    json.kv(name, counter.value());
  }
  json.end_object();

  json.key("gauges").begin_object();
  for (const auto& [name, gauge] : telem.gauges()) {
    json.kv(name, gauge.value());
  }
  json.end_object();

  json.key("histograms").begin_object();
  for (const auto& [name, hist] : telem.histograms()) {
    json.key(name).begin_object();
    json.kv("bucket_width", hist.bucket_width());
    json.kv("total", hist.total());
    json.kv("p50", hist.p50());
    json.kv("p90", hist.p90());
    json.kv("p99", hist.p99());
    json.key("buckets").begin_array();
    for (const std::uint64_t c : hist.buckets()) json.value(c);
    json.end_array();
    json.end_object();
  }
  json.end_object();

  json.key("events");
  if (telem.events_enabled()) {
    const EventRing& ring = telem.events();
    json.begin_object()
        .kv("capacity", static_cast<std::uint64_t>(ring.capacity()))
        .kv("recorded", ring.recorded())
        .kv("retained", static_cast<std::uint64_t>(ring.size()))
        .kv("dropped", ring.dropped())
        .end_object();
  } else {
    json.null();
  }

  json.end_object();
}

void write_results_json(std::ostream& out, const RunMeta& meta,
                        const SimResult& result, const Telemetry* telemetry,
                        std::optional<double> wall_seconds) {
  RunEnvelope doc(out, "mp5-results");
  JsonWriter& json = doc.json();
  json.key("meta")
      .begin_object()
      .kv("design", meta.design)
      .kv("variant", meta.variant)
      .kv("staleness", meta.staleness)
      .kv("program", meta.program)
      .kv("pipelines", meta.pipelines)
      .kv("packets", meta.packets)
      .kv("seed", meta.seed)
      .kv("load", meta.load)
      .end_object();

  // Each section lists its kResultCounters rows, then its derived values.
  const auto section = [&](std::string_view name) -> JsonWriter& {
    json.key(name).begin_object();
    for (const ResultCounter& c : kResultCounters) {
      if (c.section == name) json.kv(c.name, result.*c.member);
    }
    return json;
  };
  section("packets").end_object();
  section("timing")
      .kv("input_rate", result.input_rate())
      .kv("normalized_throughput", result.normalized_throughput())
      .end_object();
  section("mechanics").end_object();
  section("faults")
      .kv("fault_drops",
          static_cast<std::uint64_t>(result.fault_drops.size()))
      .end_object();
  section("correctness")
      .kv("c1_fraction", result.c1_fraction())
      .kv("drop_fraction", result.drop_fraction())
      .end_object();
  write_telemetry_section(json, telemetry);

  if (!wall_seconds) return doc.finish(result_digest(result));
  doc.finish(result_digest(result), [&](JsonWriter& profile) {
    profile.begin_object().kv("wall_seconds", *wall_seconds).end_object();
  });
}

} // namespace mp5::telemetry
