#include "fabric/results.hpp"

#include <algorithm>
#include <bit>
#include <string_view>
#include <variant>

#include "common/serialize.hpp"
#include "telemetry/json_writer.hpp"
#include "telemetry/results.hpp"
#include "telemetry/run_envelope.hpp"
#include "telemetry/telemetry.hpp"

namespace mp5::fabric {

using telemetry::JsonWriter;

namespace {

/// One digest word per field value: integers and flags widen, doubles
/// contribute their bits and strings their FNV-1a hash.
template <typename T>
std::uint64_t word(const T& v) { return static_cast<std::uint64_t>(v); }
std::uint64_t word(double v) { return std::bit_cast<std::uint64_t>(v); }
std::uint64_t word(const std::string& s) { return fnv1a(s); }

/// Calls fn(row, value) for each row of `fields` on `record`.
template <typename Record, typename Field, std::size_t N, typename Fn>
void for_each_field(const Record& record, const Field (&fields)[N], Fn fn) {
  for (const Field& f : fields) {
    std::visit([&](auto m) { fn(f, record.*m); }, f.member);
  }
}

/// The first row of `fields` on which `a` and `b` differ, or null.
template <typename Record, typename Field, std::size_t N>
const Field* first_difference(const Record& a, const Record& b,
                              const Field (&fields)[N]) {
  for (const Field& f : fields) {
    if (std::visit([&](auto m) { return a.*m != b.*m; }, f.member)) return &f;
  }
  return nullptr;
}

bool differ(std::string* why, const std::string& field) {
  if (why != nullptr) *why = "field '" + field + "' differs";
  return false;
}

/// Moves `json` from the nested objects of the dotted path `open` into
/// those of `section`, closing and opening only where the two part; an
/// empty `section` closes them all.
void enter_section(JsonWriter& json, std::string& open,
                   std::string_view section) {
  while (!open.empty() && section != open &&
         !section.starts_with(open + ".")) {
    json.end_object();
    const std::size_t dot = open.rfind('.');
    open.resize(dot == std::string::npos ? 0 : dot);
  }
  while (open.size() < section.size()) {
    const std::size_t from = open.empty() ? 0 : open.size() + 1;
    const std::size_t to = std::min(section.find('.', from), section.size());
    json.key(section.substr(from, to - from)).begin_object();
    open = section.substr(0, to);
  }
}

} // namespace

bool same_fabric_results(const FabricResult& a, const FabricResult& b,
                         std::string* why) {
  if (const auto* f = first_difference(a, b, kFabricFields)) {
    return differ(why, std::string(f->section) + "." + f->key);
  }
  if (a.links.size() != b.links.size()) return differ(why, "links.size");
  for (std::size_t i = 0; i < a.links.size(); ++i) {
    if (const auto* f =
            first_difference(a.links[i], b.links[i], kFabricLinkFields)) {
      return differ(why, "links[" + std::to_string(i) + "]." + f->key);
    }
  }
  if (a.switches.size() != b.switches.size()) {
    return differ(why, "switches.size");
  }
  for (std::size_t i = 0; i < a.switches.size(); ++i) {
    const FabricSwitchResult& sa = a.switches[i];
    const FabricSwitchResult& sb = b.switches[i];
    const std::string at = "switches[" + std::to_string(i) + "]";
    if (sa.name != sb.name || sa.killed != sb.killed ||
        sa.killed_at != sb.killed_at) {
      return differ(why, at);
    }
    std::string sub;
    if (!same_results(sa.sim, sb.sim, &sub)) {
      if (why != nullptr) *why = at + ": " + sub;
      return false;
    }
  }
  return true;
}

std::uint64_t fabric_result_digest(const FabricResult& r) {
  Fnv1aDigest d;
  const auto add = [&d](const auto&, const auto& value) { d.add(word(value)); };
  for_each_field(r, kFabricFields, add);
  d.add(r.links.size());
  for (const FabricLinkResult& l : r.links) {
    for_each_field(l, kFabricLinkFields, add);
  }
  d.add(r.switches.size());
  for (const FabricSwitchResult& s : r.switches) {
    for (const std::uint64_t w : {word(s.name), word(s.killed), s.killed_at,
                                  result_digest(s.sim)}) {
      d.add(w);
    }
  }
  return d.value();
}

void write_fabric_results_json(std::ostream& out,
                               const FabricOptions& options,
                               const FabricResult& result,
                               const telemetry::Telemetry* telem) {
  telemetry::RunEnvelope doc(out, "mp5-fabric-results");
  JsonWriter& json = doc.json();
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

  using Member = decltype(kFabricFields[0].member);
  std::string open;
  for_each_field(result, kFabricFields, [&](const auto& f, const auto& v) {
    enter_section(json, open, f.section);
    json.kv(f.key, v);
    // The derived values follow the rows they are derived from.
    if (f.member == Member{&FabricResult::dropped_in_switch}) {
      json.kv("total", result.dropped_total());
    } else if (f.member == Member{&FabricResult::in_flight_end}) {
      json.kv("conserved", result.conserved());
    }
  });
  enter_section(json, open, "");

  const auto write = [&json](const auto& f, const auto& v) {
    json.kv(f.key, v);
  };
  json.key("links").begin_array();
  for (const FabricLinkResult& l : result.links) {
    json.begin_object();
    for_each_field(l, kFabricLinkFields, write);
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

  telemetry::write_telemetry_section(json, telem);
  doc.finish(fabric_result_digest(result));
}

} // namespace mp5::fabric
