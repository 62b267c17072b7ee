#include "fuzz/repro.hpp"

#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "domino/parser.hpp"
#include "telemetry/json_writer.hpp"
#include "trace/trace_io.hpp"

namespace mp5::fuzz {
namespace {

namespace fs = std::filesystem;

FailureKind kind_from_string(const std::string& name) {
  if (name == "pass" || name == "none") return FailureKind::kNone;
  if (name == "oracle-divergence") return FailureKind::kOracleDivergence;
  if (name == "sim-divergence") return FailureKind::kSimDivergence;
  if (name == "checkpoint-divergence") return FailureKind::kCheckpointDivergence;
  if (name == "crash") return FailureKind::kCrash;
  if (name == "variant-divergence") return FailureKind::kVariantDivergence;
  throw ConfigError("reproducer: unknown expect kind '" + name + "'");
}

std::string stem_of(const std::string& json_path) {
  constexpr std::string_view kSuffix = ".json";
  if (json_path.size() <= kSuffix.size() ||
      json_path.compare(json_path.size() - kSuffix.size(), kSuffix.size(),
                        kSuffix) != 0) {
    throw ConfigError("reproducer path must end in .json: " + json_path);
  }
  return json_path.substr(0, json_path.size() - kSuffix.size());
}

// --- targeted JSON key scanning -----------------------------------------
// The metadata schema is flat (one nested "config" object, no arrays), so
// instead of a full JSON parser we scan for `"key":` and read the scalar
// that follows. The config object is carved out of the text first so its
// "seed" cannot shadow the top-level "seed".

std::size_t find_key(const std::string& text, const std::string& key) {
  const std::string needle = "\"" + key + "\"";
  std::size_t pos = text.find(needle);
  if (pos == std::string::npos) {
    throw ConfigError("reproducer: missing key '" + key + "'");
  }
  pos += needle.size();
  while (pos < text.size() &&
         (std::isspace(static_cast<unsigned char>(text[pos])) ||
          text[pos] == ':')) {
    ++pos;
  }
  return pos;
}

std::string scan_string(const std::string& text, const std::string& key) {
  std::size_t pos = find_key(text, key);
  if (pos >= text.size() || text[pos] != '"') {
    throw ConfigError("reproducer: key '" + key + "' is not a string");
  }
  ++pos;
  std::string out;
  while (pos < text.size() && text[pos] != '"') {
    char c = text[pos++];
    if (c != '\\') {
      out.push_back(c);
      continue;
    }
    if (pos >= text.size()) break;
    const char esc = text[pos++];
    switch (esc) {
      case 'n': out.push_back('\n'); break;
      case 't': out.push_back('\t'); break;
      case 'r': out.push_back('\r'); break;
      case 'b': out.push_back('\b'); break;
      case 'f': out.push_back('\f'); break;
      case 'u': {
        unsigned code = 0;
        for (int i = 0; i < 4 && pos < text.size(); ++i) {
          code = code * 16 +
                 static_cast<unsigned>(
                     std::stoi(std::string(1, text[pos++]), nullptr, 16));
        }
        out.push_back(static_cast<char>(code & 0x7f));
        break;
      }
      default: out.push_back(esc); break;
    }
  }
  return out;
}

std::int64_t scan_int(const std::string& text, const std::string& key) {
  const std::size_t pos = find_key(text, key);
  try {
    return std::stoll(text.substr(pos, 24));
  } catch (const std::exception&) {
    throw ConfigError("reproducer: key '" + key + "' is not an integer");
  }
}

bool scan_bool(const std::string& text, const std::string& key) {
  const std::size_t pos = find_key(text, key);
  if (text.compare(pos, 4, "true") == 0) return true;
  if (text.compare(pos, 5, "false") == 0) return false;
  throw ConfigError("reproducer: key '" + key + "' is not a boolean");
}

/// Absence-tolerant scan_bool for keys added after schema_version 1
/// shipped: corpus files written before the key existed read as
/// `fallback` instead of failing to load.
bool scan_bool_or(const std::string& text, const std::string& key,
                  bool fallback) {
  if (text.find("\"" + key + "\"") == std::string::npos) return fallback;
  return scan_bool(text, key);
}

/// Splits `text` into (config-object substring, everything else).
std::pair<std::string, std::string> split_config(const std::string& text) {
  const std::size_t key = text.find("\"config\"");
  if (key == std::string::npos) {
    throw ConfigError("reproducer: missing key 'config'");
  }
  const std::size_t open = text.find('{', key);
  const std::size_t close = text.find('}', open);
  if (open == std::string::npos || close == std::string::npos) {
    throw ConfigError("reproducer: malformed 'config' object");
  }
  return {text.substr(open, close - open + 1),
          text.substr(0, key) + text.substr(close + 1)};
}

} // namespace

void save_reproducer(const Reproducer& repro, const std::string& json_path) {
  const std::string stem = stem_of(json_path);
  const std::string dom_path = stem + ".dom";
  const std::string trace_path = stem + ".trace.csv";

  {
    std::ofstream dom(dom_path);
    if (!dom) throw Error("cannot write " + dom_path);
    dom << repro.program_source;
  }
  save_trace_file(repro.trace, trace_path);

  std::ofstream out(json_path);
  if (!out) throw Error("cannot write " + json_path);
  telemetry::JsonWriter w(out);
  w.begin_object();
  w.kv("schema", "mp5-fuzz-repro");
  w.kv("schema_version", 1);
  w.kv("expect", repro.kind == FailureKind::kNone ? "pass"
                                                  : to_string(repro.kind));
  w.kv("seed", repro.seed);
  w.kv("inject_floor_mod_bug", repro.inject_floor_mod_bug);
  w.kv("detail", repro.detail);
  // Side files are referenced by basename: a reproducer directory can be
  // moved wholesale.
  w.kv("program", fs::path(dom_path).filename().string());
  w.kv("trace", fs::path(trace_path).filename().string());
  w.key("config").begin_object();
  w.kv("variant", to_string(repro.config.variant));
  w.kv("staleness", repro.config.staleness);
  w.kv("pipelines", repro.config.pipelines);
  w.kv("sharding", to_string(repro.config.sharding));
  w.kv("remap_period", repro.config.remap_period);
  w.kv("fifo_capacity", static_cast<std::uint64_t>(repro.config.fifo_capacity));
  w.kv("seed", repro.config.seed);
  w.kv("checkpoint_restore", repro.config.checkpoint_restore);
  w.end_object();
  w.end_object();
  out << "\n";
  if (!out) throw Error("failed writing " + json_path);
}

Reproducer load_reproducer(const std::string& json_path) {
  std::ifstream in(json_path);
  if (!in) throw Error("cannot read " + json_path);
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();

  if (scan_string(text, "schema") != "mp5-fuzz-repro") {
    throw ConfigError("reproducer: bad schema in " + json_path);
  }
  if (scan_int(text, "schema_version") != 1) {
    throw ConfigError("reproducer: unsupported version in " + json_path);
  }

  const auto [config_text, top_text] = split_config(text);

  Reproducer repro;
  repro.kind = kind_from_string(scan_string(top_text, "expect"));
  repro.seed = static_cast<std::uint64_t>(scan_int(top_text, "seed"));
  repro.inject_floor_mod_bug = scan_bool(top_text, "inject_floor_mod_bug");
  repro.detail = scan_string(top_text, "detail");

  // Keys added with the replicated variants (ISSUE 10); corpus files
  // written before them existed mean the (then-only) MP5 design.
  repro.config.variant =
      config_text.find("\"variant\"") == std::string::npos
          ? DesignVariant::kMp5
          : variant_from_string(scan_string(config_text, "variant"));
  repro.config.staleness =
      config_text.find("\"staleness\"") == std::string::npos
          ? 0
          : static_cast<std::uint32_t>(scan_int(config_text, "staleness"));
  // Δ = 0 is how ReplicatedOptions spells SCR, so a staleness that does not
  // match the variant would silently run another design.
  if ((repro.config.variant == DesignVariant::kRelaxed) !=
      (repro.config.staleness != 0)) {
    throw ConfigError("reproducer: variant '" +
                      std::string(to_string(repro.config.variant)) +
                      "' with staleness " +
                      std::to_string(repro.config.staleness) + " in " +
                      json_path + " (only 'relaxed' takes one, >= 1)");
  }
  repro.config.pipelines =
      static_cast<std::uint32_t>(scan_int(config_text, "pipelines"));
  repro.config.sharding =
      sharding_from_string(scan_string(config_text, "sharding"));
  // Files written while the simulator had several interchangeable cycle
  // walks also carry "threads", "fast_forward", "reference_rebalance" and
  // "engine". Those knobs no longer exist; their keys are ignored.
  repro.config.remap_period =
      static_cast<std::uint32_t>(scan_int(config_text, "remap_period"));
  repro.config.fifo_capacity =
      static_cast<std::size_t>(scan_int(config_text, "fifo_capacity"));
  repro.config.seed = static_cast<std::uint64_t>(scan_int(config_text, "seed"));
  repro.config.checkpoint_restore =
      scan_bool_or(config_text, "checkpoint_restore", false);

  const fs::path dir = fs::path(json_path).parent_path();
  const fs::path dom_path = dir / scan_string(top_text, "program");
  const fs::path trace_path = dir / scan_string(top_text, "trace");

  std::ifstream dom(dom_path);
  if (!dom) throw Error("cannot read " + dom_path.string());
  std::ostringstream dom_buf;
  dom_buf << dom.rdbuf();
  repro.program_source = dom_buf.str();
  repro.trace = load_trace_file(trace_path.string());
  return repro;
}

Failure replay(const Reproducer& repro) {
  const domino::Ast ast = domino::parse(repro.program_source);
  DifferOptions opts;
  opts.inject_floor_mod_bug = repro.inject_floor_mod_bug;
  if (repro.kind == FailureKind::kOracleDivergence) {
    // check() then runs the oracle comparison only.
    opts.matrix.clear();
    opts.variant_matrix.clear();
    return Differ(std::move(opts)).check(ast, repro.trace);
  }
  if (repro.kind == FailureKind::kNone) {
    opts.matrix = quick_config_matrix();
    opts.variant_matrix = quick_variant_matrix();
    return Differ(std::move(opts)).check(ast, repro.trace);
  }
  if (repro.kind == FailureKind::kVariantDivergence) {
    // A divergence witness demonstrates the *gap*: MP5 at the same
    // pipeline count must pass before the variant cell is required to
    // diverge. If MP5 itself fails, that (unexpected) failure is
    // returned and the replay comparison flags it.
    Differ differ(std::move(opts));
    SimConfig mp5_cell;
    mp5_cell.pipelines = repro.config.pipelines;
    if (Failure f = differ.check_config(ast, repro.trace, mp5_cell)) return f;
    return differ.check_variant_config(ast, repro.trace, repro.config);
  }
  return Differ(std::move(opts)).check_config(ast, repro.trace, repro.config);
}

} // namespace mp5::fuzz
