#include "fuzz/differ.hpp"

#include <algorithm>
#include <exception>
#include <memory>
#include <sstream>
#include <type_traits>

#include "banzai/single_pipeline.hpp"
#include "baseline/replicated.hpp"
#include "common/error.hpp"
#include "common/hashing.hpp"
#include "domino/ast_interp.hpp"
#include "domino/compiler.hpp"
#include "domino/parser.hpp"
#include "metrics/equivalence.hpp"
#include "metrics/sim_result.hpp"
#include "mp5/simulator.hpp"
#include "mp5/transform.hpp"
#include "trace/trace_source.hpp"

namespace mp5::fuzz {
namespace {

/// Decorrelates the trace stream from the program stream per seed.
constexpr std::uint64_t kTraceSalt = 0x7ea15eedULL;
constexpr std::uint64_t kMutationSalt = 0x5ca1ab1eULL;

/// The deliberately broken oracle for the fuzzer's self-test: every array
/// index lands one slot off. Any program that distinguishes array slots
/// then diverges from the compiled reference, and the divergence pipeline
/// must catch and shrink it (ISSUE acceptance criterion).
class OffByOneOracle final : public domino::AstInterp {
public:
  using AstInterp::AstInterp;

protected:
  Value reduce_index(Value raw, Value size) const override {
    return size <= 0 ? 0 : (floor_mod(raw, size) + 1) % size;
  }
};

struct Compiled {
  Mp5Program prog;
  banzai::ReferenceResult reference;
};

Compiled prepare(const domino::Ast& ast, const Trace& trace) {
  Compiled out;
  out.prog = transform(domino::compile(ast, {}, /*reserve_stages=*/1).pvsm);
  banzai::ReferenceSwitch ref(out.prog.pvsm);
  out.reference = ref.run(to_header_batch(trace, out.prog.pvsm));
  return out;
}

} // namespace

const char* to_string(FailureKind kind) {
  switch (kind) {
    case FailureKind::kNone: return "none";
    case FailureKind::kOracleDivergence: return "oracle-divergence";
    case FailureKind::kSimDivergence: return "sim-divergence";
    case FailureKind::kCheckpointDivergence: return "checkpoint-divergence";
    case FailureKind::kCrash: return "crash";
    case FailureKind::kVariantDivergence: return "variant-divergence";
  }
  throw Error("to_string: bad failure kind");
}

const char* to_string(DesignVariant v) {
  switch (v) {
    case DesignVariant::kMp5: return "mp5";
    case DesignVariant::kScr: return "scr";
    case DesignVariant::kRelaxed: return "relaxed";
  }
  throw Error("to_string: bad design variant");
}

DesignVariant variant_from_string(const std::string& s) {
  if (s == "mp5") return DesignVariant::kMp5;
  if (s == "scr") return DesignVariant::kScr;
  if (s == "relaxed") return DesignVariant::kRelaxed;
  throw ConfigError("unknown variant '" + s +
                    "' (expected 'mp5', 'scr' or 'relaxed')");
}

std::string SimConfig::name() const {
  std::ostringstream os;
  if (variant != DesignVariant::kMp5) {
    os << "k" << pipelines << "-" << to_string(variant);
    if (variant == DesignVariant::kRelaxed) os << staleness;
    if (checkpoint_restore) os << "-ckpt";
    return os.str();
  }
  os << "k" << pipelines << "-" << mp5::to_string(sharding);
  if (checkpoint_restore) os << "-ckpt";
  return os.str();
}

SimOptions SimConfig::to_options() const {
  SimOptions opts;
  opts.pipelines = pipelines;
  opts.seed = seed;
  opts.record_egress = true;
  // Every fuzz run doubles as a watchdog run: invariant violations are
  // failures, not silent corruption.
  opts.paranoid_checks = true;
  opts.sharding = sharding;
  opts.remap_period = remap_period;
  opts.fifo_capacity = fifo_capacity;
  return opts;
}

ReplicatedOptions SimConfig::to_replicated_options() const {
  ReplicatedOptions opts;
  opts.pipelines = pipelines;
  opts.staleness_bound = staleness;
  opts.record_egress = true;
  opts.paranoid_checks = true;
  return opts;
}

std::vector<SimConfig> full_config_matrix() {
  std::vector<SimConfig> matrix;
  for (const std::uint32_t k : {2u, 4u, 8u}) {
    for (const ShardingPolicy policy :
         {ShardingPolicy::kDynamic, ShardingPolicy::kStaticRandom,
          ShardingPolicy::kIdealLpt}) {
      SimConfig cfg;
      cfg.pipelines = k;
      cfg.sharding = policy;
      matrix.push_back(cfg);
    }
  }
  return matrix;
}

std::vector<SimConfig> quick_config_matrix() {
  std::vector<SimConfig> matrix;
  SimConfig cfg; // k4 dynamic
  matrix.push_back(cfg);
  cfg.pipelines = 2;
  cfg.sharding = ShardingPolicy::kStaticRandom;
  matrix.push_back(cfg);
  cfg = SimConfig{};
  cfg.pipelines = 8;
  cfg.sharding = ShardingPolicy::kIdealLpt;
  matrix.push_back(cfg);
  return matrix;
}

std::vector<SimConfig> variant_config_matrix() {
  std::vector<SimConfig> matrix;
  for (const std::uint32_t k : {2u, 4u, 8u}) {
    SimConfig cfg;
    cfg.pipelines = k;
    cfg.variant = DesignVariant::kScr;
    matrix.push_back(cfg);
    cfg.variant = DesignVariant::kRelaxed;
    for (const std::uint32_t staleness : {1u, 64u, 512u}) {
      cfg.staleness = staleness;
      matrix.push_back(cfg);
    }
  }
  return matrix;
}

std::vector<SimConfig> quick_variant_matrix() {
  std::vector<SimConfig> matrix;
  SimConfig cfg;
  cfg.variant = DesignVariant::kScr; // k4-scr
  matrix.push_back(cfg);
  cfg.variant = DesignVariant::kRelaxed; // k4-relaxed64
  cfg.staleness = 64;
  matrix.push_back(cfg);
  cfg = SimConfig{};
  cfg.variant = DesignVariant::kRelaxed; // k2-relaxed1
  cfg.staleness = 1;
  cfg.pipelines = 2;
  matrix.push_back(cfg);
  return matrix;
}

Differ::Differ(DifferOptions opts) : opts_(std::move(opts)) {}

Failure Differ::check_oracle(const domino::Ast& ast,
                             const Trace& trace) const {
  const Compiled compiled = prepare(ast, trace);
  std::unique_ptr<domino::AstInterp> oracle;
  if (opts_.inject_floor_mod_bug) {
    oracle = std::make_unique<OffByOneOracle>(ast);
  } else {
    oracle = std::make_unique<domino::AstInterp>(ast);
  }

  const EquivalenceReport report = check_equivalence(
      compiled.prog.pvsm, domino::replay(*oracle, compiled.prog.pvsm, trace),
      compiled.reference.final_registers, compiled.reference.egress_headers);
  if (report.equivalent()) return Failure{};
  Failure failure;
  failure.kind = FailureKind::kOracleDivergence;
  failure.detail =
      "oracle (the 'reference' below) vs compiled program: " +
      report.first_difference;
  return failure;
}

namespace {

/// The checkpoint/restore column: re-run the cell (a `Sim` on `options`)
/// checkpointing roughly mid-run, restore the first captured blob into a
/// fresh simulator, and demand a SimResult field-identical to the
/// uninterrupted run's.
template <class Sim, class Options>
Failure check_checkpoint_cell(const Compiled& compiled, const Trace& trace,
                              const SimConfig& config, const Options& options,
                              const SimResult& baseline) {
  Failure failure;
  failure.config = config;
  Options ckpt_opts = options;
  ckpt_opts.checkpoint_interval =
      std::max<std::uint64_t>(1, baseline.cycles_run / 2);
  std::string blob;
  Cycle ckpt_cycle = 0;
  bool captured = false;
  ckpt_opts.checkpoint_sink = [&](Cycle cycle, std::string&& b) {
    if (!captured) {
      blob = std::move(b);
      ckpt_cycle = cycle;
      captured = true;
    }
  };
  const SimResult with_ckpt = Sim(compiled.prog, ckpt_opts).run(trace);
  std::string why;
  if (!same_results(baseline, with_ckpt, &why)) {
    failure.kind = FailureKind::kCheckpointDivergence;
    failure.detail = "checkpointing run diverged from the plain run: " + why;
    return failure;
  }
  if (!captured) return Failure{}; // run finished before the first boundary
  Sim restored(compiled.prog, options);
  SimResult after;
  if constexpr (std::is_same_v<Sim, Mp5Simulator>) {
    VectorTraceSource source(trace);
    after = restored.resume(source, blob);
  } else {
    after = restored.resume(trace, blob);
  }
  if (!same_results(baseline, after, &why)) {
    failure.kind = FailureKind::kCheckpointDivergence;
    failure.detail =
        "restore at cycle " + std::to_string(ckpt_cycle) + " diverged: " + why;
    return failure;
  }
  return Failure{};
}

Failure check_cell(const Compiled& compiled, const Trace& trace,
                   const SimConfig& config) {
  Failure failure;
  failure.config = config;
  try {
    Mp5Simulator sim(compiled.prog, config.to_options());
    const SimResult result = sim.run(trace);
    if (result.egressed != result.offered) {
      failure.kind = FailureKind::kSimDivergence;
      failure.detail = "lossless config dropped packets: offered " +
                       std::to_string(result.offered) + ", egressed " +
                       std::to_string(result.egressed);
      return failure;
    }
    const EquivalenceReport report =
        check_equivalence(compiled.prog.pvsm, compiled.reference, result);
    if (!report.equivalent()) {
      failure.kind = FailureKind::kSimDivergence;
      failure.detail = report.first_difference;
      return failure;
    }
    if (config.checkpoint_restore) {
      if (Failure f = check_checkpoint_cell<Mp5Simulator>(
              compiled, trace, config, config.to_options(), result)) {
        return f;
      }
    }
  } catch (const std::exception& e) {
    failure.kind = FailureKind::kCrash;
    failure.detail = e.what();
    return failure;
  }
  return Failure{};
}

/// One replicated-variant cell under expectation mode. `failure` carries
/// anything *unexpected* (crash, drop in a lossless design,
/// nondeterminism, checkpoint breakage); reference divergence lands in
/// `equivalent`/`detail` as classification data instead.
struct VariantCheck {
  Failure failure;
  bool equivalent = false;
  std::string detail;
};

VariantCheck check_variant_cell(const Compiled& compiled, const Trace& trace,
                                const SimConfig& config) {
  VariantCheck out;
  out.failure.config = config;
  try {
    const SimResult result =
        ReplicatedSimulator(compiled.prog, config.to_replicated_options())
            .run(trace);
    if (result.egressed != result.offered) {
      // The replicated designs admit through unbounded ingress queues:
      // any drop is a simulator bug, not a consistency relaxation.
      out.failure.kind = FailureKind::kSimDivergence;
      out.failure.detail = "lossless replicated design dropped packets: "
                           "offered " +
                           std::to_string(result.offered) + ", egressed " +
                           std::to_string(result.egressed);
      return out;
    }
    // Relaxed consistency never excuses nondeterminism: the same trace
    // must produce the bit-identical result on a second run.
    const SimResult again =
        ReplicatedSimulator(compiled.prog, config.to_replicated_options())
            .run(trace);
    std::string why;
    if (!same_results(result, again, &why)) {
      out.failure.kind = FailureKind::kSimDivergence;
      out.failure.detail = "replicated run is nondeterministic: " + why;
      return out;
    }
    if (config.checkpoint_restore) {
      if (Failure f = check_checkpoint_cell<ReplicatedSimulator>(
              compiled, trace, config, config.to_replicated_options(),
              result)) {
        out.failure = std::move(f);
        return out;
      }
    }
    const EquivalenceReport report =
        check_equivalence(compiled.prog.pvsm, compiled.reference, result);
    out.equivalent = report.equivalent();
    if (!out.equivalent) out.detail = report.first_difference;
  } catch (const std::exception& e) {
    out.failure.kind = FailureKind::kCrash;
    out.failure.detail = e.what();
  }
  return out;
}

} // namespace

Failure Differ::check(const domino::Ast& ast, const Trace& trace) const {
  if (Failure f = check_oracle(ast, trace)) return f;
  const Compiled compiled = prepare(ast, trace);
  for (SimConfig config : opts_.matrix) {
    config.checkpoint_restore |= opts_.checkpoint_restore;
    if (Failure f = check_cell(compiled, trace, config)) return f;
  }
  for (SimConfig config : opts_.variant_matrix) {
    config.checkpoint_restore |= opts_.checkpoint_restore;
    VariantCheck vc = check_variant_cell(compiled, trace, config);
    if (vc.failure) return vc.failure; // only unexpected failures surface
  }
  return Failure{};
}

Failure Differ::check_config(const domino::Ast& ast, const Trace& trace,
                             const SimConfig& config) const {
  if (config.variant != DesignVariant::kMp5) {
    return check_variant_config(ast, trace, config);
  }
  return check_cell(prepare(ast, trace), trace, config);
}

Failure Differ::check_variant_config(const domino::Ast& ast,
                                     const Trace& trace,
                                     const SimConfig& config) const {
  VariantCheck vc = check_variant_cell(prepare(ast, trace), trace, config);
  if (vc.failure) return vc.failure;
  if (!vc.equivalent) {
    Failure failure;
    failure.kind = FailureKind::kVariantDivergence;
    failure.config = config;
    failure.detail = vc.detail;
    return failure;
  }
  return Failure{};
}

FailurePredicate Differ::make_predicate(const Failure& failure) const {
  const Failure target = failure;
  const bool inject = opts_.inject_floor_mod_bug;
  return [this, target, inject](const domino::Ast& ast,
                                const Trace& trace) -> bool {
    try {
      if (target.kind == FailureKind::kOracleDivergence) {
        DifferOptions sub;
        sub.inject_floor_mod_bug = inject;
        return Differ(sub).check_oracle(ast, trace).kind == target.kind;
      }
      if (target.kind == FailureKind::kVariantDivergence) {
        // A witness must keep demonstrating the *gap*: the replicated
        // variant diverges while MP5 at the same pipeline count does not.
        SimConfig mp5_cell;
        mp5_cell.pipelines = target.config.pipelines;
        if (check_config(ast, trace, mp5_cell)) return false;
        return check_variant_config(ast, trace, target.config).kind ==
               target.kind;
      }
      return check_config(ast, trace, target.config).kind == target.kind;
    } catch (const std::exception&) {
      // Candidate no longer compiles (or otherwise fails before the
      // executors run): not a reproduction.
      return false;
    }
  };
}

SeedOutcome Differ::run_seed(std::uint64_t seed) const {
  SeedOutcome out;
  out.seed = seed;
  ProgramGen gen(seed, opts_.gen);
  out.source = gen.generate();
  out.program = domino::parse(out.source);
  try {
    // Probe compilability once so legitimately rejected programs (cyclic
    // state dependencies, machine overflow) are counted as skips.
    (void)domino::compile(out.program, {}, /*reserve_stages=*/1);
  } catch (const SemanticError&) {
    return out;
  } catch (const ResourceError&) {
    return out;
  }
  out.compiled = true;

  out.trace = generate_trace(seed ^ kTraceSalt, out.program.fields.size(),
                             opts_.trace_gen);
  Rng mutation_rng(seed ^ kMutationSalt);
  for (std::uint32_t m = 0; m < opts_.trace_mutations; ++m) {
    mutate_trace(out.trace, mutation_rng, out.program.fields.size(),
                 opts_.trace_gen);
  }
  sort_by_arrival(out.trace);

  if (Failure f = check_oracle(out.program, out.trace)) {
    out.failure = std::move(f);
    return out;
  }
  const Compiled compiled = prepare(out.program, out.trace);
  for (SimConfig config : opts_.matrix) {
    config.checkpoint_restore |= opts_.checkpoint_restore;
    ++out.configs_checked;
    if (Failure f = check_cell(compiled, out.trace, config)) {
      out.failure = std::move(f);
      return out;
    }
  }
  for (SimConfig config : opts_.variant_matrix) {
    config.checkpoint_restore |= opts_.checkpoint_restore;
    ++out.configs_checked;
    VariantCheck vc = check_variant_cell(compiled, out.trace, config);
    if (vc.failure) {
      out.failure = std::move(vc.failure);
      return out;
    }
    VariantCellOutcome cell;
    cell.config = std::move(config);
    cell.equivalent = vc.equivalent;
    cell.detail = std::move(vc.detail);
    out.variant_cells.push_back(std::move(cell));
  }
  return out;
}

} // namespace mp5::fuzz
