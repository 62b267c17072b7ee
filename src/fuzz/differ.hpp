// Differential-fuzzing driver: for each seed, generate a program and a
// trace, then run three executors and cross-check them —
//   1. the AstInterp oracle (direct source semantics),
//   2. the banzai::SinglePipeline reference (compiled PVSM, §2.2), and
//   3. the MP5 simulator across a configuration matrix
//      (k ∈ {2,4,8} × sharding policy)
// via check_equivalence. Every run is lossless (unbounded FIFOs) with the
// paranoid invariant watchdog armed, so a failure is a divergence, a drop
// in a lossless config, or a crash/invariant violation — exactly the
// Theorem 1 obligations (§2.2.1).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "domino/ast.hpp"
#include "fuzz/program_gen.hpp"
#include "fuzz/shrink.hpp"
#include "fuzz/trace_gen.hpp"
#include "mp5/options.hpp"
#include "trace/trace.hpp"

namespace mp5::fuzz {

/// Which design a matrix cell runs: the corpus JSON "variant" key and the
/// cell names ("k4-scr", "k2-relaxed1") use these names.
enum class DesignVariant : std::uint8_t {
  /// Mp5Simulator (SimOptions): D1-D4 and the ablations thereof.
  kMp5 = 0,
  /// ReplicatedSimulator with staleness_bound 0 (State-Compute
  /// Replication).
  kScr = 1,
  /// ReplicatedSimulator with staleness_bound = SimConfig::staleness >= 1
  /// (relaxed consistency).
  kRelaxed = 2,
};

const char* to_string(DesignVariant v);
/// Inverse of to_string; throws ConfigError on an unknown name.
DesignVariant variant_from_string(const std::string& s);

/// One cell of the simulator configuration matrix.
struct SimConfig {
  /// Consistency design for this cell. kMp5 cells exercise the Mp5Simulator
  /// knob axes below (to_options()); kScr/kRelaxed cells run the
  /// replicated-state baselines, whose only axes are pipelines, staleness
  /// (relaxed) and checkpoint_restore (to_replicated_options()).
  DesignVariant variant = DesignVariant::kMp5;
  /// Staleness bound Δ for kRelaxed cells; 0 otherwise.
  std::uint32_t staleness = 0;
  std::uint32_t pipelines = 4;
  ShardingPolicy sharding = ShardingPolicy::kDynamic;
  std::uint32_t remap_period = 32;
  std::size_t fifo_capacity = 0; // 0 = unbounded (lossless)
  std::uint64_t seed = 1;

  /// Checkpoint/restore column: after the plain run passes, re-run the
  /// cell with a mid-run checkpoint, restore it into a fresh simulator,
  /// and require the finished SimResult to be field-identical to the
  /// uninterrupted run (the mp5-checkpoint v1 bit-identity contract).
  bool checkpoint_restore = false;

  /// Stable human-readable id, e.g. "k4-dynamic"; variant cells use
  /// "k4-scr" / "k2-relaxed64" (checkpoint cells add "-ckpt").
  std::string name() const;
  SimOptions to_options() const;
  ReplicatedOptions to_replicated_options() const;
};

/// The full matrix: 3 k-values x 3 sharding policies.
std::vector<SimConfig> full_config_matrix();
/// A small subset for smoke tests (one config per distinguishing axis).
std::vector<SimConfig> quick_config_matrix();

/// Replicated-variant matrix: k ∈ {2,4,8} × {scr, relaxed Δ1, relaxed
/// Δ64, relaxed Δ512}. These cells run in
/// *expectation mode*: divergence from the single-pipeline reference is a
/// classification (the designs genuinely relax consistency), not a
/// failure — only crashes, drops, nondeterminism and checkpoint breakage
/// are unexpected.
std::vector<SimConfig> variant_config_matrix();
/// Small variant subset for smoke tests.
std::vector<SimConfig> quick_variant_matrix();

enum class FailureKind {
  kNone,
  kOracleDivergence,     // AstInterp vs single-pipeline reference
  kSimDivergence,        // MP5 simulator vs single-pipeline reference
  kCheckpointDivergence, // restore-from-checkpoint broke bit-identity
  kCrash,                // exception / invariant violation while simulating
  /// A replicated variant (scr/relaxed) diverged from the single-pipeline
  /// reference. Never produced by run_seed/check (expectation mode
  /// classifies it instead); check_variant_config returns it so that
  /// shrunk divergence *witnesses* can be replayed from the corpus.
  kVariantDivergence,
};

const char* to_string(FailureKind kind);

struct Failure {
  FailureKind kind = FailureKind::kNone;
  /// Failing matrix cell (empty for oracle divergences).
  SimConfig config;
  std::string detail;
  explicit operator bool() const { return kind != FailureKind::kNone; }
};

/// Expectation-mode classification of one replicated-variant cell.
struct VariantCellOutcome {
  SimConfig config;
  /// True when the variant matched the single-pipeline reference exactly
  /// (final registers + declared egress fields).
  bool equivalent = false;
  /// First difference when !equivalent (empty otherwise).
  std::string detail;
};

struct SeedOutcome {
  std::uint64_t seed = 0;
  /// False when the generated program was legitimately rejected by the
  /// compiler (cyclic state dependencies etc.) and the seed was skipped.
  bool compiled = false;
  std::size_t configs_checked = 0;
  std::string source;
  domino::Ast program;
  Trace trace;
  Failure failure;
  /// Per-variant-cell equivalence classification (empty when the MP5
  /// matrix already failed, or when variant_matrix is empty).
  std::vector<VariantCellOutcome> variant_cells;
};

struct DifferOptions {
  std::vector<SimConfig> matrix = full_config_matrix();
  /// Replicated-variant cells checked in expectation mode after the MP5
  /// matrix passes. Clear to skip variants entirely.
  std::vector<SimConfig> variant_matrix = variant_config_matrix();
  ProgramGen::Options gen;
  TraceGenOptions trace_gen;
  /// Extra seeded trace mutations applied after generation (0-3).
  std::uint32_t trace_mutations = 2;
  /// Fault-injection self-test: run the oracle with an off-by-one in its
  /// floor_mod index reduction. The fuzzer must then catch and shrink the
  /// resulting divergence — proving the detection pipeline works.
  bool inject_floor_mod_bug = false;
  /// Turn on SimConfig::checkpoint_restore for every matrix cell
  /// (mp5fuzz --checkpoint): each cell additionally proves
  /// checkpoint → restore → identical SimResult.
  bool checkpoint_restore = false;
};

class Differ {
public:
  explicit Differ(DifferOptions opts = {});

  /// Generate program + trace for one seed and cross-check everything.
  SeedOutcome run_seed(std::uint64_t seed) const;

  /// Cross-check one (program, trace) pair against the whole matrix.
  /// Stops at the first failure.
  Failure check(const domino::Ast& ast, const Trace& trace) const;

  /// Check a single matrix cell (used by reproducer replay).
  Failure check_config(const domino::Ast& ast, const Trace& trace,
                       const SimConfig& config) const;

  /// Check a single replicated-variant cell *strictly*: unlike the
  /// expectation-mode matrix walk, divergence from the reference comes
  /// back as kVariantDivergence (crashes / drops / nondeterminism /
  /// checkpoint breakage keep their own kinds). Used by witness shrinking
  /// and reproducer replay.
  Failure check_variant_config(const domino::Ast& ast, const Trace& trace,
                               const SimConfig& config) const;

  /// Shrink predicate reproducing `failure`: oracle divergences re-run
  /// only the oracle-vs-reference comparison; simulator divergences and
  /// crashes re-run only the failing matrix cell. Variant-divergence
  /// witnesses additionally require the MP5 cell with the same pipeline
  /// count to PASS — a witness demonstrates the variant diverging where
  /// MP5 does not. Deterministic.
  FailurePredicate make_predicate(const Failure& failure) const;

  const DifferOptions& options() const { return opts_; }

private:
  Failure check_oracle(const domino::Ast& ast, const Trace& trace) const;

  DifferOptions opts_;
};

} // namespace mp5::fuzz
