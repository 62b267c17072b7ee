// mp5fuzz — differential fuzzer for the MP5 simulator.
//
// For each seed: generate a Domino program and a packet trace, then run
// three executors — the AstInterp oracle, the banzai single-pipeline
// reference, and the MP5 simulator across a configuration matrix — and
// cross-check them. On divergence or crash the failing (program, trace)
// pair is shrunk by delta debugging and written to the corpus directory
// as a self-contained reproducer (.json + .dom + .trace.csv).
//
// The replicated design variants (scr / relaxed, ISSUE 10) run in
// *expectation mode*: they genuinely relax consistency, so divergence from
// the single-pipeline reference is per-seed classification data (the
// equivalence-class table printed at the end), not a failure. Crashes,
// drops, nondeterminism and checkpoint breakage in a variant cell remain
// failures. --witnesses N shrinks up to N divergent (seed, cell) pairs
// into committed-corpus-style reproducers that demonstrate the variant
// diverging while MP5 at the same pipeline count passes.
//
// Usage:
//   mp5fuzz --seeds 500                       full-matrix campaign
//   mp5fuzz --budget-s 60 --fail-on-divergence   CI smoke (time-boxed)
//   mp5fuzz --replay corpus/seed42-sim-divergence.json
//   mp5fuzz --inject-floor-mod-bug --seeds 50  detection self-test
//   mp5fuzz --seeds 200 --witnesses 2         collect divergence witnesses
//
// Options:
//   --seeds N            number of seeds to try (default 500; 0 = until
//                        the budget expires)
//   --seed-start S       first seed (default 1)
//   --budget-s T         wall-clock budget in seconds (default: none)
//   --matrix full|quick  simulator config matrix (default full: 9 cells)
//   --packets N          max packets per generated trace (default 96)
//   --trace-mutations N  seeded mutations per trace (default 2)
//   --corpus DIR         reproducer output directory (default fuzz-corpus)
//   --no-shrink          save failures unshrunk
//   --checkpoint         checkpoint/restore column: every matrix cell is
//                        additionally re-run with a mid-run checkpoint and
//                        restored into a fresh simulator; any deviation
//                        from the uninterrupted SimResult is a
//                        checkpoint-divergence failure
//   --no-variants        skip the replicated-variant (scr/relaxed) cells
//   --witnesses N        shrink and save up to N variant-divergence
//                        witnesses (default 0)
//   --fail-on-divergence exit 2 when any failure was found (expected
//                        variant divergences never count)
//   --inject-floor-mod-bug  self-test: off-by-one fault in the oracle's
//                        index reduction; the fuzzer must catch it
//   --replay FILE.json   replay one reproducer; exit 0 iff the observed
//                        outcome matches its "expect" field
#include <chrono>
#include <filesystem>
#include <iostream>
#include <map>
#include <string>
#include <utility>

#include "cli.hpp"
#include "fuzz/ast_printer.hpp"
#include "fuzz/differ.hpp"
#include "fuzz/repro.hpp"
#include "fuzz/shrink.hpp"

namespace {

using namespace mp5;
using namespace mp5::fuzz;

struct Args {
  std::uint64_t seeds = 500;
  std::uint64_t seed_start = 1;
  double budget_s = 0; // 0 = no budget
  std::string matrix = "full";
  std::size_t packets = 96;
  std::uint32_t trace_mutations = 2;
  std::string corpus = "fuzz-corpus";
  bool shrink_failures = true;
  bool variants = true;
  std::uint64_t witnesses = 0;
  bool checkpoint_restore = false;
  bool fail_on_divergence = false;
  bool inject_floor_mod_bug = false;
  std::string replay_file;
};

Args parse_args(int argc, char** argv) {
  Args args;
  cli::ArgReader in(argc, argv);
  while (in.next()) {
    const std::string& arg = in.arg();
    if (arg == "--seeds") in.read(args.seeds);
    else if (arg == "--seed-start") in.read(args.seed_start);
    else if (arg == "--budget-s") in.read(args.budget_s);
    else if (arg == "--matrix") args.matrix = in.value();
    else if (arg == "--packets") in.read(args.packets);
    else if (arg == "--trace-mutations") in.read(args.trace_mutations);
    else if (arg == "--corpus") args.corpus = in.value();
    else if (arg == "--no-shrink") args.shrink_failures = false;
    else if (arg == "--no-variants") args.variants = false;
    else if (arg == "--witnesses") in.read(args.witnesses);
    else if (arg == "--checkpoint") args.checkpoint_restore = true;
    else if (arg == "--fail-on-divergence") args.fail_on_divergence = true;
    else if (arg == "--inject-floor-mod-bug")
      args.inject_floor_mod_bug = true;
    else if (arg == "--replay") args.replay_file = in.value();
    else in.unknown();
  }
  if (args.matrix != "full" && args.matrix != "quick") {
    throw ConfigError("--matrix expects full|quick, got '" + args.matrix +
                      "'");
  }
  if (args.packets < 1) throw ConfigError("--packets must be >= 1");
  if (args.seeds == 0 && args.budget_s <= 0) {
    throw ConfigError("--seeds 0 needs a --budget-s limit");
  }
  return args;
}

int replay_one(const std::string& path) {
  const Reproducer repro = load_reproducer(path);
  const Failure observed = replay(repro);
  const char* expected =
      repro.kind == FailureKind::kNone ? "pass" : to_string(repro.kind);
  std::cout << "replay " << path << "\n  expect: " << expected
            << "\n  observed: " << to_string(observed.kind);
  if (observed) std::cout << " (" << observed.detail << ")";
  std::cout << "\n";
  if (observed.kind == repro.kind) {
    std::cout << "  OK\n";
    return 0;
  }
  std::cout << "  MISMATCH\n";
  return 2;
}

int run(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  if (!args.replay_file.empty()) return replay_one(args.replay_file);

  DifferOptions opts;
  opts.matrix =
      args.matrix == "quick" ? quick_config_matrix() : full_config_matrix();
  if (!args.variants) {
    opts.variant_matrix.clear();
  } else if (args.matrix == "quick") {
    opts.variant_matrix = quick_variant_matrix();
  }
  opts.trace_gen.max_packets = args.packets;
  if (opts.trace_gen.min_packets > args.packets) {
    opts.trace_gen.min_packets = args.packets;
  }
  opts.trace_mutations = args.trace_mutations;
  opts.inject_floor_mod_bug = args.inject_floor_mod_bug;
  opts.checkpoint_restore = args.checkpoint_restore;
  const Differ differ(opts);

  const auto start = std::chrono::steady_clock::now();
  auto elapsed_s = [&]() {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };

  std::uint64_t tried = 0, compiled = 0, failures = 0;
  std::uint64_t configs_checked = 0;
  std::uint64_t witnesses_saved = 0;
  // Per variant family ("scr", "relaxed1", ...): how many compiled seeds
  // were fully equivalent to the single-pipeline reference vs diverged in
  // at least one cell of that family. Expected divergences — the designs
  // relax consistency by construction.
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> families;
  for (std::uint64_t seed = args.seed_start;
       args.seeds == 0 || seed < args.seed_start + args.seeds; ++seed) {
    if (args.budget_s > 0 && elapsed_s() >= args.budget_s) break;
    ++tried;
    const SeedOutcome outcome = differ.run_seed(seed);
    if (!outcome.compiled) continue; // legitimately rejected program
    ++compiled;
    configs_checked += outcome.configs_checked;
    if (!outcome.failure) {
      std::map<std::string, bool> diverged;
      for (const VariantCellOutcome& cell : outcome.variant_cells) {
        std::string family = to_string(cell.config.variant);
        if (cell.config.variant == DesignVariant::kRelaxed) {
          family += std::to_string(cell.config.staleness);
        }
        diverged[family] |= !cell.equivalent;
      }
      for (const auto& [family, div] : diverged) {
        (div ? families[family].second : families[family].first) += 1;
      }
      if (witnesses_saved < args.witnesses) {
        for (const VariantCellOutcome& cell : outcome.variant_cells) {
          if (cell.equivalent) continue;
          Failure target;
          target.kind = FailureKind::kVariantDivergence;
          target.config = cell.config;
          target.detail = cell.detail;
          const ShrinkResult shrunk = shrink(
              outcome.program, outcome.trace, differ.make_predicate(target));
          if (!shrunk.reproduced) continue; // MP5 cell didn't pass clean
          Reproducer repro;
          repro.kind = FailureKind::kVariantDivergence;
          repro.config = cell.config;
          repro.seed = seed;
          repro.detail = cell.detail;
          repro.program_source = to_source(shrunk.program);
          repro.trace = shrunk.trace;
          std::filesystem::create_directories(args.corpus);
          const std::string path = args.corpus + "/seed" +
                                   std::to_string(seed) +
                                   "-variant-divergence.json";
          save_reproducer(repro, path);
          ++witnesses_saved;
          std::cout << "seed " << seed << ": variant-divergence witness ["
                    << cell.config.name() << "]\n  " << cell.detail
                    << "\n  shrunk to " << count_stmts(shrunk.program)
                    << " statement(s), " << shrunk.trace.size()
                    << " packet(s) (" << shrunk.evals << " evals)\n"
                    << "  witness: " << path << "\n";
          break; // at most one witness per seed
        }
      }
      continue;
    }

    ++failures;
    std::cout << "seed " << seed << ": "
              << to_string(outcome.failure.kind);
    if (outcome.failure.kind != FailureKind::kOracleDivergence) {
      std::cout << " [" << outcome.failure.config.name() << "]";
    }
    std::cout << "\n  " << outcome.failure.detail << "\n";

    Reproducer repro;
    repro.kind = outcome.failure.kind;
    repro.config = outcome.failure.config;
    repro.seed = seed;
    repro.inject_floor_mod_bug = args.inject_floor_mod_bug;
    repro.detail = outcome.failure.detail;
    domino::Ast program = clone(outcome.program);
    Trace trace = outcome.trace;
    if (args.shrink_failures) {
      const ShrinkResult shrunk = shrink(
          program, trace, differ.make_predicate(outcome.failure));
      if (shrunk.reproduced) {
        program = clone(shrunk.program);
        trace = shrunk.trace;
        std::cout << "  shrunk to " << count_stmts(program)
                  << " statement(s), " << trace.size() << " packet(s) ("
                  << shrunk.evals << " evals)\n";
      } else {
        std::cout << "  shrink failed to reproduce; saving unshrunk\n";
      }
    }
    repro.program_source = to_source(program);
    repro.trace = trace;
    std::filesystem::create_directories(args.corpus);
    const std::string path = args.corpus + "/seed" + std::to_string(seed) +
                             "-" + to_string(repro.kind) + ".json";
    save_reproducer(repro, path);
    std::cout << "  reproducer: " << path << "\n";
  }

  if (!families.empty()) {
    std::cout << "variant equivalence classes (per compiled seed, vs the "
                 "single-pipeline reference):\n";
    for (const auto& [family, counts] : families) {
      const auto [equivalent, divergent] = counts;
      std::cout << "  " << family << ": " << equivalent << " equivalent, "
                << divergent << " divergent (expected)\n";
    }
  }
  std::cout << "mp5fuzz: " << tried << " seeds (" << compiled
            << " compiled), " << configs_checked << " config runs, "
            << failures << " unexpected failure(s)";
  if (witnesses_saved > 0) {
    std::cout << ", " << witnesses_saved << " witness(es)";
  }
  std::cout << " in " << elapsed_s() << "s\n";
  if (failures > 0 && args.fail_on_divergence) return 2;
  return 0;
}

} // namespace

int main(int argc, char** argv) {
  return mp5::cli::run_main("mp5fuzz", run, argc, argv);
}
