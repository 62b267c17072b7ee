// Beyond-paper ablations of MP5 design knobs that §3.4/§3.5 discuss
// qualitatively:
//   * remap period of the dynamic sharding heuristic ("every few 100s of
//     clock cycles");
//   * bounded FIFO depth (the ASIC uses 8 entries/lane; the paper sized it
//     from the observed max queue depth of 11) -> drop behaviour;
//   * cost of conservative phantoms (stateful predicates) vs a resolvable
//     rewrite of the same program;
//   * incremental (O(touched)) vs full-scan D2 accounting on large sparse
//     tables (the production-scale case: a huge register array with a
//     small Zipf working set).
//
// `--only-sparse` runs just the incremental-accounting section. The
// program exits 1 when the incremental path is less than
// kMinSparseSpeedup times the full-scan path's accesses/s at either table
// size; both paths run in this process, so the check needs no baseline.
#include <chrono>
#include <iostream>
#include <string_view>

#include "apps/programs.hpp"
#include "bench_util.hpp"
#include "common/zipf.hpp"
#include "mp5/shard_map.hpp"

using namespace mp5;
using namespace mp5::bench;

namespace {

constexpr double kMinSparseSpeedup = 10.0;

// Drive a ShardedState directly: per window, `kPerWindow` resolved+completed
// accesses Zipf-drawn from a <=1K-index working set spread across the table,
// then one periodic rebalance through the chosen path. Returns accesses/s.
double drive_sparse_remap(std::size_t table_size, bool incremental,
                          std::uint64_t& windows_out,
                          std::uint64_t& moves_out) {
  constexpr int kPerWindow = 256;     // accesses per remap window
  constexpr std::uint64_t kHot = 1024; // distinct working-set indices
  ir::RegisterSpec spec;
  spec.name = "t";
  spec.size = table_size;
  ShardedState state({spec}, {true}, 4, ShardingPolicy::kDynamic, Rng(1));
  ZipfSampler zipf(kHot, 1.1);
  Rng rng(7);
  const std::uint64_t stride = table_size / kHot; // decouple hot set from
                                                  // initial lane placement
  std::uint64_t windows = 0, accesses = 0, moves = 0;
  const auto start = std::chrono::steady_clock::now();
  double elapsed = 0.0;
  while (elapsed < 0.25) {
    for (int batch = 0; batch < 8; ++batch, ++windows) {
      for (int a = 0; a < kPerWindow; ++a) {
        const auto index =
            static_cast<RegIndex>(zipf.sample(rng) * stride % table_size);
        state.note_resolved(0, index);
        state.note_completed(0, index);
      }
      accesses += kPerWindow;
      moves += incremental ? state.rebalance() : state.rebalance_reference();
    }
    elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            start)
                  .count();
  }
  windows_out = windows;
  moves_out = moves;
  return static_cast<double>(accesses) / elapsed;
}

} // namespace

int main(int argc, char** argv) {
  bool only_sparse = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) != "--only-sparse") {
      std::cerr << "bench_ablation_remap: unknown argument '" << argv[i]
                << "' (only --only-sparse is accepted)\n";
      return 1;
    }
    only_sparse = true;
  }
  constexpr std::uint64_t kPackets = 20000;
  constexpr int kRuns = 5;
  BenchReport report("ablation_remap");

  if (!only_sparse) {
    print_header("Ablation: dynamic-sharding remap period", "");
    const auto prog = compile_for_mp5(apps::make_synthetic_source(4, 512));
    TextTable table({"remap period (cycles)", "throughput (skewed)",
                     "remap moves"});
    for (const std::uint32_t period : {0u, 25u, 50u, 100u, 200u, 400u, 800u}) {
      RunningStats throughput;
      std::uint64_t moves = 0;
      for (int run = 1; run <= kRuns; ++run) {
        SensitivityPoint point;
        point.pattern = AccessPattern::kSkewed;
        point.packets = kPackets;
        point.active_flows = 32;
        SimOptions opts = mp5_options(4, run);
        opts.remap_period = period;
        if (period == 0) opts.sharding = ShardingPolicy::kStaticRandom;
        Mp5Simulator sim(prog, opts);
        const auto result = sim.run(make_trace(point, run));
        throughput.add(result.normalized_throughput());
        moves += result.remap_moves;
      }
      report.row("remap_period:" + std::to_string(period))
          .metric("period", period)
          .metric("throughput", throughput.mean())
          .metric("remap_moves", static_cast<double>(moves / kRuns));
      table.add_row({period == 0 ? "off (static)" : std::to_string(period),
                     TextTable::num(throughput.mean(), 3),
                     TextTable::integer(static_cast<long long>(moves / kRuns))});
    }
    table.print(std::cout);
  }

  if (!only_sparse) {
    print_header("Ablation: bounded FIFO depth vs drops",
                 "paper sizes 8 entries/lane from observed max depth 11");
    const auto prog = compile_for_mp5(apps::make_synthetic_source(4, 512));
    TextTable table({"FIFO capacity/lane", "throughput", "drop fraction",
                     "phantom drops", "data drops"});
    for (const std::size_t cap : {1ul, 2ul, 4ul, 8ul, 16ul, 0ul}) {
      SensitivityPoint point;
      point.pattern = AccessPattern::kSkewed;
      point.packets = kPackets;
      point.active_flows = 32;
      SimOptions opts = mp5_options(4, 1);
      opts.fifo_capacity = cap;
      Mp5Simulator sim(prog, opts);
      const auto result = sim.run(make_trace(point, 1));
      report.row("fifo_capacity:" + std::to_string(cap))
          .metric("capacity", static_cast<double>(cap))
          .metric("throughput", result.normalized_throughput())
          .metric("drop_fraction", result.drop_fraction())
          .metric("dropped_phantom",
                  static_cast<double>(result.dropped_phantom))
          .metric("dropped_data", static_cast<double>(result.dropped_data));
      table.add_row(
          {cap == 0 ? "unbounded" : std::to_string(cap),
           TextTable::num(result.normalized_throughput(), 3),
           TextTable::pct(result.drop_fraction()),
           TextTable::integer(static_cast<long long>(result.dropped_phantom)),
           TextTable::integer(static_cast<long long>(result.dropped_data))});
    }
    table.print(std::cout);
  }

  if (!only_sparse) {
    print_header("Ablation: conservative phantoms (stateful predicate)",
                 "one wasted pop cycle per cancelled phantom, §3.3");
    const auto prog = compile_for_mp5(apps::stateful_predicate_source());
    TextTable table({"pipelines", "throughput", "wasted cycles / packet"});
    for (const std::uint32_t k : {2u, 4u, 8u}) {
      RunningStats throughput, wasted;
      for (int run = 1; run <= kRuns; ++run) {
        SyntheticConfig config; // reuse the generic 3-field random trace
        config.stateful_stages = 2;
        config.reg_size = 64;
        config.pipelines = k;
        config.packets = kPackets;
        config.seed = static_cast<std::uint64_t>(run);
        auto trace = make_synthetic_trace(config);
        Mp5Simulator sim(prog, mp5_options(k, run));
        const auto result = sim.run(trace);
        throughput.add(result.normalized_throughput());
        wasted.add(static_cast<double>(result.wasted_cycles) /
                   static_cast<double>(result.offered));
      }
      report.row("conservative:k" + std::to_string(k))
          .metric("pipelines", k)
          .metric("throughput", throughput.mean())
          .metric("wasted_per_pkt", wasted.mean());
      table.add_row({TextTable::integer(k), TextTable::num(throughput.mean(), 3),
                     TextTable::num(wasted.mean(), 3)});
    }
    table.print(std::cout);
  }
  if (!only_sparse) {
    print_header("Ablation: starvation guard and ECN marking (§3.4)",
                 "guard drops stateless packets for over-age stateful queues; "
                 "marking flags packets joining congested FIFOs");
    // Mixed stateful/stateless traffic on a serial (scalar) register.
    const auto prog = compile_for_mp5(R"(
      struct Packet { int kind; int v; }
      ;
      int counter = 0;
      void f(struct Packet p) {
        if (p.kind == 1) { counter = counter + 1; p.v = counter; }
      }
    )");
    Rng field_rng(99);
    Trace trace;
    LineRateClock clock(4, 1.0);
    for (int i = 0; i < 20000; ++i) {
      TraceItem item;
      item.arrival_time = clock.next(64);
      item.port = static_cast<std::uint32_t>(i % 64);
      item.fields = {field_rng.chance(0.5) ? 1 : 0, 0};
      trace.push_back(std::move(item));
    }
    TextTable table({"starvation threshold", "throughput", "starved drops",
                     "ECN-marked"});
    for (const std::uint64_t threshold : {0ull, 200ull, 50ull, 10ull}) {
      SimOptions opts = mp5_options(4, 1);
      opts.starvation_threshold = threshold;
      opts.ecn_threshold = 16;
      Mp5Simulator sim(prog, opts);
      const auto result = sim.run(trace);
      report.row("starvation:" + std::to_string(threshold))
          .metric("threshold", static_cast<double>(threshold))
          .metric("throughput", result.normalized_throughput())
          .metric("dropped_starved",
                  static_cast<double>(result.dropped_starved))
          .metric("ecn_marked", static_cast<double>(result.ecn_marked));
      table.add_row(
          {threshold == 0 ? "off" : std::to_string(threshold),
           TextTable::num(result.normalized_throughput(), 3),
           TextTable::integer(static_cast<long long>(result.dropped_starved)),
           TextTable::integer(static_cast<long long>(result.ecn_marked))});
    }
    table.print(std::cout);
  }

  print_header("Ablation: incremental vs full-scan D2 accounting",
               "large sparse tables — remap cost proportional to the "
               "working set, not the table (DESIGN.md)");
  bool sparse_ok = true;
  {
    TextTable table({"table size", "accounting", "windows", "accesses/s",
                     "moves/window", "speedup"});
    for (const std::size_t size : {std::size_t{1} << 18, std::size_t{1} << 20}) {
      double rates[2] = {0.0, 0.0};
      for (const bool incremental : {false, true}) {
        std::uint64_t windows = 0, moves = 0;
        const double rate = drive_sparse_remap(size, incremental, windows,
                                               moves);
        rates[incremental ? 1 : 0] = rate;
        const std::string label = incremental ? "incremental" : "full_scan";
        report.row("sparse_remap:" + std::to_string(size) + ":" + label)
            .metric("table_size", static_cast<double>(size))
            .metric("windows", static_cast<double>(windows))
            .metric("accesses_per_second", rate)
            .metric("moves_per_window",
                    static_cast<double>(moves) / static_cast<double>(windows));
        table.add_row(
            {TextTable::integer(static_cast<long long>(size)), label,
             TextTable::integer(static_cast<long long>(windows)),
             TextTable::num(rate, 0),
             TextTable::num(static_cast<double>(moves) /
                                static_cast<double>(windows), 3),
             incremental ? TextTable::num(rates[1] / rates[0], 1) + "x" : "-"});
      }
      if (rates[1] < kMinSparseSpeedup * rates[0]) {
        std::cerr << "bench_ablation_remap: incremental accounting is only "
                  << rates[1] / rates[0] << "x the full scan at table size "
                  << size << " (floor " << kMinSparseSpeedup << "x)\n";
        sparse_ok = false;
      }
    }
    table.print(std::cout);
  }
  finish_report(report);
  return sparse_ok ? 0 : 1;
}
