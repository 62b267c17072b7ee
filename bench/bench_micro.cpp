// Microbenchmarks (google-benchmark) for the performance-critical pieces
// of the library: the stage FIFO operations, the Domino compiler, address
// resolution, and whole-simulator cycle throughput.
//
// Custom main: the usual console output plus a BENCH_micro.json capture of
// every run (see src/telemetry/bench_report.hpp for the schema and the
// MP5_BENCH_JSON_DIR output-directory override).
#include <benchmark/benchmark.h>

#include <iostream>

#include "apps/programs.hpp"
#include "banzai/single_pipeline.hpp"
#include "baseline/presets.hpp"
#include "domino/compiler.hpp"
#include "mp5/simulator.hpp"
#include "mp5/stage_fifo.hpp"
#include "packet/arena.hpp"
#include "mp5/transform.hpp"
#include "telemetry/bench_report.hpp"
#include "trace/workloads.hpp"

namespace {

using namespace mp5;

void BM_StageFifoPushInsertPop(benchmark::State& state) {
  StageFifo fifo(4, 0, false);
  SeqNo seq = 0;
  for (auto _ : state) {
    fifo.push_phantom(seq, 0, static_cast<RegIndex>(seq % 64), seq % 4);
    fifo.insert_data(seq, static_cast<PacketRef>(seq));
    benchmark::DoNotOptimize(fifo.pop());
    ++seq;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(seq));
}
BENCHMARK(BM_StageFifoPushInsertPop);

void BM_StageFifoIdealPop(benchmark::State& state) {
  StageFifo fifo(4, 0, true);
  SeqNo seq = 0;
  for (auto _ : state) {
    fifo.push_phantom(seq, 0, static_cast<RegIndex>(seq % 8), seq % 4);
    fifo.insert_data(seq, static_cast<PacketRef>(seq));
    benchmark::DoNotOptimize(fifo.pop());
    ++seq;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(seq));
}
BENCHMARK(BM_StageFifoIdealPop);

void BM_PacketArenaAllocRelease(benchmark::State& state) {
  PacketArena arena;
  arena.reserve(64);
  std::uint64_t n = 0;
  for (auto _ : state) {
    // Steady-state churn: 8 live packets cycling through the freelist.
    PacketRef refs[8];
    for (auto& r : refs) {
      r = arena.alloc();
      arena.get(r).seq = static_cast<SeqNo>(n++);
    }
    for (const auto r : refs) arena.release(r);
    benchmark::DoNotOptimize(arena.live_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_PacketArenaAllocRelease);

void BM_CompileFlowlet(benchmark::State& state) {
  const auto source = apps::flowlet_app().source;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        domino::compile(source, banzai::MachineSpec{}, 1));
  }
}
BENCHMARK(BM_CompileFlowlet);

void BM_TransformFlowlet(benchmark::State& state) {
  const auto pvsm =
      domino::compile(apps::flowlet_app().source, banzai::MachineSpec{}, 1)
          .pvsm;
  for (auto _ : state) {
    benchmark::DoNotOptimize(transform(pvsm));
  }
}
BENCHMARK(BM_TransformFlowlet);

void BM_SimulatorCyclesPerSecond(benchmark::State& state) {
  const auto k = static_cast<std::uint32_t>(state.range(0));
  const auto prog =
      transform(domino::compile(apps::make_synthetic_source(4, 512),
                                banzai::MachineSpec{}, 1)
                    .pvsm);
  SyntheticConfig config;
  config.pipelines = k;
  config.packets = 5000;
  const auto trace = make_synthetic_trace(config);
  std::uint64_t cycles = 0, packets = 0;
  for (auto _ : state) {
    Mp5Simulator sim(prog, mp5_options(k, 1));
    const auto result = sim.run(trace);
    cycles += result.cycles_run;
    packets += result.egressed;
  }
  state.counters["sim_cycles/s"] = benchmark::Counter(
      static_cast<double>(cycles), benchmark::Counter::kIsRate);
  state.counters["packets/s"] = benchmark::Counter(
      static_cast<double>(packets), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimulatorCyclesPerSecond)->Arg(2)->Arg(4)->Arg(8);

/// The idle-skip headline scenario: sparse traffic (~0.2% of line rate,
/// well under 1% cell occupancy) under a live maintenance fault plan —
/// one transient stage stall plus one lane fail/recover. The walk visits
/// only occupied cells and skips drained cycle ranges, clamping at the
/// fault boundaries. Args: {k}.
void BM_SimulatorSparse(benchmark::State& state) {
  const auto k = static_cast<std::uint32_t>(state.range(0));
  const auto prog =
      transform(domino::compile(apps::make_synthetic_source(4, 512),
                                banzai::MachineSpec{}, 1)
                    .pvsm);
  SyntheticConfig config;
  config.pipelines = k;
  config.packets = 2000;
  config.load = 0.002;
  const auto trace = make_synthetic_trace(config);
  auto opts = mp5_options(k, 1);
  opts.faults.stalls.push_back(StageStall{1, 1, 1000, 1200});
  opts.faults.pipeline_faults.push_back(PipelineFault{2, 5000, 9000});
  std::uint64_t cycles = 0, packets = 0;
  for (auto _ : state) {
    Mp5Simulator sim(prog, opts);
    const auto result = sim.run(trace);
    cycles += result.cycles_run;
    packets += result.egressed;
  }
  state.counters["sim_cycles/s"] = benchmark::Counter(
      static_cast<double>(cycles), benchmark::Counter::kIsRate);
  state.counters["packets/s"] = benchmark::Counter(
      static_cast<double>(packets), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimulatorSparse)->Arg(8)->Arg(16)->Arg(32);

void BM_ReferenceSwitch(benchmark::State& state) {
  const auto pvsm =
      domino::compile(apps::make_synthetic_source(4, 512)).pvsm;
  banzai::ReferenceSwitch sw(pvsm);
  std::vector<Value> headers(pvsm.num_slots(), 0);
  std::uint64_t n = 0;
  for (auto _ : state) {
    headers[0] = static_cast<Value>(n % 512);
    benchmark::DoNotOptimize(sw.process(headers));
    ++n;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ReferenceSwitch);

/// Console output as usual, with every (non-errored) run also captured
/// into the BENCH_micro.json report.
class CaptureReporter final : public benchmark::ConsoleReporter {
public:
  explicit CaptureReporter(telemetry::BenchReport* report)
      : report_(report) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const auto& run : runs) {
      if (run.error_occurred) continue;
      auto& row = report_->row(run.benchmark_name());
      row.metric("real_time_ns", run.GetAdjustedRealTime());
      row.metric("cpu_time_ns", run.GetAdjustedCPUTime());
      row.metric("iterations", static_cast<double>(run.iterations));
      for (const auto& [name, counter] : run.counters) {
        row.metric(name, counter.value);
      }
    }
    ConsoleReporter::ReportRuns(runs);
  }

private:
  telemetry::BenchReport* report_;
};

} // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  telemetry::BenchReport report("micro");
  CaptureReporter reporter(&report);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  std::cout << "bench json: " << report.write() << " (" << report.size()
            << " rows)\n";
  return 0;
}
