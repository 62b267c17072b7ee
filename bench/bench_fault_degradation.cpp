// Graceful degradation under pipeline failure: kill 1 of k=4 lanes
// mid-run, bring it back later, and watch the windowed egress rate.
//
// Two offered loads tell the whole story:
//   * (k-1)/k load — the survivors' line rate. The outage is absorbed:
//     the three live lanes sustain the full offered rate, so degraded
//     capacity is within a few percent of (k-1)/k of the switch.
//   * full line rate — sustained overload. Ingress caps the survivors at
//     (k-1)/k, so the windowed rate steps down to ~0.75x healthy during
//     the outage; the backlog built up while overloaded keeps the
//     post-recovery windows slightly depressed until rebalancing migrates
//     state back onto the recovered lane (one index per remap period).
//
// Egress events are bucketed per 1000-cycle window via the timeline hook.
#include <iostream>
#include <vector>

#include "apps/programs.hpp"
#include "bench_util.hpp"

using namespace mp5;
using namespace mp5::bench;

namespace {

constexpr std::uint32_t kPipelines = 4;
constexpr Cycle kFailAt = 10000;
constexpr Cycle kRecoverAt = 20000;
constexpr Cycle kWindow = 1000;
constexpr std::uint64_t kPackets = 120000;

/// Mean egress rate (packets/cycle) over whole windows inside [from, to),
/// skipping `settle` windows at the start of the phase to let queues and
/// the shard map reach steady state.
double phase_rate(const std::vector<std::uint64_t>& buckets, Cycle from,
                  Cycle to, std::size_t settle) {
  RunningStats stats;
  for (std::size_t w = from / kWindow + settle; w + 1 <= to / kWindow; ++w) {
    if (w >= buckets.size()) break;
    stats.add(static_cast<double>(buckets[w]) / kWindow);
  }
  return stats.mean();
}

void run_load(BenchReport& report, const Mp5Program& prog, double load) {
  SyntheticConfig config;
  config.stateful_stages = 4;
  config.reg_size = 512;
  config.pipelines = kPipelines;
  config.packets = kPackets;
  config.seed = 1;
  config.load = load;
  const auto trace = make_synthetic_trace(config);

  SimOptions opts = mp5_options(kPipelines, /*seed=*/1);
  PipelineFault fault;
  fault.pipeline = 2;
  fault.fail_at = kFailAt;
  fault.recover_at = kRecoverAt;
  opts.faults.pipeline_faults.push_back(fault);

  std::vector<std::uint64_t> buckets;
  opts.timeline = [&](const TimelineEvent& ev) {
    if (ev.kind != TimelineEvent::Kind::kEgress) return;
    const std::size_t w = ev.cycle / kWindow;
    if (w >= buckets.size()) buckets.resize(w + 1, 0);
    ++buckets[w];
  };

  Mp5Simulator sim(prog, opts);
  const SimResult result = sim.run(trace);

  std::cout << "--- offered load " << TextTable::num(load, 2)
            << " (" << TextTable::num(load * kPipelines, 1)
            << " pkt/cycle) ---\n";
  TextTable table({"window (cycles)", "egress pkts", "rate pkt/cyc", "phase"});
  for (std::size_t w = 0; w < buckets.size(); ++w) {
    const Cycle start = static_cast<Cycle>(w) * kWindow;
    const char* phase = start < kFailAt      ? "healthy"
                        : start < kRecoverAt ? "1 lane down"
                                             : "recovered";
    table.add_row({TextTable::integer(start) + "-" +
                       TextTable::integer(start + kWindow),
                   TextTable::integer(buckets[w]),
                   TextTable::num(static_cast<double>(buckets[w]) / kWindow, 3),
                   phase});
  }
  table.print(std::cout);

  const double healthy = phase_rate(buckets, 0, kFailAt, /*settle=*/1);
  const double outage = phase_rate(buckets, kFailAt, kRecoverAt, /*settle=*/2);
  const double recovered =
      phase_rate(buckets, kRecoverAt,
                 static_cast<Cycle>(buckets.size()) * kWindow, /*settle=*/2);

  std::cout << "\nhealthy rate:    " << TextTable::num(healthy, 3)
            << " pkt/cycle\n"
            << "outage rate:     " << TextTable::num(outage, 3) << " ("
            << TextTable::num(outage / healthy, 3) << "x healthy)\n"
            << "recovered rate:  " << TextTable::num(recovered, 3) << " ("
            << TextTable::num(recovered / healthy, 3) << "x healthy)\n"
            << "fault drops: " << result.dropped_fault
            << ", indices re-homed: " << result.fault_remapped_indices
            << ", first egress after failure: +" << result.time_to_recover
            << " cycles\n\n";

  report.row("load" + TextTable::num(load, 2))
      .metric("offered_load", load)
      .metric("healthy_rate", healthy)
      .metric("outage_rate", outage)
      .metric("recovered_rate", recovered)
      .metric("dropped_fault", static_cast<double>(result.dropped_fault))
      .metric("indices_rehomed",
              static_cast<double>(result.fault_remapped_indices))
      .metric("time_to_recover", static_cast<double>(result.time_to_recover));
}

} // namespace

int main() {
  print_header("fault injection: graceful pipeline degradation",
               "at (k-1)/k load the outage is absorbed by the survivors; "
               "at full line rate throughput steps down to ~(k-1)/k of "
               "healthy while one lane is dead");

  const auto prog = compile_for_mp5(apps::make_synthetic_source(4, 512));
  BenchReport report("fault_degradation");
  run_load(report, prog, static_cast<double>(kPipelines - 1) / kPipelines);
  run_load(report, prog, 1.0);
  finish_report(report);
  return 0;
}
