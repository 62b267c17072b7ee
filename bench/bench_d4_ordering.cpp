// Reproduces the D4 microbenchmark (§4.3.2): fraction of packets violating
// the state-access-order condition C1, over ten independent streams, for
//   * full MP5 (phantom ordering)      — paper: 0%,
//   * MP5 without D4                   — paper: 14-26%,
//   * current-gen switch, recirculation — paper: 18-31%.
#include <iostream>
#include <utility>

#include "apps/programs.hpp"
#include "bench_util.hpp"
#include "metrics/reordering.hpp"

using namespace mp5;
using namespace mp5::bench;

int main() {
  constexpr int kStreams = 10;
  constexpr std::uint64_t kPackets = 20000;

  print_header("D4: preemptive state-access-order enforcement",
               "C1 violations: MP5 0%; w/o D4 14-26%; recirculation 18-31%");

  const auto prog = compile_for_mp5(apps::make_synthetic_source(4, 512));

  BenchReport report("d4_ordering");
  TextTable table({"stream", "MP5", "MP5 w/o D4", "recirculation",
                   "recirc Kendall tau"});
  RunningStats no_d4_stats, recirc_stats;
  for (int stream = 1; stream <= kStreams; ++stream) {
    SensitivityPoint point;
    point.pattern = AccessPattern::kSkewed;
    point.packets = kPackets;
    point.active_flows = 32;
    const auto trace = make_trace(point, static_cast<std::uint64_t>(stream));

    Mp5Simulator mp5(prog, mp5_options(4, stream));
    const double f_mp5 = mp5.run(trace).c1_fraction();

    Mp5Simulator no_d4(prog, no_d4_options(4, stream));
    const double f_no_d4 = no_d4.run(trace).c1_fraction();
    no_d4_stats.add(f_no_d4);

    RecircOptions ropts;
    ropts.seed = static_cast<std::uint64_t>(stream);
    PacketStreams streams;
    streams.attach(ropts);
    RecircSimulator recirc(prog, ropts);
    const auto r_recirc = recirc.run(trace);
    const double f_recirc = r_recirc.c1_fraction();
    recirc_stats.add(f_recirc);
    const auto reorder = analyze_reordering(std::move(streams.egress));

    report.row("stream" + std::to_string(stream))
        .metric("c1_mp5", f_mp5)
        .metric("c1_no_d4", f_no_d4)
        .metric("c1_recirc", f_recirc)
        .metric("recirc_kendall_tau", reorder.kendall_tau);
    table.add_row({TextTable::integer(stream), TextTable::pct(f_mp5),
                   TextTable::pct(f_no_d4), TextTable::pct(f_recirc),
                   TextTable::num(reorder.kendall_tau, 3)});
  }
  table.print(std::cout);
  std::cout << "\nw/o D4 range:        " << TextTable::pct(no_d4_stats.min())
            << " - " << TextTable::pct(no_d4_stats.max()) << "\n";
  std::cout << "recirculation range: " << TextTable::pct(recirc_stats.min())
            << " - " << TextTable::pct(recirc_stats.max()) << "\n";
  report.row("aggregate")
      .metric("no_d4_min", no_d4_stats.min())
      .metric("no_d4_max", no_d4_stats.max())
      .metric("recirc_min", recirc_stats.min())
      .metric("recirc_max", recirc_stats.max());
  finish_report(report);
  return 0;
}
