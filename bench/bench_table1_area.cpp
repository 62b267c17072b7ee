// Reproduces Table 1 (§4.2): chip area and clock speed of MP5's new
// components against varying pipelines (k) and stages (s), plus the SRAM
// overhead estimate quoted in the same section.
#include <iostream>

#include "common/table.hpp"
#include "hw/area_model.hpp"
#include "telemetry/bench_report.hpp"

int main() {
  using namespace mp5;
  using namespace mp5::hw;
  telemetry::BenchReport report("table1_area");

  std::cout << "\n=== Table 1: chip area and clock speed (analytic model "
               "calibrated to the paper's ASIC synthesis) ===\n\n";

  TextTable table({"k", "s", "model mm^2", "paper mm^2", "delta", "clock",
                   ">=1GHz"});
  for (const std::uint32_t k : {2u, 4u, 8u}) {
    for (const std::uint32_t s : {4u, 8u, 12u, 16u}) {
      HwConfig config;
      config.pipelines = k;
      config.stages = s;
      const auto area = chip_area(config);
      const double paper = paper_table1_mm2(k, s);
      report.row(std::string("k").append(std::to_string(k)).append("_s").append(
                     std::to_string(s)))
          .metric("pipelines", k)
          .metric("stages", s)
          .metric("model_mm2", area.total_mm2)
          .metric("paper_mm2", paper)
          .metric("clock_ghz", clock_ghz(config))
          .metric("meets_1ghz", meets_1ghz(config) ? 1.0 : 0.0);
      table.add_row({
          TextTable::integer(k),
          TextTable::integer(s),
          TextTable::num(area.total_mm2, 2),
          TextTable::num(paper, 2),
          TextTable::pct((area.total_mm2 - paper) / paper, 1),
          TextTable::num(clock_ghz(config), 2) + " GHz",
          meets_1ghz(config) ? "yes" : "NO",
      });
    }
  }
  table.print(std::cout);

  std::cout << "\nArea breakdown at k=4, s=16 (crossbar-dominated, cf. "
               "dRMT [12]):\n";
  HwConfig ref;
  ref.pipelines = 4;
  ref.stages = 16;
  const auto area = chip_area(ref);
  TextTable breakdown({"component", "mm^2", "share"});
  breakdown.add_row({"data crossbars", TextTable::num(area.data_crossbar_mm2, 3),
                     TextTable::pct(area.data_crossbar_mm2 / area.total_mm2)});
  breakdown.add_row(
      {"phantom crossbars", TextTable::num(area.phantom_crossbar_mm2, 3),
       TextTable::pct(area.phantom_crossbar_mm2 / area.total_mm2)});
  breakdown.add_row({"stage FIFOs", TextTable::num(area.fifo_mm2, 3),
                     TextTable::pct(area.fifo_mm2 / area.total_mm2)});
  breakdown.add_row(
      {"steering/sharding logic", TextTable::num(area.steering_logic_mm2, 3),
       TextTable::pct(area.steering_logic_mm2 / area.total_mm2)});
  breakdown.print(std::cout);
  report.row("breakdown_k4_s16")
      .metric("data_crossbar_mm2", area.data_crossbar_mm2)
      .metric("phantom_crossbar_mm2", area.phantom_crossbar_mm2)
      .metric("fifo_mm2", area.fifo_mm2)
      .metric("steering_logic_mm2", area.steering_logic_mm2)
      .metric("total_mm2", area.total_mm2);

  std::cout << "\nSRAM overhead (30 bits/register index: 6 map + 16 access "
               "counter + 8 in-flight):\n";
  TextTable sram({"stateful stages", "entries/stage", "KB per pipeline"});
  for (const std::uint32_t stages : {4u, 10u}) {
    for (const std::uint64_t entries : {512ull, 1000ull, 4096ull}) {
      sram.add_row({TextTable::integer(stages), TextTable::integer(
                                                    static_cast<long long>(entries)),
                    TextTable::num(sram_overhead_bytes_per_pipeline(
                                       stages, entries) /
                                       1024.0,
                                   1)});
    }
  }
  sram.print(std::cout);
  std::cout << "paper reference point: 10 stages x 1000 entries ~ 35 KB per "
               "pipeline, nominal against 50-100 MB switch SRAM.\n";

  std::cout << "\n(§3.5.3 future-work extension) chiplet disaggregation of "
               "an 8-pipeline, 16-stage interconnect:\n";
  TextTable chiplets({"chiplets", "local xbars mm^2", "D2D mm^2",
                      "total mm^2", "cross-chiplet clock",
                      "cross traffic"});
  HwConfig big;
  big.pipelines = 8;
  big.stages = 16;
  chiplets.add_row({"1 (monolithic)", TextTable::num(chip_area(big).total_mm2, 2),
                    "0", TextTable::num(chip_area(big).total_mm2, 2),
                    TextTable::num(clock_ghz(big), 2) + " GHz", "0%"});
  for (const std::uint32_t c : {2u, 4u}) {
    ChipletConfig config;
    config.base = big;
    config.chiplets = c;
    const auto cost = chiplet_cost(config);
    chiplets.add_row({std::to_string(c),
                      TextTable::num(cost.local_crossbar_mm2, 2),
                      TextTable::num(cost.d2d_interface_mm2, 2),
                      TextTable::num(cost.total_mm2, 2),
                      TextTable::num(cost.cross_chiplet_ghz, 2) + " GHz",
                      TextTable::pct(cost.cross_traffic_fraction, 0)});
  }
  chiplets.print(std::cout);
  std::cout << "quadratic crossbars shrink with disaggregation, but the "
               "cross-chiplet path drops below the 1 GHz stage clock — the "
               "interconnection-design problem §3.5.3 leaves open.\n";
  std::cout << "\nbench json: " << report.write() << " (" << report.size()
            << " rows)\n";
  return 0;
}
