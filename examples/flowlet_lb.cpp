// Flowlet switching (§4.4) on a realistic workload: heavy-tailed
// web-search flows with bimodal packet sizes, processed by MP5 at line
// rate across a sweep of pipeline counts. Demonstrates the full pipeline:
// Domino app -> compiler -> transformer -> multi-pipeline simulation, with
// per-run equivalence checking and flowlet-behaviour statistics.
//
//   $ ./examples/flowlet_lb
#include <iostream>
#include <map>

#include "apps/programs.hpp"
#include "banzai/single_pipeline.hpp"
#include "baseline/presets.hpp"
#include "common/table.hpp"
#include "domino/compiler.hpp"
#include "metrics/equivalence.hpp"
#include "mp5/simulator.hpp"
#include "mp5/transform.hpp"

int main() {
  using namespace mp5;

  const auto app = apps::flowlet_app();
  const Mp5Program program =
      transform(domino::compile(app.source, banzai::MachineSpec{}, 1).pvsm);

  TextTable table({"pipelines", "throughput", "max stage queue",
                   "equivalent", "flowlet hop changes"});
  for (const std::uint32_t k : {1u, 2u, 4u, 8u}) {
    FlowWorkloadConfig config;
    config.pipelines = k;
    config.packets = 20000;
    config.active_flows = 64;
    config.seed = 7;
    const Trace trace = make_flow_trace(config, app.filler);

    SimOptions opts = mp5_options(k, 7);
    opts.record_egress = true;
    Mp5Simulator sim(program, opts);
    const auto result = sim.run(trace);

    banzai::ReferenceSwitch reference(program.pvsm);
    const auto ref_result =
        reference.run(to_header_batch(trace, program.pvsm));
    const auto report =
        check_equivalence(program.pvsm, ref_result, result);

    // Count flowlet-level next-hop changes per flow (the application's
    // observable behaviour).
    const auto hop_slot =
        static_cast<std::size_t>(program.pvsm.slot_of("next_hop"));
    std::map<std::uint64_t, Value> last_hop;
    std::uint64_t hop_changes = 0;
    for (const auto& rec : result.egress) {
      auto [it, inserted] = last_hop.try_emplace(rec.flow, rec.headers[hop_slot]);
      if (!inserted && it->second != rec.headers[hop_slot]) {
        ++hop_changes;
        it->second = rec.headers[hop_slot];
      }
    }

    table.add_row({TextTable::integer(k),
                   TextTable::num(result.normalized_throughput(), 3),
                   TextTable::integer(
                       static_cast<long long>(result.max_queue_depth)),
                   report.equivalent() ? "yes" : "NO",
                   TextTable::integer(static_cast<long long>(hop_changes))});
  }

  std::cout << "flowlet switching over web-search flows, bimodal "
               "200/1400 B packets, line-rate input\n\n";
  table.print(std::cout);
  std::cout << "\nLine rate at every pipeline count with bounded stage "
               "queues (cf. Figure 8a; the paper observed max 11).\n";
  return 0;
}
