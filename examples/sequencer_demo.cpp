// §2.3.1 Example 2, end to end: a network sequencer stamps a global
// counter into every packet. On today's multi-pipelined switches the only
// way to reach state in another pipeline is re-circulation, whose delay
// reorders the stamps (functional equivalence violated); MP5's phantom
// ordering keeps every stamp equal to the packet's arrival rank.
//
//   $ ./examples/sequencer_demo
#include <iostream>

#include "apps/programs.hpp"
#include "banzai/single_pipeline.hpp"
#include "baseline/presets.hpp"
#include "baseline/recirc.hpp"
#include "common/rng.hpp"
#include "domino/compiler.hpp"
#include "metrics/equivalence.hpp"
#include "mp5/simulator.hpp"
#include "mp5/transform.hpp"

int main() {
  using namespace mp5;

  const Mp5Program program = transform(
      domino::compile(apps::sequencer_example_source(),
                      banzai::MachineSpec{}, 1)
          .pvsm);

  // Line-rate trace across 4 pipelines, ports round-robin.
  Trace trace;
  LineRateClock clock(/*pipelines=*/4, /*load=*/1.0);
  for (int i = 0; i < 4000; ++i) {
    TraceItem item;
    item.arrival_time = clock.next(64);
    item.port = static_cast<std::uint32_t>(i % 64);
    item.fields = {0};
    trace.push_back(item);
  }

  banzai::ReferenceSwitch reference(program.pvsm);
  const auto ref_result =
      reference.run(to_header_batch(trace, program.pvsm));

  const auto stamp = static_cast<std::size_t>(program.pvsm.slot_of("stamp"));
  auto misstamped = [&](const SimResult& result) {
    std::uint64_t wrong = 0;
    for (const auto& rec : result.egress) {
      if (rec.headers[stamp] != static_cast<Value>(rec.seq) + 1) ++wrong;
    }
    return wrong;
  };

  // Current-generation switch with re-circulation.
  RecircOptions ropts;
  ropts.record_egress = true;
  RecircSimulator recirc(program, ropts);
  const auto r_recirc = recirc.run(trace);
  const auto recirc_report =
      check_equivalence(program.pvsm, ref_result, r_recirc);

  // MP5.
  SimOptions mopts = mp5_options(4, 1);
  mopts.record_egress = true;
  Mp5Simulator mp5(program, mopts);
  const auto r_mp5 = mp5.run(trace);
  const auto mp5_report = check_equivalence(program.pvsm, ref_result, r_mp5);

  std::cout << "network sequencer, 4000 packets at line rate, 4 pipelines\n\n";
  std::cout << "re-circulating switch:\n";
  std::cout << "  functionally equivalent: "
            << (recirc_report.equivalent() ? "yes" : "NO") << "\n";
  std::cout << "  mis-stamped packets:     " << misstamped(r_recirc) << "\n";
  std::cout << "  C1-violating packets:    " << r_recirc.c1_violating_packets
            << "\n";
  std::cout << "  throughput:              "
            << r_recirc.normalized_throughput() << "\n\n";
  std::cout << "MP5:\n";
  std::cout << "  functionally equivalent: "
            << (mp5_report.equivalent() ? "yes" : "NO") << "\n";
  std::cout << "  mis-stamped packets:     " << misstamped(r_mp5) << "\n";
  std::cout << "  C1-violating packets:    " << r_mp5.c1_violating_packets
            << "\n";
  std::cout << "  throughput:              " << r_mp5.normalized_throughput()
            << "  (single scalar register: the fundamental 1/k limit of "
               "§3.5.2)\n";
  return mp5_report.equivalent() && misstamped(r_mp5) == 0 ? 0 : 1;
}
