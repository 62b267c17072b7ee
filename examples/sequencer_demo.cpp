// §2.3.1 Example 2, end to end: a network sequencer stamps a global
// counter into every packet. On today's multi-pipelined switches the only
// way to reach state in another pipeline is re-circulation, whose delay
// reorders the stamps (functional equivalence violated); MP5's phantom
// ordering keeps every stamp equal to the packet's arrival rank.
//
//   $ ./examples/sequencer_demo
#include <iostream>
#include <memory>
#include <utility>

#include "apps/programs.hpp"
#include "baseline/presets.hpp"
#include "baseline/recirc.hpp"
#include "domino/compiler.hpp"
#include "mp5/simulator.hpp"
#include "mp5/transform.hpp"
#include "soak/rolling_verify.hpp"

using namespace mp5;

struct Checked {
  SimResult result;
  EquivalenceReport report;
  std::uint64_t misstamped = 0;
};

/// Run one design with its egress streamed into a rolling verifier
/// against the single-pipeline switch, counting on the way the packets
/// whose stamp is not their arrival rank.
template <class Sim, class Options>
Checked run_checked(const Mp5Program& program, const Trace& trace,
                    std::size_t stamp, Options opts) {
  Checked out;
  soak::RollingVerifier verifier(program.pvsm,
                                 std::make_unique<VectorTraceSource>(trace));
  verifier.attach(opts);
  opts.egress_sink = [&out, stamp, verify = std::move(opts.egress_sink)](
                         EgressRecord&& rec) {
    if (rec.headers[stamp] != static_cast<Value>(rec.seq) + 1) {
      ++out.misstamped;
    }
    verify(std::move(rec));
  };
  out.result = Sim(program, opts).run(trace);
  out.report = verifier.finish(out.result);
  return out;
}

int main() {
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

  const auto stamp = static_cast<std::size_t>(program.pvsm.slot_of("stamp"));

  // Current-generation switch with re-circulation, then MP5.
  const Checked recirc = run_checked<RecircSimulator>(program, trace, stamp,
                                                      RecircOptions{});
  const Checked mp5 =
      run_checked<Mp5Simulator>(program, trace, stamp, mp5_options(4, 1));

  std::cout << "network sequencer, 4000 packets at line rate, 4 pipelines\n\n";
  std::cout << "re-circulating switch:\n";
  std::cout << "  functionally equivalent: "
            << (recirc.report.equivalent() ? "yes" : "NO") << "\n";
  std::cout << "  mis-stamped packets:     " << recirc.misstamped << "\n";
  std::cout << "  C1-violating packets:    " << recirc.result.c1_violating_packets
            << "\n";
  std::cout << "  throughput:              "
            << recirc.result.normalized_throughput() << "\n\n";
  std::cout << "MP5:\n";
  std::cout << "  functionally equivalent: "
            << (mp5.report.equivalent() ? "yes" : "NO") << "\n";
  std::cout << "  mis-stamped packets:     " << mp5.misstamped << "\n";
  std::cout << "  C1-violating packets:    " << mp5.result.c1_violating_packets
            << "\n";
  std::cout << "  throughput:              " << mp5.result.normalized_throughput()
            << "  (single scalar register: the fundamental 1/k limit of "
               "§3.5.2)\n";
  return mp5.report.equivalent() && mp5.misstamped == 0 ? 0 : 1;
}
