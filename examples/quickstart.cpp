// Quickstart: write a stateful Domino program, compile it for MP5, run it
// on the multi-pipeline simulator at line rate, and verify functional
// equivalence against the logical single-pipeline switch.
//
//   $ ./examples/quickstart
#include <iostream>

#include "banzai/single_pipeline.hpp"
#include "baseline/presets.hpp"
#include "common/rng.hpp"
#include "domino/compiler.hpp"
#include "metrics/equivalence.hpp"
#include "mp5/simulator.hpp"
#include "mp5/transform.hpp"
#include "trace/workloads.hpp"

int main() {
  using namespace mp5;

  // 1. A packet-processing program: per-source packet counters with a
  //    threshold flag (a miniature heavy-hitter detector).
  const std::string source = R"(
    struct Packet { int src; int flagged; };
    const int TABLE = 1024;
    const int THRESHOLD = 50;
    int counts[1024] = {0};
    void heavy_hitter(struct Packet p) {
      counts[p.src % TABLE] = counts[p.src % TABLE] + 1;
      p.flagged = counts[p.src % TABLE] > THRESHOLD;
    }
  )";

  // 2. Compile: Domino -> three-address code -> PVSM -> MP5 transform
  //    (preemptive address resolution + phantom generation).
  const auto compiled =
      domino::compile(source, banzai::MachineSpec{}, /*reserve_stages=*/1);
  const Mp5Program program = transform(compiled.pvsm);
  std::cout << "compiled: " << program.pvsm.stages.size()
            << " program stages (+1 address-resolution stage), "
            << program.accesses.size() << " stateful access(es), "
            << program.conservative_accesses()
            << " conservative, " << program.pinned_registers()
            << " pinned array(s)\n";

  // 3. A line-rate trace for a 4-pipeline switch.
  SyntheticConfig traffic;
  traffic.stateful_stages = 1; // field h0 drives `src`
  traffic.reg_size = 1024;
  traffic.pattern = AccessPattern::kSkewed;
  traffic.pipelines = 4;
  traffic.packets = 20000;
  traffic.active_flows = 32;
  const Trace trace = make_synthetic_trace(traffic);

  // 4. Run MP5 with 4 pipelines.
  SimOptions options = mp5_options(/*pipelines=*/4, /*seed=*/1);
  options.record_egress = true;
  Mp5Simulator simulator(program, options);
  const SimResult result = simulator.run(trace);

  std::cout << "MP5 (4 pipelines): throughput "
            << result.normalized_throughput() << ", " << result.egressed
            << "/" << result.offered << " packets, max stage queue "
            << result.max_queue_depth << ", steers " << result.steers
            << ", remap moves " << result.remap_moves << "\n";

  // 5. Verify functional equivalence against the single-pipeline switch.
  banzai::ReferenceSwitch reference(program.pvsm);
  const auto ref_result =
      reference.run(to_header_batch(trace, program.pvsm));
  const auto report = check_equivalence(program.pvsm, ref_result, result);
  std::cout << "functional equivalence: "
            << (report.equivalent() ? "OK" : "VIOLATED") << "\n";
  if (!report.equivalent()) {
    std::cout << "  first difference: " << report.first_difference << "\n";
    return 1;
  }
  std::cout << "C1 order violations: " << result.c1_violating_packets
            << "\n";
  return 0;
}
