#include "mp5/admissibility.hpp"

#include <algorithm>
#include <unordered_map>

#include "packet/packet.hpp"

namespace mp5 {

AdmissibilityReport analyze_admissibility(const Mp5Program& program,
                                          const Trace& trace,
                                          std::uint32_t pipelines) {
  AdmissibilityReport report;
  if (trace.empty() || pipelines == 0) return report;

  std::unordered_map<std::uint64_t, std::uint64_t> state_hits;
  std::unordered_map<StageId, std::uint64_t> stage_hits;

  std::vector<Value> headers;
  for (const auto& item : trace) {
    load_headers(item, program.pvsm, headers);
    ir::exec_pure(program.resolver, headers);
    for (const auto& desc : program.accesses) {
      // A pinned array resolves to kUnresolvedIndex: one serial pool.
      const std::optional<RegIndex> index =
          resolve_at_arrival(desc, headers, program.pvsm.registers);
      if (!index) continue;
      ++state_hits[(static_cast<std::uint64_t>(desc.reg) << 32) | *index];
      ++stage_hits[desc.stage];
    }
  }

  const double n = static_cast<double>(trace.size());
  for (const auto& [key, hits] : state_hits) {
    const double fraction = static_cast<double>(hits) / n;
    if (fraction > report.hottest_state_fraction) {
      report.hottest_state_fraction = fraction;
      report.hottest_reg = static_cast<RegId>(key >> 32);
      report.hottest_index = static_cast<RegIndex>(key & 0xffffffffu);
    }
  }
  for (const auto& [stage, hits] : stage_hits) {
    const double load = static_cast<double>(hits) / n;
    if (load > report.hottest_stage_load) {
      report.hottest_stage_load = load;
      report.hottest_stage = stage;
    }
  }

  double bound = 1.0;
  if (report.hottest_state_fraction > 0.0) {
    bound = std::min(bound, 1.0 / (pipelines * report.hottest_state_fraction));
  }
  if (report.hottest_stage_load > 0.0) {
    bound = std::min(bound, 1.0 / report.hottest_stage_load);
  }
  report.bound = std::min(1.0, bound);
  return report;
}

} // namespace mp5
