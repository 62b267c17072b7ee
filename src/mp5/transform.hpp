// PVSM-to-PVSM transformer (§3.3, Figure 5 right): compiles preemptive
// address resolution (design principle D4) into the pipeline.
//
// For every stateful atom the transformer extracts the backward slice of
// its register-index expression and of its access guard:
//   * if the slice is stateless, the computation is hoisted into the
//     address-resolution (AR) logic executed at packet arrival — the
//     "new stage at the beginning of the pipeline" of §3.3. Because the
//     lowered TAC is SSA and pure instructions are idempotent, the hoisted
//     instructions also remain in their original stages; executing them
//     early is semantics-preserving.
//   * if the guard slice is stateful, the access is marked *conservative*:
//     a phantom packet will be generated anyway and cancelled in flight
//     once the guard value is known (one wasted pop cycle, §3.3);
//   * if the index slice is stateful, the register array cannot be
//     sharded: it is pinned to one pipeline (no D2 for that array, §3.3).
//
// Arrays that share a stage with a non-mutually-exclusive stateful atom
// (possible only when the compiler fell back to the unserialized schedule)
// are likewise pinned, all to the same pipeline.
//
// The transformer can optionally append the "dummy stateful stage" of
// §3.4 (Handling starvation and packet re-ordering): a final stage whose
// ordering register is indexed by the packet's flow hash, which forces
// per-flow in-order departure.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "banzai/ir.hpp"
#include "common/types.hpp"
#include "packet/packet.hpp" // kUnresolvedIndex

namespace mp5 {

struct AccessDescriptor {
  RegId reg = 0;
  /// Stage in the transformed numbering: AR stage is 0, original stage s
  /// becomes s + 1.
  StageId stage = 0;
  ir::Operand index;
  bool index_resolvable = true;
  /// Unified access guard of the atom (kNoSlot = state always accessed).
  ir::Slot guard = ir::kNoSlot;
  bool guard_negate = false;
  bool guard_resolvable = true;
  /// Transformed stage after whose processing the guard value is known
  /// (only meaningful for unresolvable guards).
  StageId guard_known_after_stage = 0;
};

/// What address resolution decides about one access at packet arrival,
/// once the resolver slices have run on `headers`: nullopt when a guard
/// that resolves at arrival skips the access, otherwise the register index
/// it hits (kUnresolvedIndex when the index resolves only in-pipeline,
/// i.e. the array is pinned). A guard that does not resolve at arrival
/// never skips here; the access stays conservative.
inline std::optional<RegIndex> resolve_at_arrival(
    const AccessDescriptor& desc, const std::vector<Value>& headers,
    const std::vector<ir::RegisterSpec>& registers) {
  if (desc.guard != ir::kNoSlot && desc.guard_resolvable) {
    const bool truthy = headers[static_cast<std::size_t>(desc.guard)] != 0;
    if (desc.guard_negate ? truthy : !truthy) return std::nullopt;
  }
  return desc.index_resolvable
             ? ir::resolve_index(desc.index, headers, registers[desc.reg].size)
             : kUnresolvedIndex;
}

struct TransformOptions {
  /// Append the §3.4 per-flow ordering stage. `flow_fields` lists the
  /// declared packet fields hashed into the flow id.
  bool add_flow_order_stage = false;
  std::vector<std::string> flow_fields;
  std::size_t flow_order_reg_size = 1024;
};

struct Mp5Program {
  /// The program stages (original PVSM; plus the appended flow-order stage
  /// when requested). Stage s here executes at transformed stage s + 1.
  ir::Pvsm pvsm;
  /// Pure instructions executed on the packet headers at arrival; computes
  /// every preemptively resolvable index and guard value.
  std::vector<ir::TacInstr> resolver;
  /// Stateful accesses, sorted by transformed stage.
  std::vector<AccessDescriptor> accesses;
  /// Whether each register array may be sharded across pipelines (D2).
  std::vector<bool> shardable;
  /// Total transformed stages = pvsm.stages.size() + 1 (AR stage).
  StageId num_stages = 0;
  bool has_flow_order = false;
  RegId flow_order_reg = ir::kNoReg;

  /// Count of accesses whose guard could not be resolved preemptively
  /// (reported by benches: these are the paper's "wasted cycle" cases).
  std::size_t conservative_accesses() const;
  /// Count of pinned (non-shardable) register arrays.
  std::size_t pinned_registers() const;
};

Mp5Program transform(const ir::Pvsm& pvsm, const TransformOptions& options = {});

class ShardedState;

/// Append a packet's access plan to `plan`: each access of `program` whose
/// branch is taken, at the index it resolves to and the pipeline `state`
/// maps that index to, with a guard that resolves only in-pipeline marked
/// conservative. Every planned access is counted in `state`'s remap window
/// (note_resolved). Shared by the MP5 and recirculation simulators.
void plan_accesses(const Mp5Program& program, const std::vector<Value>& headers,
                   ShardedState& state, std::vector<PlannedAccess>& plan);

} // namespace mp5
