#include "mp5/transform.hpp"

#include <algorithm>
#include <optional>
#include <set>
#include <unordered_map>

#include "common/error.hpp"
#include "mp5/shard_map.hpp"

namespace mp5 {
namespace {

using ir::Operand;
using ir::Slot;
using ir::TacInstr;
using ir::TacOp;

/// One linearized instruction with its location in the PVSM.
struct Located {
  const TacInstr* instr;
  StageId stage; // original PVSM stage numbering
  std::size_t linear;
};

std::vector<Slot> input_slots(const TacInstr& instr) {
  std::vector<Slot> slots;
  auto add = [&](const Operand& op) {
    if (!op.is_const) slots.push_back(op.slot);
  };
  add(instr.a);
  add(instr.b);
  add(instr.c);
  for (const auto& arg : instr.hash_args) add(arg);
  add(instr.index);
  if (instr.guard != ir::kNoSlot) slots.push_back(instr.guard);
  return slots;
}

struct SliceResult {
  bool stateless = true;
  /// Max original stage among contributing instructions (0 if none, i.e.
  /// the slot is a declared field / constant known at arrival).
  StageId known_after_original_stage = 0;
  bool has_producers = false;
  std::vector<std::size_t> members; // linear instruction ids
};

class Transformer {
public:
  Transformer(const ir::Pvsm& pvsm, const TransformOptions& options)
      : options_(options) {
    out_.pvsm = pvsm;
  }

  Mp5Program run() {
    linearize();
    collect_accesses();
    apply_pinning_rules();
    build_resolver();
    if (options_.add_flow_order_stage) append_flow_order_stage();
    std::sort(out_.accesses.begin(), out_.accesses.end(),
              [](const AccessDescriptor& a, const AccessDescriptor& b) {
                return a.stage < b.stage;
              });
    out_.num_stages =
        static_cast<StageId>(out_.pvsm.stages.size()) + 1; // + AR stage
    return std::move(out_);
  }

private:
  void linearize() {
    for (StageId s = 0; s < out_.pvsm.stages.size(); ++s) {
      for (const auto& atom : out_.pvsm.stages[s].atoms) {
        for (const auto& instr : atom.body) {
          Located loc{&instr, s, linear_.size()};
          if (instr.dst != ir::kNoSlot) {
            defs_of_[instr.dst].push_back(linear_.size());
          }
          linear_.push_back(loc);
        }
      }
    }
  }

  /// Defining instruction of `slot` as seen by a use at `use_pos`, i.e.
  /// the last def strictly before the use. Slots are single-assignment
  /// except canonical fields, whose trailing egress copy must not shadow
  /// the arrival value for earlier uses.
  std::optional<std::size_t> def_before(Slot slot, std::size_t use_pos) const {
    auto it = defs_of_.find(slot);
    if (it == defs_of_.end()) return std::nullopt;
    std::optional<std::size_t> best;
    for (const std::size_t d : it->second) {
      if (d < use_pos) best = d;
    }
    return best;
  }

  /// Backward slice of a slot (used at `use_pos`) through the dataflow.
  SliceResult slice_of(Slot slot, std::size_t use_pos) {
    SliceResult result;
    if (slot == ir::kNoSlot) return result;
    std::vector<std::pair<Slot, std::size_t>> work{{slot, use_pos}};
    std::set<std::size_t> seen;
    while (!work.empty()) {
      const auto [s, pos] = work.back();
      work.pop_back();
      const auto def = def_before(s, pos);
      if (!def) continue; // declared field: available at arrival
      if (!seen.insert(*def).second) continue;
      const Located& loc = linear_[*def];
      result.has_producers = true;
      result.known_after_original_stage =
          std::max(result.known_after_original_stage, loc.stage);
      if (loc.instr->op == TacOp::kRegRead) {
        result.stateless = false;
        continue; // do not pull the read's inputs into the resolver slice
      }
      result.members.push_back(*def);
      for (const Slot in : input_slots(*loc.instr)) {
        work.emplace_back(in, *def);
      }
    }
    return result;
  }

  SliceResult slice_of_operand(const Operand& op, std::size_t use_pos) {
    return op.is_const ? SliceResult{} : slice_of(op.slot, use_pos);
  }

  void collect_accesses() {
    out_.shardable.assign(out_.pvsm.registers.size(), true);
    std::size_t linear_pos = 0; // mirrors linearize() traversal order
    for (StageId s = 0; s < out_.pvsm.stages.size(); ++s) {
      for (const auto& atom : out_.pvsm.stages[s].atoms) {
        const std::size_t atom_first = linear_pos;
        linear_pos += atom.body.size();
        if (!atom.stateful()) continue;
        AccessDescriptor desc;
        desc.reg = atom.reg;
        desc.stage = s + 1; // shift past the AR stage
        desc.index = atom.index;
        desc.guard = atom.guard;
        desc.guard_negate = atom.guard_negate;

        const SliceResult index_slice =
            slice_of_operand(atom.index, atom_first);
        desc.index_resolvable = index_slice.stateless;
        if (!index_slice.stateless) {
          // §3.3: stateful index computation -> no sharding for this array.
          out_.shardable[atom.reg] = false;
        } else {
          add_to_resolver(index_slice);
        }

        if (atom.guard != ir::kNoSlot) {
          const SliceResult guard_slice = slice_of(atom.guard, atom_first);
          desc.guard_resolvable = guard_slice.stateless;
          if (guard_slice.stateless) {
            add_to_resolver(guard_slice);
          } else {
            // Guard becomes known once the packet has been processed at the
            // producing stage (+1 for the AR shift).
            desc.guard_known_after_stage =
                guard_slice.known_after_original_stage + 1;
            if (desc.guard_known_after_stage >= desc.stage) {
              throw Error(
                  "transform: guard for register '" +
                  out_.pvsm.registers[atom.reg].name +
                  "' resolves at or after its own stage; pipelining bug");
            }
          }
        }
        out_.accesses.push_back(desc);
      }
    }
  }

  /// Pin register arrays that share a stage with a non-mutually-exclusive
  /// stateful atom: the packet can only be in one pipeline per stage, so
  /// these arrays must live together in a single pipeline (§3.3).
  void apply_pinning_rules() {
    for (const auto& stage : out_.pvsm.stages) {
      std::vector<const ir::Atom*> stateful;
      for (const auto& atom : stage.atoms) {
        if (atom.stateful()) stateful.push_back(&atom);
      }
      if (stateful.size() < 2) continue;
      auto exclusive = [](const ir::Atom& a, const ir::Atom& b) {
        return a.guard != ir::kNoSlot && b.guard != ir::kNoSlot &&
               a.guard == b.guard && a.guard_negate != b.guard_negate;
      };
      for (std::size_t i = 0; i < stateful.size(); ++i) {
        for (std::size_t j = i + 1; j < stateful.size(); ++j) {
          if (!exclusive(*stateful[i], *stateful[j])) {
            out_.shardable[stateful[i]->reg] = false;
            out_.shardable[stateful[j]->reg] = false;
          }
        }
      }
    }
  }

  void add_to_resolver(const SliceResult& slice) {
    for (const std::size_t id : slice.members) resolver_ids_.insert(id);
  }

  void build_resolver() {
    // Linear (program) order is a topological order of the dataflow, so
    // emitting the slice instructions sorted by linear id is executable.
    for (const std::size_t id : resolver_ids_) {
      out_.resolver.push_back(*linear_[id].instr);
    }
  }

  void append_flow_order_stage() {
    if (options_.flow_fields.empty()) {
      throw ConfigError("flow-order stage requested without flow fields");
    }
    // Hidden register + hidden index slot.
    ir::RegisterSpec spec;
    spec.name = "$flow_order";
    spec.size = std::max<std::size_t>(1, options_.flow_order_reg_size);
    out_.flow_order_reg = static_cast<RegId>(out_.pvsm.registers.size());
    out_.pvsm.registers.push_back(spec);
    out_.shardable.push_back(true);

    out_.pvsm.fields.push_back(ir::FieldInfo{"$flow_idx", false});
    const Slot idx_slot = static_cast<Slot>(out_.pvsm.fields.size() - 1);

    // Resolver computes hash(flow fields) into the hidden slot.
    TacInstr hash;
    hash.op = TacOp::kHash;
    hash.dst = idx_slot;
    for (const auto& field : options_.flow_fields) {
      hash.hash_args.push_back(
          Operand::make_slot(out_.pvsm.slot_of(field)));
    }
    out_.resolver.push_back(hash);

    // Appended ordering stage: a stateful atom with an empty body — it
    // orders packets (via phantom/FIFO machinery) without touching data.
    ir::Stage stage;
    ir::Atom atom;
    atom.reg = out_.flow_order_reg;
    atom.index = Operand::make_slot(idx_slot);
    stage.atoms.push_back(std::move(atom));
    out_.pvsm.stages.push_back(std::move(stage));

    AccessDescriptor desc;
    desc.reg = out_.flow_order_reg;
    desc.stage = static_cast<StageId>(out_.pvsm.stages.size()); // last + AR
    desc.index = Operand::make_slot(idx_slot);
    desc.index_resolvable = true;
    out_.accesses.push_back(desc);
    out_.has_flow_order = true;
  }

  TransformOptions options_;
  Mp5Program out_;
  std::vector<Located> linear_;
  std::unordered_map<Slot, std::vector<std::size_t>> defs_of_;
  std::set<std::size_t> resolver_ids_;
};

} // namespace

std::size_t Mp5Program::conservative_accesses() const {
  std::size_t n = 0;
  for (const auto& a : accesses) {
    if (a.guard != ir::kNoSlot && !a.guard_resolvable) ++n;
  }
  return n;
}

std::size_t Mp5Program::pinned_registers() const {
  std::size_t n = 0;
  for (const bool s : shardable) {
    if (!s) ++n;
  }
  return n;
}

Mp5Program transform(const ir::Pvsm& pvsm, const TransformOptions& options) {
  return Transformer(pvsm, options).run();
}

void plan_accesses(const Mp5Program& program, const std::vector<Value>& headers,
                   ShardedState& state, std::vector<PlannedAccess>& plan) {
  for (const auto& desc : program.accesses) {
    const std::optional<RegIndex> index =
        resolve_at_arrival(desc, headers, program.pvsm.registers);
    if (!index) continue; // branch not taken
    PlannedAccess acc;
    acc.reg = desc.reg;
    acc.stage = desc.stage;
    acc.index = *index;
    acc.pipeline = state.pipeline_of(desc.reg, acc.index);
    if (desc.guard != ir::kNoSlot && !desc.guard_resolvable) {
      acc.guard = GuardStatus::kConservative;
      acc.guard_known_after_stage = desc.guard_known_after_stage;
      acc.guard_slot = desc.guard;
      acc.guard_negate = desc.guard_negate;
    }
    state.note_resolved(desc.reg, acc.index);
    plan.push_back(acc);
  }
}

} // namespace mp5
