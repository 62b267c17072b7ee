#include "domino/pipeline.hpp"

#include <algorithm>
#include <deque>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "common/error.hpp"

namespace mp5::domino {
namespace {

using ir::Atom;
using ir::Operand;
using ir::Slot;
using ir::TacInstr;
using ir::TacOp;

std::vector<Slot> used_slots(const TacInstr& instr) {
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

bool is_access(const TacInstr& instr) {
  return instr.op == TacOp::kRegRead || instr.op == TacOp::kRegWrite;
}

bool operand_equal(const Operand& a, const Operand& b) {
  if (a.is_const != b.is_const) return false;
  return a.is_const ? a.constant == b.constant : a.slot == b.slot;
}

class PipelineBuilder {
public:
  PipelineBuilder(const LoweredProgram& lowered, const PipelineOptions& opts)
      : in_(&lowered), opts_(opts), n_(lowered.instrs.size()) {}

  ir::Pvsm run() {
    build_instr_edges();
    build_atom_membership();
    build_nodes();
    assign_stages();
    return emit();
  }

private:
  // ---- instruction-level dependency DAG ---------------------------------
  void build_instr_edges() {
    adj_.assign(n_, {});
    // slot -> defining instruction (SSA; canonical slots are defined only
    // by their trailing egress copy).
    std::unordered_map<Slot, std::size_t> def;
    for (std::size_t i = 0; i < n_; ++i) {
      const auto& instr = in_->instrs[i];
      if (instr.dst != ir::kNoSlot) def[instr.dst] = i;
    }
    std::unordered_set<std::size_t> egress(in_->egress_copies.begin(),
                                           in_->egress_copies.end());
    auto add_edge = [&](std::size_t from, std::size_t to) {
      if (from != to) adj_[from].push_back(to);
    };
    // RAW edges: def -> use, only when the def precedes the use. Egress
    // copies never feed anything: they form a *parallel* write-back of the
    // final field versions, so every use of a canonical slot reads the
    // packet's input value.
    for (std::size_t j = 0; j < n_; ++j) {
      for (const Slot s : used_slots(in_->instrs[j])) {
        auto it = def.find(s);
        if (it != def.end() && it->second < j && !egress.count(it->second)) {
          add_edge(it->second, j);
        }
      }
    }
    // WAR edges: every reader of a canonical slot (including other egress
    // copies — the parallel-assignment semantics) must execute before the
    // egress copy overwrites it.
    for (const std::size_t copy : in_->egress_copies) {
      const Slot canonical = in_->instrs[copy].dst;
      for (std::size_t j = 0; j < n_; ++j) {
        if (j == copy) continue;
        const auto slots = used_slots(in_->instrs[j]);
        if (std::find(slots.begin(), slots.end(), canonical) != slots.end()) {
          add_edge(j, copy);
        }
      }
    }
    // Program-order chains between accesses of the same register, so a
    // later read observes an earlier write within the same packet.
    std::unordered_map<RegId, std::size_t> last_access;
    for (std::size_t i = 0; i < n_; ++i) {
      const auto& instr = in_->instrs[i];
      if (!is_access(instr)) continue;
      auto it = last_access.find(instr.reg);
      if (it != last_access.end()) add_edge(it->second, i);
      last_access[instr.reg] = i;
    }
  }

  std::vector<bool> reach_from(const std::vector<std::size_t>& seeds,
                               bool forward) const {
    // For backward reachability, walk the reverse graph.
    std::vector<std::vector<std::size_t>> radj;
    const std::vector<std::vector<std::size_t>>* graph = &adj_;
    if (!forward) {
      radj.assign(n_, {});
      for (std::size_t i = 0; i < n_; ++i) {
        for (const std::size_t j : adj_[i]) radj[j].push_back(i);
      }
      graph = &radj;
    }
    std::vector<bool> seen(n_, false);
    std::deque<std::size_t> work(seeds.begin(), seeds.end());
    for (const std::size_t s : seeds) seen[s] = true;
    while (!work.empty()) {
      const std::size_t u = work.front();
      work.pop_front();
      for (const std::size_t v : (*graph)[u]) {
        if (!seen[v]) {
          seen[v] = true;
          work.push_back(v);
        }
      }
    }
    return seen;
  }

  // ---- atom membership ---------------------------------------------------
  void build_atom_membership() {
    member_of_.assign(n_, ir::kNoReg);
    std::unordered_map<RegId, std::vector<std::size_t>> accesses;
    for (std::size_t i = 0; i < n_; ++i) {
      if (is_access(in_->instrs[i])) accesses[in_->instrs[i].reg].push_back(i);
    }
    for (const auto& [reg, acc] : accesses) {
      const auto from = reach_from(acc, /*forward=*/true);
      const auto to = reach_from(acc, /*forward=*/false);
      for (std::size_t i = 0; i < n_; ++i) {
        const bool own_access =
            is_access(in_->instrs[i]) && in_->instrs[i].reg == reg;
        const bool between = from[i] && to[i];
        if (!own_access && !between) continue;
        if (is_access(in_->instrs[i]) && in_->instrs[i].reg != reg) {
          throw SemanticError(
              "registers '" + in_->registers[in_->instrs[i].reg].name +
              "' and '" + in_->registers[reg].name +
              "' would need to be updated atomically together; this is not "
              "implementable on a Banzai pipeline (one state per atom)");
        }
        if (member_of_[i] != ir::kNoReg && member_of_[i] != reg) {
          throw SemanticError(
              "a computation is shared between the atomic updates of "
              "registers '" + in_->registers[member_of_[i]].name + "' and '" +
              in_->registers[reg].name + "'; not implementable on Banzai");
        }
        member_of_[i] = reg;
      }
    }
  }

  // ---- condensed node graph ----------------------------------------------
  struct Node {
    RegId reg = ir::kNoReg; // kNoReg => singleton stateless instruction
    std::vector<std::size_t> instrs; // sorted by program order
    Slot guard = ir::kNoSlot;        // unified access guard (atoms only)
    bool guard_negate = false;
    std::uint32_t stage = 0;
  };

  void build_nodes() {
    std::unordered_map<RegId, std::size_t> reg_node;
    node_of_.assign(n_, 0);
    for (std::size_t i = 0; i < n_; ++i) {
      const RegId reg = member_of_[i];
      if (reg == ir::kNoReg) {
        node_of_[i] = nodes_.size();
        Node node;
        node.instrs.push_back(i);
        nodes_.push_back(std::move(node));
      } else if (auto it = reg_node.find(reg); it != reg_node.end()) {
        node_of_[i] = it->second;
        nodes_[it->second].instrs.push_back(i);
      } else {
        reg_node[reg] = nodes_.size();
        node_of_[i] = nodes_.size();
        Node node;
        node.reg = reg;
        node.instrs.push_back(i);
        nodes_.push_back(std::move(node));
      }
    }
    // Unified access guard per stateful node: used by the MP5 transformer
    // to decide whether a packet will access the atom's state. If any
    // access is unguarded, or accesses carry different guards, the state
    // is (conservatively) always accessed.
    for (auto& node : nodes_) {
      if (node.reg == ir::kNoReg) continue;
      bool first = true, always = false;
      for (const std::size_t i : node.instrs) {
        const auto& instr = in_->instrs[i];
        if (!is_access(instr)) continue;
        if (instr.guard == ir::kNoSlot) {
          always = true;
          break;
        }
        if (first) {
          node.guard = instr.guard;
          node.guard_negate = instr.guard_negate;
          first = false;
        } else if (node.guard != instr.guard ||
                   node.guard_negate != instr.guard_negate) {
          always = true;
          break;
        }
      }
      if (always) {
        node.guard = ir::kNoSlot;
        node.guard_negate = false;
      }
    }
    // Condensed edges.
    node_adj_.assign(nodes_.size(), {});
    node_indeg_.assign(nodes_.size(), 0);
    std::set<std::pair<std::size_t, std::size_t>> seen;
    for (std::size_t i = 0; i < n_; ++i) {
      for (const std::size_t j : adj_[i]) {
        const std::size_t a = node_of_[i], b = node_of_[j];
        if (a == b) continue;
        if (seen.insert({a, b}).second) {
          node_adj_[a].push_back(b);
          ++node_indeg_[b];
        }
      }
    }
  }

  // ---- stage assignment -----------------------------------------------------
  static bool exclusive(const Node& a, const Node& b) {
    return a.guard != ir::kNoSlot && b.guard != ir::kNoSlot &&
           a.guard == b.guard && a.guard_negate != b.guard_negate;
  }

  void assign_stages() {
    // Kahn topological order, stable by first instruction index so the
    // result is deterministic and respects program order among peers.
    auto indeg = node_indeg_;
    auto cmp = [&](std::size_t a, std::size_t b) {
      return nodes_[a].instrs.front() > nodes_[b].instrs.front();
    };
    std::vector<std::size_t> heap;
    for (std::size_t v = 0; v < nodes_.size(); ++v) {
      if (indeg[v] == 0) heap.push_back(v);
    }
    std::make_heap(heap.begin(), heap.end(), cmp);
    std::vector<std::size_t> topo;
    std::vector<std::uint32_t> stage(nodes_.size(), 0);
    // stateful placements: stage -> node ids already holding a register
    std::unordered_map<std::uint32_t, std::vector<std::size_t>> stateful_at;
    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end(), cmp);
      const std::size_t u = heap.back();
      heap.pop_back();
      topo.push_back(u);
      if (nodes_[u].reg != ir::kNoReg && opts_.serialize_stateful) {
        for (;;) {
          bool conflict = false;
          for (const std::size_t other : stateful_at[stage[u]]) {
            if (!exclusive(nodes_[u], nodes_[other])) {
              conflict = true;
              break;
            }
          }
          if (!conflict) break;
          ++stage[u];
        }
        stateful_at[stage[u]].push_back(u);
      } else if (nodes_[u].reg != ir::kNoReg) {
        stateful_at[stage[u]].push_back(u);
      }
      nodes_[u].stage = stage[u];
      for (const std::size_t v : node_adj_[u]) {
        stage[v] = std::max(stage[v], stage[u] + 1);
        if (--indeg[v] == 0) {
          heap.push_back(v);
          std::push_heap(heap.begin(), heap.end(), cmp);
        }
      }
    }
    if (topo.size() != nodes_.size()) {
      // A cycle through >= 2 stateful atoms: name the registers involved.
      std::string regs;
      for (std::size_t v = 0; v < nodes_.size(); ++v) {
        if (indeg[v] > 0 && nodes_[v].reg != ir::kNoReg) {
          if (!regs.empty()) regs += ", ";
          regs += in_->registers[nodes_[v].reg].name;
        }
      }
      throw SemanticError(
          "cyclic dependency between stateful updates (registers: " + regs +
          "); the states cannot be placed in a feed-forward pipeline");
    }
  }

  // ---- PVSM emission ---------------------------------------------------------
  ir::Pvsm emit() {
    ir::Pvsm out;
    out.fields = in_->fields;
    out.declared_slot = in_->declared_slot;
    out.registers = in_->registers;
    std::uint32_t max_stage = 0;
    for (const auto& node : nodes_) max_stage = std::max(max_stage, node.stage);
    out.stages.resize(max_stage + 1);

    // Emit nodes into stages, ordered by first instruction index for
    // deterministic output.
    std::vector<std::size_t> order(nodes_.size());
    for (std::size_t v = 0; v < nodes_.size(); ++v) order[v] = v;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return nodes_[a].instrs.front() < nodes_[b].instrs.front();
    });
    for (const std::size_t v : order) {
      const Node& node = nodes_[v];
      Atom atom;
      atom.reg = node.reg;
      atom.guard = node.guard;
      atom.guard_negate = node.guard_negate;
      for (const std::size_t i : node.instrs) {
        atom.body.push_back(in_->instrs[i]);
      }
      if (node.reg != ir::kNoReg) {
        // Validate the single-index-per-atom requirement and record the
        // unified index operand.
        bool have_index = false;
        for (const auto& instr : atom.body) {
          if (!is_access(instr)) continue;
          if (!have_index) {
            atom.index = instr.index;
            have_index = true;
          } else if (!operand_equal(atom.index, instr.index)) {
            throw SemanticError(
                "register '" + in_->registers[node.reg].name +
                "' is accessed with multiple distinct index expressions; a "
                "Banzai atom has a single memory port");
          }
        }
      }
      out.stages[node.stage].atoms.push_back(std::move(atom));
    }
    out.declared_prefix(); // the slot layout every executor indexes by
    return out;
  }

  const LoweredProgram* in_;
  PipelineOptions opts_;
  std::size_t n_;
  std::vector<std::vector<std::size_t>> adj_;
  std::vector<RegId> member_of_;
  std::vector<Node> nodes_;
  std::vector<std::size_t> node_of_;
  std::vector<std::vector<std::size_t>> node_adj_;
  std::vector<std::size_t> node_indeg_;
};

} // namespace

ir::Pvsm pipeline(const LoweredProgram& lowered,
                  const PipelineOptions& options) {
  return PipelineBuilder(lowered, options).run();
}

} // namespace mp5::domino
