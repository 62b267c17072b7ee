#include "banzai/atom_templates.hpp"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "common/error.hpp"

namespace mp5::banzai {
namespace {

using ir::Operand;
using ir::Slot;
using ir::TacInstr;
using ir::TacOp;

bool is_read(const TacInstr& i) { return i.op == TacOp::kRegRead; }
bool is_write(const TacInstr& i) { return i.op == TacOp::kRegWrite; }

/// Depth of select nesting on the path from `op` to a register read; -1
/// when the value does not depend on the old state at all.
struct ExprShape {
  bool uses_old = false;
  int select_depth = 0;   // selects on paths that reach the old value
  bool non_additive = false; // mul/div/shift/hash applied to the old value
  bool subtractive = false;  // sub/min/max/bitwise combining with old
  bool single_add = false;   // exactly Bin(add, old-ish, independent)
};

ExprShape shape_of(const Operand& op,
                   const std::unordered_map<Slot, const TacInstr*>& defs,
                   const std::unordered_set<Slot>& read_slots) {
  ExprShape shape;
  if (op.is_const) return shape;
  if (read_slots.count(op.slot)) {
    shape.uses_old = true;
    return shape;
  }
  auto it = defs.find(op.slot);
  if (it == defs.end()) return shape;
  const TacInstr& instr = *it->second;
  auto merge = [&](const ExprShape& inner) {
    shape.uses_old |= inner.uses_old;
    shape.select_depth = std::max(shape.select_depth, inner.select_depth);
    shape.non_additive |= inner.non_additive;
    shape.subtractive |= inner.subtractive;
  };
  switch (instr.op) {
    case TacOp::kCopy:
      return shape_of(instr.a, defs, read_slots);
    case TacOp::kUn: {
      ExprShape inner = shape_of(instr.a, defs, read_slots);
      if (inner.uses_old) inner.subtractive = true; // negation/not of state
      return inner;
    }
    case TacOp::kBin: {
      const ExprShape a = shape_of(instr.a, defs, read_slots);
      const ExprShape b = shape_of(instr.b, defs, read_slots);
      merge(a);
      merge(b);
      if (shape.uses_old) {
        switch (instr.bin) {
          case ir::BinOp::kAdd:
            shape.single_add = (a.uses_old != b.uses_old) &&
                               !shape.non_additive && !shape.subtractive &&
                               shape.select_depth == 0;
            break;
          case ir::BinOp::kSub:
          case ir::BinOp::kMin:
          case ir::BinOp::kMax:
          case ir::BinOp::kBitAnd:
          case ir::BinOp::kBitOr:
          case ir::BinOp::kBitXor:
          case ir::BinOp::kLt:
          case ir::BinOp::kLe:
          case ir::BinOp::kGt:
          case ir::BinOp::kGe:
          case ir::BinOp::kEq:
          case ir::BinOp::kNe:
          case ir::BinOp::kLAnd:
          case ir::BinOp::kLOr:
            shape.subtractive = true;
            break;
          default:
            shape.non_additive = true; // mul/div/mod/shift on state
            break;
        }
      }
      return shape;
    }
    case TacOp::kSelect: {
      const ExprShape cond = shape_of(instr.a, defs, read_slots);
      const ExprShape t = shape_of(instr.b, defs, read_slots);
      const ExprShape f = shape_of(instr.c, defs, read_slots);
      merge(cond);
      merge(t);
      merge(f);
      if (t.uses_old || f.uses_old || cond.uses_old) {
        shape.select_depth =
            1 + std::max({cond.select_depth, t.select_depth, f.select_depth});
      }
      return shape;
    }
    case TacOp::kHash: {
      for (const auto& arg : instr.hash_args) {
        merge(shape_of(arg, defs, read_slots));
      }
      if (shape.uses_old) shape.non_additive = true;
      return shape;
    }
    default:
      return shape;
  }
}

} // namespace

int template_rank(AtomTemplate t) { return static_cast<int>(t); }

const char* to_string(AtomTemplate t) {
  switch (t) {
    case AtomTemplate::kRead: return "Read";
    case AtomTemplate::kWrite: return "Write";
    case AtomTemplate::kReadWrite: return "ReadWrite";
    case AtomTemplate::kRaw: return "RAW";
    case AtomTemplate::kPraw: return "PRAW";
    case AtomTemplate::kSub: return "Sub";
    case AtomTemplate::kIfElseRaw: return "IfElseRAW";
    case AtomTemplate::kNested: return "Nested";
    case AtomTemplate::kPairs: return "Pairs";
  }
  return "?";
}

AtomTemplate classify_atom(const ir::Atom& atom) {
  if (!atom.stateful()) throw Error("classify_atom: stateless atom");

  std::unordered_map<Slot, const TacInstr*> defs;
  std::unordered_set<Slot> read_slots;
  std::size_t writes = 0;
  // All reads in an atom use the unified index, so consecutive reads with
  // no intervening write are one memory-port access (they return the same
  // value). Count read *segments* before the last write; trailing reads
  // tap the freshly written value for free.
  std::size_t read_segments_before_last_write = 0;
  std::ptrdiff_t last_write = -1;
  for (std::size_t i = 0; i < atom.body.size(); ++i) {
    if (is_write(atom.body[i])) last_write = static_cast<std::ptrdiff_t>(i);
  }
  bool in_segment = false;
  for (std::size_t i = 0; i < atom.body.size(); ++i) {
    const auto& instr = atom.body[i];
    if (instr.dst != ir::kNoSlot) defs[instr.dst] = &instr;
    if (is_read(instr)) {
      read_slots.insert(instr.dst);
      if (static_cast<std::ptrdiff_t>(i) < last_write && !in_segment) {
        ++read_segments_before_last_write;
        in_segment = true;
      }
    } else if (is_write(instr)) {
      ++writes;
      in_segment = false;
    }
  }

  if (writes == 0) return AtomTemplate::kRead;
  if (read_slots.empty()) return AtomTemplate::kWrite;
  if (writes >= 2 || read_segments_before_last_write >= 2) {
    return AtomTemplate::kPairs;
  }

  // Single read-modify-write: inspect the written value.
  const TacInstr* write = nullptr;
  for (const auto& instr : atom.body) {
    if (is_write(instr)) write = &instr;
  }
  const ExprShape shape = shape_of(write->a, defs, read_slots);
  const bool guarded = write->guard != ir::kNoSlot;

  AtomTemplate t;
  if (!shape.uses_old) {
    t = AtomTemplate::kReadWrite;
  } else if (shape.non_additive || shape.select_depth >= 2) {
    t = AtomTemplate::kNested;
  } else if (shape.select_depth == 1) {
    t = AtomTemplate::kIfElseRaw;
  } else if (shape.subtractive) {
    t = AtomTemplate::kSub;
  } else {
    t = AtomTemplate::kRaw;
  }
  if (guarded && template_rank(t) < template_rank(AtomTemplate::kPraw)) {
    t = AtomTemplate::kPraw;
  }
  return t;
}

AtomTemplate max_template(const ir::Pvsm& program) {
  AtomTemplate best = AtomTemplate::kRead;
  for (const auto& stage : program.stages) {
    for (const auto& atom : stage.atoms) {
      if (!atom.stateful() || atom.body.empty()) continue;
      const AtomTemplate t = classify_atom(atom);
      if (template_rank(t) > template_rank(best)) best = t;
    }
  }
  return best;
}

} // namespace mp5::banzai
