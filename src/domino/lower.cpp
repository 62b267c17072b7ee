#include "domino/lower.hpp"

#include <map>
#include <sstream>
#include <unordered_map>

#include "common/error.hpp"

namespace mp5::domino {
namespace {

using ir::Operand;
using ir::Slot;
using ir::TacInstr;
using ir::TacOp;

/// Current guard: a slot holding the path condition, possibly negated.
struct Guard {
  Slot slot = ir::kNoSlot;
  bool negate = false;
  bool active() const { return slot != ir::kNoSlot; }
};

class Lowerer {
public:
  explicit Lowerer(const Ast& ast) : ast_(&ast) {
    for (const auto& [name, value] : ast.constants) consts_[name] = value;
    for (std::size_t i = 0; i < ast.registers.size(); ++i) {
      reg_id_[ast.registers[i].name] = static_cast<RegId>(i);
    }
    out_.registers = ast.registers;
    for (const auto& field : ast.fields) {
      const Slot s = new_slot(field, /*declared=*/true);
      out_.declared_slot[field] = s;
      version_[field] = s;
    }
  }

  LoweredProgram run() {
    for (const auto& stmt : ast_->body) lower_stmt(*stmt, Guard{});
    emit_egress_copies();
    return std::move(out_);
  }

private:
  // ---- slot management ---------------------------------------------------
  Slot new_slot(const std::string& name, bool declared) {
    out_.fields.push_back(ir::FieldInfo{name, declared});
    return static_cast<Slot>(out_.fields.size() - 1);
  }

  Slot new_temp(const std::string& hint) {
    return new_slot("$t" + std::to_string(temp_counter_++) + "_" + hint,
                    /*declared=*/false);
  }

  // ---- instruction emission with CSE over pure ops -----------------------
  static std::string operand_key(const Operand& op) {
    return op.is_const ? std::string("#").append(std::to_string(op.constant))
                       : std::string("s").append(std::to_string(op.slot));
  }

  /// Emit a pure instruction producing a fresh temp, or reuse an existing
  /// temp computing the same value (safe: slots are single-assignment).
  Slot emit_pure(TacInstr instr, const std::string& hint) {
    std::ostringstream key;
    key << static_cast<int>(instr.op) << "/" << static_cast<int>(instr.un)
        << "/" << static_cast<int>(instr.bin) << ":" << operand_key(instr.a)
        << "," << operand_key(instr.b) << "," << operand_key(instr.c);
    for (const auto& arg : instr.hash_args) key << "," << operand_key(arg);
    auto it = cse_.find(key.str());
    if (it != cse_.end()) return it->second;
    const Slot dst = new_temp(hint);
    instr.dst = dst;
    out_.instrs.push_back(std::move(instr));
    cse_[key.str()] = dst;
    return dst;
  }

  Slot emit_bin(ir::BinOp op, Operand a, Operand b, const std::string& hint) {
    TacInstr i;
    i.op = TacOp::kBin;
    i.bin = op;
    i.a = a;
    i.b = b;
    return emit_pure(std::move(i), hint);
  }

  Slot emit_un(ir::UnOp op, Operand a, const std::string& hint) {
    TacInstr i;
    i.op = TacOp::kUn;
    i.un = op;
    i.a = a;
    return emit_pure(std::move(i), hint);
  }

  Slot emit_select(Operand cond, Operand when_true, Operand when_false,
                   const std::string& hint) {
    TacInstr i;
    i.op = TacOp::kSelect;
    i.a = cond;
    i.b = when_true;
    i.c = when_false;
    return emit_pure(std::move(i), hint);
  }

  // ---- expression lowering ------------------------------------------------
  RegId reg_of(const std::string& name) const {
    auto it = reg_id_.find(name);
    if (it == reg_id_.end()) {
      throw SemanticError("undeclared register '" + name + "'");
    }
    return it->second;
  }

  void reject_bare_array(RegId reg) const {
    const auto& spec = out_.registers[reg];
    if (spec.size > 1) {
      throw SemanticError("register array '" + spec.name + "' (size " +
                          std::to_string(spec.size) +
                          ") cannot be accessed without an index");
    }
  }

  Operand lower_expr(const Expr& e, const Guard& guard) {
    switch (e.kind) {
      case Expr::Kind::kIntLit:
        return Operand::make_const(e.int_value);
      case Expr::Kind::kField: {
        if (!e.args.empty() && e.args[0]->name != ast_->packet_param) {
          throw SemanticError("unknown struct value '" + e.args[0]->name +
                              "' (expected packet parameter '" +
                              ast_->packet_param + "')");
        }
        auto it = version_.find(e.name);
        if (it == version_.end()) {
          throw SemanticError("undeclared packet field '" + e.name + "'");
        }
        return Operand::make_slot(it->second);
      }
      case Expr::Kind::kIdent: {
        if (auto c = consts_.find(e.name); c != consts_.end()) {
          return Operand::make_const(c->second);
        }
        // Scalar register read (sema rejects bare reads of real arrays;
        // re-checked here for callers that lower unvalidated ASTs).
        const RegId reg = reg_of(e.name);
        reject_bare_array(reg);
        return emit_reg_read(reg, Operand::make_const(0), guard);
      }
      case Expr::Kind::kReg: {
        const Operand idx = lower_expr(*e.index, guard);
        return emit_reg_read(reg_of(e.name), idx, guard);
      }
      case Expr::Kind::kUnary:
        return Operand::make_slot(
            emit_un(e.un, lower_expr(*e.a, guard), "un"));
      case Expr::Kind::kBinary:
        return Operand::make_slot(emit_bin(e.bin, lower_expr(*e.a, guard),
                                           lower_expr(*e.b, guard), "bin"));
      case Expr::Kind::kTernary: {
        const Operand cond = lower_expr(*e.a, guard);
        const Operand t = lower_expr(*e.b, guard);
        const Operand f = lower_expr(*e.c, guard);
        return Operand::make_slot(emit_select(cond, t, f, "sel"));
      }
      case Expr::Kind::kCall: {
        if (e.name == "min" || e.name == "max") {
          if (e.args.size() != 2) {
            throw SemanticError(e.name + " expects 2 arguments");
          }
          return Operand::make_slot(
              emit_bin(e.name == "min" ? ir::BinOp::kMin : ir::BinOp::kMax,
                       lower_expr(*e.args[0], guard),
                       lower_expr(*e.args[1], guard), e.name));
        }
        std::size_t arity = 0;
        if (e.name == "hash2") arity = 2;
        else if (e.name == "hash3") arity = 3;
        else if (e.name == "hash5") arity = 5;
        else throw SemanticError("unknown builtin '" + e.name + "'");
        if (e.args.size() != arity) {
          throw SemanticError(e.name + " expects " + std::to_string(arity) +
                              " arguments, got " +
                              std::to_string(e.args.size()));
        }
        TacInstr i;
        i.op = TacOp::kHash;
        for (const auto& arg : e.args) {
          i.hash_args.push_back(lower_expr(*arg, guard));
        }
        return Operand::make_slot(emit_pure(std::move(i), "hash"));
      }
    }
    throw Error("lower_expr: bad expression kind");
  }

  Operand emit_reg_read(RegId reg, const Operand& index, const Guard& guard) {
    // Register reads are impure (their value depends on interleaving), so
    // they are never CSE'd: every source-level read is its own instruction.
    TacInstr i;
    i.op = TacOp::kRegRead;
    i.reg = reg;
    i.index = index;
    i.guard = guard.slot;
    i.guard_negate = guard.negate;
    const Slot dst = new_temp("r" + out_.registers[reg].name);
    i.dst = dst;
    out_.instrs.push_back(std::move(i));
    return Operand::make_slot(dst);
  }

  // ---- statement lowering ---------------------------------------------------
  void lower_stmt(const Stmt& stmt, const Guard& guard) {
    switch (stmt.kind) {
      case Stmt::Kind::kAssign: {
        const Operand rhs = lower_expr(*stmt.rhs, guard);
        lower_assign(*stmt.lhs, rhs, guard);
        return;
      }
      case Stmt::Kind::kIf: {
        const Operand cond = lower_expr(*stmt.cond, guard);
        // Branch-local version maps: the else branch must see pre-if field
        // versions (branches are alternatives, not a sequence), and the
        // join merges differing versions with a select on this if's own
        // condition. Register accesses still carry the full path condition
        // as their guard.
        const auto before = version_;
        const Guard then_guard = combine(guard, cond, /*negate=*/false);
        for (const auto& s : stmt.then_body) lower_stmt(*s, then_guard);
        auto then_versions = std::move(version_);
        version_ = before;
        if (!stmt.else_body.empty()) {
          const Guard else_guard = combine(guard, cond, /*negate=*/true);
          for (const auto& s : stmt.else_body) lower_stmt(*s, else_guard);
        }
        for (const auto& [field, then_slot] : then_versions) {
          const Slot else_slot = version_[field];
          if (then_slot == else_slot) continue;
          version_[field] = emit_select(cond, Operand::make_slot(then_slot),
                                        Operand::make_slot(else_slot),
                                        "phi_" + field);
        }
        return;
      }
    }
  }

  Guard combine(const Guard& parent, const Operand& cond, bool negate) {
    // Normalize the condition to a slot (conditions are rarely constants,
    // but `if (1)` should still work).
    Slot cond_slot;
    if (cond.is_const) {
      TacInstr c;
      c.op = TacOp::kCopy;
      c.a = cond;
      cond_slot = emit_pure(std::move(c), "const_cond");
    } else {
      cond_slot = cond.slot;
    }
    if (!parent.active()) return Guard{cond_slot, negate};
    // Materialize parent and child as values and AND them.
    Operand parent_val = Operand::make_slot(parent.slot);
    if (parent.negate) {
      parent_val = Operand::make_slot(
          emit_un(ir::UnOp::kLNot, parent_val, "nguard"));
    }
    Operand child_val = Operand::make_slot(cond_slot);
    if (negate) {
      child_val =
          Operand::make_slot(emit_un(ir::UnOp::kLNot, child_val, "ncond"));
    }
    return Guard{emit_bin(ir::BinOp::kLAnd, parent_val, child_val, "guard"),
                 false};
  }

  void lower_assign(const Expr& lhs, const Operand& rhs, const Guard& guard) {
    if (lhs.kind == Expr::Kind::kField) {
      if (!lhs.args.empty() && lhs.args[0]->name != ast_->packet_param) {
        throw SemanticError("unknown struct value '" + lhs.args[0]->name + "'");
      }
      auto it = version_.find(lhs.name);
      if (it == version_.end()) {
        throw SemanticError("undeclared packet field '" + lhs.name + "'");
      }
      // With branch-local version maps the assignment itself is
      // unconditional; the join select at the enclosing if handles the
      // path condition. Constants are materialized so versions are slots.
      if (rhs.is_const) {
        TacInstr i;
        i.op = TacOp::kCopy;
        i.a = rhs;
        version_[lhs.name] = emit_pure(std::move(i), "v_" + lhs.name);
      } else {
        version_[lhs.name] = rhs.slot;
      }
      return;
    }
    // Register write (scalar or array element).
    RegId reg;
    Operand index = Operand::make_const(0);
    if (lhs.kind == Expr::Kind::kReg) {
      reg = reg_of(lhs.name);
      index = lower_expr(*lhs.index, guard);
    } else if (lhs.kind == Expr::Kind::kIdent) {
      if (consts_.count(lhs.name)) {
        throw SemanticError("cannot assign to constant '" + lhs.name + "'");
      }
      reg = reg_of(lhs.name);
      reject_bare_array(reg);
    } else {
      throw SemanticError("bad assignment target");
    }
    TacInstr i;
    i.op = TacOp::kRegWrite;
    i.reg = reg;
    i.index = index;
    i.a = rhs;
    i.guard = guard.slot;
    i.guard_negate = guard.negate;
    out_.instrs.push_back(std::move(i));
  }

  void emit_egress_copies() {
    for (const auto& field : ast_->fields) {
      const Slot canonical = out_.declared_slot[field];
      Slot last = version_[field];
      if (last == canonical) continue;
      // The write-back is a *parallel* assignment of final versions. When
      // a field's final version aliases another field's canonical slot
      // (e.g. a swap through a temp), snapshot it first so the write-back
      // copies cannot form a read/write cycle among themselves.
      if (out_.fields[static_cast<std::size_t>(last)].declared) {
        TacInstr snap;
        snap.op = TacOp::kCopy;
        snap.dst = new_temp("snap_" + field);
        snap.a = Operand::make_slot(last);
        last = snap.dst;
        out_.instrs.push_back(std::move(snap));
      }
      TacInstr i;
      i.op = TacOp::kCopy;
      i.dst = canonical;
      i.a = Operand::make_slot(last);
      out_.egress_copies.push_back(out_.instrs.size());
      out_.instrs.push_back(std::move(i));
    }
  }

  const Ast* ast_;
  LoweredProgram out_;
  std::unordered_map<std::string, Value> consts_;
  std::unordered_map<std::string, RegId> reg_id_;
  std::unordered_map<std::string, Slot> version_;
  std::unordered_map<std::string, Slot> cse_;
  int temp_counter_ = 0;
};

} // namespace

LoweredProgram lower(const Ast& ast) { return Lowerer(ast).run(); }

} // namespace mp5::domino
