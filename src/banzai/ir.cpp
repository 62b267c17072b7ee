#include "banzai/ir.hpp"

#include <algorithm>
#include <sstream>

#include "common/error.hpp"
#include "common/hashing.hpp"

namespace mp5::ir {

std::vector<RegId> Stage::stateful_regs() const {
  std::vector<RegId> regs;
  for (const auto& atom : atoms) {
    if (atom.stateful()) regs.push_back(atom.reg);
  }
  return regs;
}

Slot Pvsm::slot_of(const std::string& declared_field) const {
  auto it = declared_slot.find(declared_field);
  if (it == declared_slot.end()) {
    throw Error("Pvsm::slot_of: unknown field '" + declared_field + "'");
  }
  return it->second;
}

std::size_t Pvsm::declared_prefix() const {
  const std::size_t n = declared_slot.size();
  bool prefix = n <= fields.size();
  for (std::size_t s = 0; prefix && s < fields.size(); ++s) {
    prefix = fields[s].declared == (s < n);
  }
  for (const auto& [name, slot] : declared_slot) {
    prefix = prefix && static_cast<std::size_t>(slot) < n;
  }
  if (!prefix) throw Error("Pvsm: declared fields are not a slot prefix");
  return n;
}

std::vector<std::vector<Value>> Pvsm::initial_registers() const {
  return ir::initial_registers(registers);
}

std::vector<std::vector<Value>> initial_registers(
    const std::vector<RegisterSpec>& specs) {
  std::vector<std::vector<Value>> out;
  out.reserve(specs.size());
  for (const auto& spec : specs) {
    // Same diagnostic as the parser and sema: a size-0 array would make
    // every floor_mod(idx, size) index reduction divide by zero.
    if (spec.size == 0) {
      throw SemanticError("register '" + spec.name +
                          "' must have positive size");
    }
    std::vector<Value> arr(spec.size, 0);
    for (std::size_t i = 0; i < spec.init.size() && i < spec.size; ++i) {
      arr[i] = spec.init[i];
    }
    if (spec.init.size() == 1) {
      std::fill(arr.begin(), arr.end(), spec.init[0]);
    }
    out.push_back(std::move(arr));
  }
  return out;
}

Value eval_operand(const Operand& op, const std::vector<Value>& headers) {
  if (op.is_const) return op.constant;
  return headers[static_cast<std::size_t>(op.slot)];
}

Value apply_bin(BinOp op, Value a, Value b) {
  switch (op) {
    case BinOp::kAdd: return static_cast<Value>(
        static_cast<std::uint64_t>(a) + static_cast<std::uint64_t>(b));
    case BinOp::kSub: return static_cast<Value>(
        static_cast<std::uint64_t>(a) - static_cast<std::uint64_t>(b));
    case BinOp::kMul: return static_cast<Value>(
        static_cast<std::uint64_t>(a) * static_cast<std::uint64_t>(b));
    case BinOp::kDiv: return b == 0 ? 0 : a / b;
    case BinOp::kMod: return b == 0 ? 0 : a % b;
    case BinOp::kBitAnd: return a & b;
    case BinOp::kBitOr: return a | b;
    case BinOp::kBitXor: return a ^ b;
    case BinOp::kShl: return static_cast<Value>(
        static_cast<std::uint64_t>(a) << (static_cast<std::uint64_t>(b) & 63));
    case BinOp::kShr: return static_cast<Value>(
        static_cast<std::uint64_t>(a) >> (static_cast<std::uint64_t>(b) & 63));
    case BinOp::kLt: return a < b ? 1 : 0;
    case BinOp::kLe: return a <= b ? 1 : 0;
    case BinOp::kGt: return a > b ? 1 : 0;
    case BinOp::kGe: return a >= b ? 1 : 0;
    case BinOp::kEq: return a == b ? 1 : 0;
    case BinOp::kNe: return a != b ? 1 : 0;
    case BinOp::kLAnd: return (a != 0 && b != 0) ? 1 : 0;
    case BinOp::kLOr: return (a != 0 || b != 0) ? 1 : 0;
    case BinOp::kMin: return std::min(a, b);
    case BinOp::kMax: return std::max(a, b);
  }
  throw Error("apply_bin: bad opcode");
}

Value apply_un(UnOp op, Value a) {
  switch (op) {
    case UnOp::kNeg: return static_cast<Value>(-static_cast<std::uint64_t>(a));
    case UnOp::kLNot: return a == 0 ? 1 : 0;
    case UnOp::kBitNot: return ~a;
  }
  throw Error("apply_un: bad opcode");
}

RegIndex resolve_index(const Operand& index, const std::vector<Value>& headers,
                       std::size_t reg_size) {
  const Value raw = eval_operand(index, headers);
  return static_cast<RegIndex>(
      floor_mod(raw, static_cast<Value>(reg_size)));
}

bool guard_passes(const TacInstr& instr, const std::vector<Value>& headers) {
  if (instr.guard == kNoSlot) return true;
  const bool truthy = headers[static_cast<std::size_t>(instr.guard)] != 0;
  return instr.guard_negate ? !truthy : truthy;
}

namespace {

/// Every opcode but the register ports, unguarded: the one switch both
/// exec_instr and exec_pure dispatch to after their guard test. Forced
/// inline: both run once per executed instruction, so each must stay one
/// dispatch with no extra call.
[[gnu::always_inline]] inline void exec_compute(const TacInstr& instr,
                                               std::vector<Value>& headers) {
  switch (instr.op) {
    case TacOp::kCopy:
      headers[static_cast<std::size_t>(instr.dst)] =
          eval_operand(instr.a, headers);
      return;
    case TacOp::kUn:
      headers[static_cast<std::size_t>(instr.dst)] =
          apply_un(instr.un, eval_operand(instr.a, headers));
      return;
    case TacOp::kBin:
      headers[static_cast<std::size_t>(instr.dst)] =
          apply_bin(instr.bin, eval_operand(instr.a, headers),
                    eval_operand(instr.b, headers));
      return;
    case TacOp::kSelect:
      headers[static_cast<std::size_t>(instr.dst)] =
          eval_operand(instr.a, headers) != 0
              ? eval_operand(instr.b, headers)
              : eval_operand(instr.c, headers);
      return;
    case TacOp::kHash: {
      // Operands go straight into the hash: no temporary vector.
      const auto& args = instr.hash_args;
      const auto arg = [&](std::size_t i) {
        return eval_operand(args[i], headers);
      };
      Value h = 0;
      switch (args.size()) {
        case 2: h = hash2(arg(0), arg(1)); break;
        case 3: h = hash3(arg(0), arg(1), arg(2)); break;
        case 5: h = hash5(arg(0), arg(1), arg(2), arg(3), arg(4)); break;
        default:
          // Fold arbitrary arity through hash2.
          for (const auto& op : args) h = hash2(h, eval_operand(op, headers));
          break;
      }
      headers[static_cast<std::size_t>(instr.dst)] = h;
      return;
    }
    case TacOp::kRegRead:
    case TacOp::kRegWrite:
      break;
  }
  throw Error("exec_compute: bad opcode");
}

} // namespace

void exec_instr(const TacInstr& instr, std::vector<Value>& headers,
                FlatRegFile& regs, const std::vector<RegisterSpec>& specs,
                AccessObserver* observer) {
  if (!guard_passes(instr, headers)) return;
  switch (instr.op) {
    case TacOp::kRegRead: {
      const RegIndex idx =
          resolve_index(instr.index, headers, specs[instr.reg].size);
      if (observer) observer->on_state_access(instr.reg, idx, false);
      headers[static_cast<std::size_t>(instr.dst)] = regs.read(instr.reg, idx);
      return;
    }
    case TacOp::kRegWrite: {
      const RegIndex idx =
          resolve_index(instr.index, headers, specs[instr.reg].size);
      if (observer) observer->on_state_access(instr.reg, idx, true);
      regs.write(instr.reg, idx, eval_operand(instr.a, headers));
      return;
    }
    default:
      exec_compute(instr, headers);
      return;
  }
}

void exec_pure(const TacInstr& instr, std::vector<Value>& headers) {
  if (instr.op == TacOp::kRegRead || instr.op == TacOp::kRegWrite) return;
  if (!guard_passes(instr, headers)) return;
  exec_compute(instr, headers);
}

void exec_pure(const std::vector<TacInstr>& instrs,
               std::vector<Value>& headers) {
  for (const auto& instr : instrs) exec_pure(instr, headers);
}

void exec_atom(const Atom& atom, std::vector<Value>& headers,
               FlatRegFile& regs, const std::vector<RegisterSpec>& specs,
               AccessObserver* observer) {
  for (const auto& instr : atom.body) {
    exec_instr(instr, headers, regs, specs, observer);
  }
}

void exec_stage(const Stage& stage, std::vector<Value>& headers,
                FlatRegFile& regs, const std::vector<RegisterSpec>& specs,
                AccessObserver* observer) {
  for (const auto& atom : stage.atoms) {
    exec_atom(atom, headers, regs, specs, observer);
  }
}

namespace {

std::string slot_name(Slot s, const Pvsm& program) {
  if (s == kNoSlot) return "<none>";
  const auto& info = program.fields[static_cast<std::size_t>(s)];
  return info.name;
}

std::string operand_str(const Operand& op, const Pvsm& program) {
  if (op.is_const) return std::to_string(op.constant);
  return slot_name(op.slot, program);
}

const char* bin_str(BinOp op) {
  switch (op) {
    case BinOp::kAdd: return "+";
    case BinOp::kSub: return "-";
    case BinOp::kMul: return "*";
    case BinOp::kDiv: return "/";
    case BinOp::kMod: return "%";
    case BinOp::kBitAnd: return "&";
    case BinOp::kBitOr: return "|";
    case BinOp::kBitXor: return "^";
    case BinOp::kShl: return "<<";
    case BinOp::kShr: return ">>";
    case BinOp::kLt: return "<";
    case BinOp::kLe: return "<=";
    case BinOp::kGt: return ">";
    case BinOp::kGe: return ">=";
    case BinOp::kEq: return "==";
    case BinOp::kNe: return "!=";
    case BinOp::kLAnd: return "&&";
    case BinOp::kLOr: return "||";
    case BinOp::kMin: return "min";
    case BinOp::kMax: return "max";
  }
  return "?";
}

} // namespace

std::string to_string(const TacInstr& instr, const Pvsm& program) {
  std::ostringstream os;
  if (instr.guard != kNoSlot) {
    os << "[if " << (instr.guard_negate ? "!" : "")
       << slot_name(instr.guard, program) << "] ";
  }
  switch (instr.op) {
    case TacOp::kCopy:
      os << slot_name(instr.dst, program) << " = "
         << operand_str(instr.a, program);
      break;
    case TacOp::kUn:
      os << slot_name(instr.dst, program) << " = "
         << (instr.un == UnOp::kNeg ? "-"
             : instr.un == UnOp::kLNot ? "!" : "~")
         << operand_str(instr.a, program);
      break;
    case TacOp::kBin:
      os << slot_name(instr.dst, program) << " = "
         << operand_str(instr.a, program) << " " << bin_str(instr.bin) << " "
         << operand_str(instr.b, program);
      break;
    case TacOp::kSelect:
      os << slot_name(instr.dst, program) << " = "
         << operand_str(instr.a, program) << " ? "
         << operand_str(instr.b, program) << " : "
         << operand_str(instr.c, program);
      break;
    case TacOp::kHash: {
      os << slot_name(instr.dst, program) << " = hash(";
      for (std::size_t i = 0; i < instr.hash_args.size(); ++i) {
        os << (i ? ", " : "") << operand_str(instr.hash_args[i], program);
      }
      os << ")";
      break;
    }
    case TacOp::kRegRead:
      os << slot_name(instr.dst, program) << " = "
         << program.registers[instr.reg].name << "["
         << operand_str(instr.index, program) << "]";
      break;
    case TacOp::kRegWrite:
      os << program.registers[instr.reg].name << "["
         << operand_str(instr.index, program)
         << "] = " << operand_str(instr.a, program);
      break;
  }
  return os.str();
}

std::string to_string(const Pvsm& program) {
  std::ostringstream os;
  for (std::size_t s = 0; s < program.stages.size(); ++s) {
    os << "stage " << s << ":\n";
    for (const auto& atom : program.stages[s].atoms) {
      if (atom.stateful()) {
        os << "  atom [" << program.registers[atom.reg].name << "]";
        if (atom.guard != kNoSlot) {
          os << " guard " << (atom.guard_negate ? "!" : "")
             << slot_name(atom.guard, program);
        }
        os << ":\n";
      } else {
        os << "  atom [stateless]:\n";
      }
      for (const auto& instr : atom.body) {
        os << "    " << to_string(instr, program) << "\n";
      }
    }
  }
  return os.str();
}

} // namespace mp5::ir
