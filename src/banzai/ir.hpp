// Intermediate representation shared by the Domino compiler and the
// switch simulators.
//
// The IR mirrors the paper's compilation pipeline (§3.3):
//   Domino source -> three-address code (TacInstr) -> PVSM (Pvsm: stages of
//   atoms) -> machine check against a Banzai MachineSpec.
//
// An Atom models a Banzai action unit (§2.1): a digital circuit with an
// optional local register state. A stateful atom reads/modifies/writes one
// register array at one index per packet, atomically within its stage. A
// stateless atom is a pure function of header fields and constants.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"

namespace mp5::ir {

/// Packet header slot (declared field or compiler temporary).
using Slot = std::int32_t;
inline constexpr Slot kNoSlot = -1;
inline constexpr RegId kNoReg = std::numeric_limits<RegId>::max();

enum class BinOp : std::uint8_t {
  kAdd, kSub, kMul, kDiv, kMod,
  kBitAnd, kBitOr, kBitXor, kShl, kShr,
  kLt, kLe, kGt, kGe, kEq, kNe,
  kLAnd, kLOr,
  kMin, kMax,
};

enum class UnOp : std::uint8_t { kNeg, kLNot, kBitNot };

/// Either a compile-time constant or a reference to a header slot.
struct Operand {
  bool is_const = true;
  Value constant = 0;
  Slot slot = kNoSlot;

  static Operand make_const(Value v) { return Operand{true, v, kNoSlot}; }
  static Operand make_slot(Slot s) { return Operand{false, 0, s}; }
};

enum class TacOp : std::uint8_t {
  kCopy,     // dst = a
  kUn,       // dst = un a
  kBin,      // dst = a bin b
  kSelect,   // dst = a ? b : c
  kHash,     // dst = hashN(hash_args...)
  kRegRead,  // dst = reg[index]       (only inside stateful atoms)
  kRegWrite, // reg[index] = a         (only inside stateful atoms)
};

/// One three-address instruction. All register-index expressions are
/// pre-computed into header slots, so `index` is a plain operand.
///
/// `guard`: when >= 0 the instruction executes only if the guard slot's
/// value is truthy (negated when guard_negate). Guards are the residue of
/// if-conversion; they gate state accesses so that a packet only touches
/// the registers its branch actually accesses (which is what MP5's
/// address-resolution logic reasons about, §3.3).
struct TacInstr {
  TacOp op = TacOp::kCopy;
  UnOp un = UnOp::kNeg;
  BinOp bin = BinOp::kAdd;
  Slot dst = kNoSlot;
  Operand a, b, c;
  std::vector<Operand> hash_args;
  RegId reg = kNoReg;
  Operand index;
  Slot guard = kNoSlot;
  bool guard_negate = false;
};

/// Banzai action unit. reg == kNoReg for stateless atoms.
struct Atom {
  RegId reg = kNoReg;
  /// Register index operand (stateful atoms only). Every kRegRead/kRegWrite
  /// in `body` uses this same index — Banzai atoms have a single memory
  /// port, so one index per packet per atom.
  Operand index;
  /// Guard under which this atom's state access happens (kNoSlot = always).
  Slot guard = kNoSlot;
  bool guard_negate = false;
  /// Executed in order, atomically within the stage.
  std::vector<TacInstr> body;

  bool stateful() const noexcept { return reg != kNoReg; }
};

struct Stage {
  std::vector<Atom> atoms;

  /// Registers with a stateful atom in this stage.
  std::vector<RegId> stateful_regs() const;
};

struct RegisterSpec {
  std::string name;
  std::size_t size = 1; // scalar state is a size-1 array
  std::vector<Value> init;
};

struct FieldInfo {
  std::string name;
  bool declared = false; // false for compiler temporaries
};

/// Pipelined Virtual Switch Machine: the paper's intermediate model of a
/// switch pipeline with no computational or resource limits (§3.3).
struct Pvsm {
  std::vector<FieldInfo> fields;                       // slot -> info
  std::unordered_map<std::string, Slot> declared_slot; // name -> slot
  std::vector<RegisterSpec> registers;
  std::vector<Stage> stages;

  Slot slot_of(const std::string& declared_field) const;
  std::size_t num_slots() const noexcept { return fields.size(); }

  /// Number of declared fields F, after checking that they occupy slots
  /// [0, F) — the layout lowering produces and that the arrival-header
  /// loader, the oracle replay and the native egress record index by.
  /// Throws Error when the layout differs.
  std::size_t declared_prefix() const;

  /// Total initial register state, flattened per RegisterSpec.
  std::vector<std::vector<Value>> initial_registers() const;
};

/// Initial contents of register arrays: zeros overlaid with each array's
/// initializer; a single-value initializer broadcasts, as in
/// `int reg[4] = {0};`. Throws SemanticError on a size-0 array.
std::vector<std::vector<Value>> initial_registers(
    const std::vector<RegisterSpec>& specs);

/// The register file every executor runs against: one flat value per
/// (register, index). A multi-pipelined switch holds a copy of each array
/// per pipeline, but an index is only ever accessed at its one active
/// pipeline, so the copies differ physically and never observably; the
/// sharded state (mp5/shard_map.hpp) and the native backend therefore keep
/// one flat file too. Only designs that replicate state on purpose (SCR,
/// relaxed) hold one file per pipeline.
class FlatRegFile {
public:
  explicit FlatRegFile(std::vector<std::vector<Value>> storage)
      : storage_(std::move(storage)) {}

  Value read(RegId reg, RegIndex index) const { return storage_[reg][index]; }
  void write(RegId reg, RegIndex index, Value v) { storage_[reg][index] = v; }
  const std::vector<std::vector<Value>>& storage() const { return storage_; }
  std::vector<std::vector<Value>>& storage() { return storage_; }

private:
  std::vector<std::vector<Value>> storage_;
};

/// Evaluate an operand against a header vector.
Value eval_operand(const Operand& op, const std::vector<Value>& headers);

/// Apply a binary / unary operator with the library's fixed semantics
/// (division/modulo by zero yield 0; shifts are masked to 0..63).
Value apply_bin(BinOp op, Value a, Value b);
Value apply_un(UnOp op, Value a);

/// Resolve a register index operand: evaluated value taken modulo the
/// array size (non-negative), matching reg[expr % N] program idiom even
/// when expr itself was not reduced.
RegIndex resolve_index(const Operand& index, const std::vector<Value>& headers,
                       std::size_t reg_size);

/// True if the instruction's guard (if any) passes for these headers.
bool guard_passes(const TacInstr& instr, const std::vector<Value>& headers);

/// Execute one instruction in place. Register accesses go through `regs`
/// using the instruction's own index operand. Optional observer is invoked
/// for every performed (guard-passing) state access, with the concrete
/// index — used by the C1-order checker and sharding statistics.
struct AccessObserver {
  virtual ~AccessObserver() = default;
  virtual void on_state_access(RegId reg, RegIndex index, bool is_write) = 0;
};

void exec_instr(const TacInstr& instr, std::vector<Value>& headers,
                FlatRegFile& regs, const std::vector<RegisterSpec>& specs,
                AccessObserver* observer = nullptr);

/// Execute the pure part of instructions: guards are honoured and register
/// reads and writes are skipped, so no register file is needed. Runs the
/// address resolver (pure by construction) and the body of an atom whose
/// state access happens elsewhere or not at all (pass-through execution).
void exec_pure(const TacInstr& instr, std::vector<Value>& headers);
void exec_pure(const std::vector<TacInstr>& instrs,
               std::vector<Value>& headers);

/// Execute a whole atom (guard checked once for the state access path;
/// stateless instructions inside the body still honour their own guards).
void exec_atom(const Atom& atom, std::vector<Value>& headers,
               FlatRegFile& regs, const std::vector<RegisterSpec>& specs,
               AccessObserver* observer = nullptr);

/// Execute every atom of a stage in order.
void exec_stage(const Stage& stage, std::vector<Value>& headers,
                FlatRegFile& regs, const std::vector<RegisterSpec>& specs,
                AccessObserver* observer = nullptr);

/// Human-readable dumps (debugging, golden tests).
std::string to_string(const TacInstr& instr, const Pvsm& program);
std::string to_string(const Pvsm& program);

} // namespace mp5::ir
