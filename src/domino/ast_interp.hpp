// Direct AST interpreter for Domino programs.
//
// This is the compiler's differential-testing oracle: the property suite
// runs random programs over random packets through (a) this interpreter
// and (b) the compiled PVSM executed by the single-pipeline reference
// switch, and requires identical final packet fields and register state.
//
// Semantics notes (shared with the compiled code):
//   * integer-only values (64-bit signed);
//   * division/modulo by zero yield 0 (hardware-style total operators);
//   * && and || evaluate both operands — expressions are side-effect-free
//     in this subset, so this is observationally equal to short-circuit;
//   * register indexes are reduced modulo the array size (non-negative).
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "banzai/single_pipeline.hpp"
#include "domino/ast.hpp"
#include "trace/trace.hpp"

namespace mp5::domino {

class AstInterp {
public:
  /// By default the program is semantically validated up front
  /// (check_semantics), so the interpreter rejects exactly what the
  /// compiler rejects. Pass validate = false to skip that and exercise
  /// the defensive runtime backstops (bad builtins and bare array reads
  /// then throw SemanticError mid-run instead).
  explicit AstInterp(const Ast& ast, bool validate = true);
  virtual ~AstInterp() = default;

  /// Process one packet; missing fields default to 0. Returns the final
  /// value of every declared field.
  std::unordered_map<std::string, Value> process(
      const std::unordered_map<std::string, Value>& fields);

  const std::vector<std::vector<Value>>& registers() const { return regs_; }

protected:
  /// Reduce a raw index expression value to an array slot in [0, size).
  /// Virtual as a fault-injection seam: the differential fuzzer's
  /// self-test subclasses this with a deliberately wrong reduction to
  /// prove the divergence pipeline catches and shrinks it.
  virtual Value reduce_index(Value raw, Value size) const;

private:
  Value eval(const Expr& e,
             const std::unordered_map<std::string, Value>& env) const;
  void exec(const Stmt& stmt, std::unordered_map<std::string, Value>& env);

  Value* lvalue_reg(const Expr& e,
                    const std::unordered_map<std::string, Value>& env);

  const Ast* ast_;
  std::unordered_map<std::string, std::size_t> reg_index_;
  std::unordered_map<std::string, Value> consts_;
  std::vector<std::vector<Value>> regs_;
};

/// Replay `trace` through `oracle` and report the result in the compiled
/// `program`'s slot space, as a ReferenceSwitch run would: each packet's
/// final declared fields at their slots (the declared prefix only) and the
/// oracle's final registers; the access log stays empty. Arrival fields
/// come from load_headers, so the oracle sees exactly what every executor
/// sees. Any executor then answers to the oracle through
/// check_equivalence (metrics/equivalence.hpp).
banzai::ReferenceResult replay(AstInterp& oracle, const ir::Pvsm& program,
                               const Trace& trace);

} // namespace mp5::domino
