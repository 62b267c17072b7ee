#include "domino/ast_interp.hpp"

#include "common/error.hpp"
#include "common/hashing.hpp"
#include "domino/sema.hpp"

namespace mp5::domino {

AstInterp::AstInterp(const Ast& ast, bool validate) : ast_(&ast) {
  if (validate) check_semantics(ast);
  for (std::size_t i = 0; i < ast.registers.size(); ++i) {
    reg_index_[ast.registers[i].name] = i;
  }
  for (const auto& [name, value] : ast.constants) consts_[name] = value;
  // Initial register state, matching Pvsm::initial_registers().
  for (const auto& spec : ast.registers) {
    std::vector<Value> arr(spec.size, 0);
    for (std::size_t i = 0; i < spec.init.size() && i < spec.size; ++i) {
      arr[i] = spec.init[i];
    }
    if (spec.init.size() == 1) std::fill(arr.begin(), arr.end(), spec.init[0]);
    regs_.push_back(std::move(arr));
  }
}

Value AstInterp::eval(const Expr& e,
                      const std::unordered_map<std::string, Value>& env) const {
  switch (e.kind) {
    case Expr::Kind::kIntLit:
      return e.int_value;
    case Expr::Kind::kField: {
      auto it = env.find(e.name);
      return it == env.end() ? 0 : it->second;
    }
    case Expr::Kind::kIdent: {
      if (auto c = consts_.find(e.name); c != consts_.end()) return c->second;
      auto r = reg_index_.find(e.name);
      if (r == reg_index_.end()) {
        throw SemanticError("undeclared identifier '" + e.name + "'");
      }
      const auto& arr = regs_[r->second];
      if (arr.size() > 1) {
        // Backstop for unvalidated programs; sema rejects this up front.
        throw SemanticError("register array '" + e.name + "' (size " +
                            std::to_string(arr.size()) +
                            ") cannot be accessed without an index");
      }
      return arr[0];
    }
    case Expr::Kind::kReg: {
      auto r = reg_index_.find(e.name);
      if (r == reg_index_.end()) {
        throw SemanticError("undeclared register '" + e.name + "'");
      }
      const auto& arr = regs_[r->second];
      const Value idx =
          reduce_index(eval(*e.index, env), static_cast<Value>(arr.size()));
      return arr[static_cast<std::size_t>(idx)];
    }
    case Expr::Kind::kUnary:
      return ir::apply_un(e.un, eval(*e.a, env));
    case Expr::Kind::kBinary:
      return ir::apply_bin(e.bin, eval(*e.a, env), eval(*e.b, env));
    case Expr::Kind::kTernary:
      return eval(*e.a, env) != 0 ? eval(*e.b, env) : eval(*e.c, env);
    case Expr::Kind::kCall: {
      std::vector<Value> args;
      args.reserve(e.args.size());
      for (const auto& a : e.args) args.push_back(eval(*a, env));
      if (e.name == "hash2" && args.size() == 2) return hash2(args[0], args[1]);
      if (e.name == "hash3" && args.size() == 3) {
        return hash3(args[0], args[1], args[2]);
      }
      if (e.name == "hash5" && args.size() == 5) {
        return hash5(args[0], args[1], args[2], args[3], args[4]);
      }
      if (e.name == "min" && args.size() == 2) {
        return ir::apply_bin(ir::BinOp::kMin, args[0], args[1]);
      }
      if (e.name == "max" && args.size() == 2) {
        return ir::apply_bin(ir::BinOp::kMax, args[0], args[1]);
      }
      throw SemanticError("unknown builtin '" + e.name + "' with " +
                          std::to_string(args.size()) + " args");
    }
  }
  throw Error("AstInterp::eval: bad expression kind");
}

Value* AstInterp::lvalue_reg(const Expr& e,
                             const std::unordered_map<std::string, Value>& env) {
  auto r = reg_index_.find(e.name);
  if (r == reg_index_.end()) {
    throw SemanticError("undeclared register '" + e.name + "'");
  }
  auto& arr = regs_[r->second];
  Value idx = 0;
  if (e.kind == Expr::Kind::kReg) {
    idx = reduce_index(eval(*e.index, env), static_cast<Value>(arr.size()));
  } else if (arr.size() > 1) {
    // Backstop for unvalidated programs; sema rejects this up front.
    throw SemanticError("register array '" + e.name + "' (size " +
                        std::to_string(arr.size()) +
                        ") cannot be accessed without an index");
  }
  return &arr[static_cast<std::size_t>(idx)];
}

Value AstInterp::reduce_index(Value raw, Value size) const {
  return floor_mod(raw, size);
}

void AstInterp::exec(const Stmt& stmt,
                     std::unordered_map<std::string, Value>& env) {
  switch (stmt.kind) {
    case Stmt::Kind::kAssign: {
      const Value v = eval(*stmt.rhs, env);
      if (stmt.lhs->kind == Expr::Kind::kField) {
        env[stmt.lhs->name] = v;
      } else {
        *lvalue_reg(*stmt.lhs, env) = v;
      }
      return;
    }
    case Stmt::Kind::kIf: {
      const auto& body =
          eval(*stmt.cond, env) != 0 ? stmt.then_body : stmt.else_body;
      for (const auto& s : body) exec(*s, env);
      return;
    }
  }
}

std::unordered_map<std::string, Value> AstInterp::process(
    const std::unordered_map<std::string, Value>& fields) {
  std::unordered_map<std::string, Value> env;
  for (const auto& name : ast_->fields) {
    auto it = fields.find(name);
    env[name] = it == fields.end() ? 0 : it->second;
  }
  for (const auto& stmt : ast_->body) exec(*stmt, env);
  std::unordered_map<std::string, Value> out;
  for (const auto& name : ast_->fields) out[name] = env[name];
  return out;
}

banzai::ReferenceResult replay(AstInterp& oracle, const ir::Pvsm& program,
                               const Trace& trace) {
  const std::size_t declared = program.declared_prefix();
  banzai::ReferenceResult result;
  result.egress_headers.reserve(trace.size());
  std::vector<Value> headers;
  std::unordered_map<std::string, Value> fields;
  for (const TraceItem& item : trace) {
    load_headers(item, program, headers);
    for (const auto& [name, slot] : program.declared_slot) {
      fields[name] = headers[static_cast<std::size_t>(slot)];
    }
    const auto out = oracle.process(fields);
    std::vector<Value> egress(declared, 0);
    for (const auto& [name, slot] : program.declared_slot) {
      egress[static_cast<std::size_t>(slot)] = out.at(name);
    }
    result.egress_headers.push_back(std::move(egress));
  }
  result.final_registers = oracle.registers();
  return result;
}

} // namespace mp5::domino
