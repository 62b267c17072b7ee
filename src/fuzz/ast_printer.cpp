#include "fuzz/ast_printer.hpp"

#include <sstream>

#include "common/error.hpp"

namespace mp5::fuzz {
namespace {

using domino::Ast;
using domino::Expr;
using domino::Stmt;

const char* bin_token(ir::BinOp op) {
  switch (op) {
    case ir::BinOp::kAdd: return "+";
    case ir::BinOp::kSub: return "-";
    case ir::BinOp::kMul: return "*";
    case ir::BinOp::kDiv: return "/";
    case ir::BinOp::kMod: return "%";
    case ir::BinOp::kBitAnd: return "&";
    case ir::BinOp::kBitOr: return "|";
    case ir::BinOp::kBitXor: return "^";
    case ir::BinOp::kShl: return "<<";
    case ir::BinOp::kShr: return ">>";
    case ir::BinOp::kLt: return "<";
    case ir::BinOp::kLe: return "<=";
    case ir::BinOp::kGt: return ">";
    case ir::BinOp::kGe: return ">=";
    case ir::BinOp::kEq: return "==";
    case ir::BinOp::kNe: return "!=";
    case ir::BinOp::kLAnd: return "&&";
    case ir::BinOp::kLOr: return "||";
    case ir::BinOp::kMin: return "min";
    case ir::BinOp::kMax: return "max";
  }
  throw Error("bin_token: bad operator");
}

void print_expr(std::ostream& os, const Expr& e, const std::string& param) {
  switch (e.kind) {
    case Expr::Kind::kIntLit:
      if (e.int_value < 0) {
        os << "(" << e.int_value << ")";
      } else {
        os << e.int_value;
      }
      return;
    case Expr::Kind::kField:
      os << param << "." << e.name;
      return;
    case Expr::Kind::kIdent:
      os << e.name;
      return;
    case Expr::Kind::kReg:
      os << e.name << "[";
      print_expr(os, *e.index, param);
      os << "]";
      return;
    case Expr::Kind::kUnary:
      os << "("
         << (e.un == ir::UnOp::kNeg ? "-"
             : e.un == ir::UnOp::kLNot ? "!" : "~");
      print_expr(os, *e.a, param);
      os << ")";
      return;
    case Expr::Kind::kBinary: {
      // min/max only exist as calls at source level.
      if (e.bin == ir::BinOp::kMin || e.bin == ir::BinOp::kMax) {
        os << bin_token(e.bin) << "(";
        print_expr(os, *e.a, param);
        os << ", ";
        print_expr(os, *e.b, param);
        os << ")";
        return;
      }
      os << "(";
      print_expr(os, *e.a, param);
      os << " " << bin_token(e.bin) << " ";
      print_expr(os, *e.b, param);
      os << ")";
      return;
    }
    case Expr::Kind::kTernary:
      os << "(";
      print_expr(os, *e.a, param);
      os << " ? ";
      print_expr(os, *e.b, param);
      os << " : ";
      print_expr(os, *e.c, param);
      os << ")";
      return;
    case Expr::Kind::kCall: {
      os << e.name << "(";
      for (std::size_t i = 0; i < e.args.size(); ++i) {
        if (i) os << ", ";
        print_expr(os, *e.args[i], param);
      }
      os << ")";
      return;
    }
  }
  throw Error("print_expr: bad expression kind");
}

void print_stmt(std::ostream& os, const Stmt& stmt, const std::string& param,
                int depth) {
  const std::string pad(static_cast<std::size_t>(depth) * 2, ' ');
  switch (stmt.kind) {
    case Stmt::Kind::kAssign:
      os << pad;
      print_expr(os, *stmt.lhs, param);
      os << " = ";
      print_expr(os, *stmt.rhs, param);
      os << ";\n";
      return;
    case Stmt::Kind::kIf: {
      os << pad << "if (";
      print_expr(os, *stmt.cond, param);
      os << ") {\n";
      for (const auto& s : stmt.then_body) print_stmt(os, *s, param, depth + 1);
      os << pad << "}";
      if (!stmt.else_body.empty()) {
        os << " else {\n";
        for (const auto& s : stmt.else_body) {
          print_stmt(os, *s, param, depth + 1);
        }
        os << pad << "}";
      }
      os << "\n";
      return;
    }
  }
}

} // namespace

std::string to_source(const Ast& ast) {
  std::ostringstream os;
  os << "struct Packet {";
  for (const auto& field : ast.fields) os << " int " << field << ";";
  os << " };\n";
  for (const auto& [name, value] : ast.constants) {
    os << "const int " << name << " = " << value << ";\n";
  }
  for (const auto& spec : ast.registers) {
    os << "int " << spec.name;
    if (spec.size != 1) os << "[" << spec.size << "]";
    if (!spec.init.empty()) {
      if (spec.size == 1 && spec.init.size() == 1) {
        os << " = " << spec.init[0];
      } else {
        os << " = {";
        for (std::size_t i = 0; i < spec.init.size(); ++i) {
          if (i) os << ", ";
          os << spec.init[i];
        }
        os << "}";
      }
    }
    os << ";\n";
  }
  const std::string param =
      ast.packet_param.empty() ? "p" : ast.packet_param;
  os << "void " << (ast.func_name.empty() ? "prog" : ast.func_name)
     << "(struct Packet " << param << ") {\n";
  for (const auto& stmt : ast.body) print_stmt(os, *stmt, param, 1);
  os << "}\n";
  return os.str();
}

} // namespace mp5::fuzz
