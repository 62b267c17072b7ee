// Pretty-printer from a parsed Domino AST back to compilable source.
//
// The shrinker mutates ASTs, but reproducers ship as `.dom` text, so the
// printer must round-trip: parse(to_source(ast)) is semantically identical
// to `ast` (expressions are fully parenthesized rather than relying on
// precedence). Table declarations do not appear — the parser desugars
// `apply` into if/else chains before the AST reaches us.
#pragma once

#include <string>

#include "domino/ast.hpp"

namespace mp5::fuzz {

std::string to_source(const domino::Ast& ast);

} // namespace mp5::fuzz
