//===- lang/PrettyPrinter.h - Render AST back to source ---------*- C++ -*-===//
//
// Part of the NeuroVectorizer reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Renders LoopLang ASTs back to compilable source text, including injected
/// vectorization pragmas (paper Fig 4 shows the annotated output). The
/// printer round-trips: parse(print(P)) is structurally identical to P,
/// which the test suite checks property-style.
///
//===----------------------------------------------------------------------===//

#ifndef NV_LANG_PRETTYPRINTER_H
#define NV_LANG_PRETTYPRINTER_H

#include "lang/AST.h"

#include <string>

namespace nv {

/// Renders \p P as LoopLang source.
std::string printProgram(const Program &P);

/// Renders a single statement subtree (used for loop context extraction:
/// the embedding generator consumes the outermost loop's text, §3.3).
std::string printStmt(const Stmt &S, int Indent = 0);

/// Renders the pragma line for \p Pragma (no trailing newline).
std::string printPragma(const VectorPragma &Pragma);

} // namespace nv

#endif // NV_LANG_PRETTYPRINTER_H
