//===- lang/Parser.h - LoopLang recursive descent parser --------*- C++ -*-===//
//
// Part of the NeuroVectorizer reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Recursive-descent parser for LoopLang. Produces the AST consumed by the
/// loop extractor, the embedding generator, and the IR lowering. Loops must
/// be canonical counted loops (see lang/AST.h); anything else is a parse
/// error, which matches the shape of the paper's loop dataset.
///
//===----------------------------------------------------------------------===//

#ifndef NV_LANG_PARSER_H
#define NV_LANG_PARSER_H

#include "lang/AST.h"
#include "lang/Token.h"

#include <optional>
#include <vector>

namespace nv {

/// Parses LoopLang source text into a Program.
class Parser {
public:
  explicit Parser(std::vector<Token> Tokens);

  /// Parses a whole translation unit. Returns std::nullopt on error; the
  /// message is available via \c error().
  std::optional<Program> parseProgram();

  /// Returns the first error message, or empty on success.
  const std::string &error() const { return ErrorMessage; }

private:
  // Token cursor.
  const Token &peek(int Ahead = 0) const;
  const Token &advance();
  bool check(TokenKind Kind) const { return peek().is(Kind); }
  bool accept(TokenKind Kind);
  bool expect(TokenKind Kind, const char *Context);

  // Error handling: sets ErrorMessage (first error wins) and flips Failed.
  void fail(const std::string &Message);
  bool failed() const { return Failed; }

  /// Nesting bound: every statement, unary operand (so every parenthesis,
  /// subscript, call argument and cast), conditional branch and operator
  /// of a left-associative chain is one level, so the bound caps the
  /// height of the AST. The passes after parsing (extraction, lowering,
  /// printing, destruction) recurse over that tree, and the daemon parses
  /// client text: without the bound one deeply nested program overflows
  /// a thread's stack. Deeper input is a "nesting too deep" error.
  static constexpr int MaxNestingDepth = 256;
  class NestingLevel;
  /// Fails (and returns true) once Peak exceeds MaxNestingDepth.
  bool tooDeep();

  // Grammar productions.
  bool parseTopLevel(Program &P);
  std::optional<ScalarType> parseTypeSpecifier();
  bool typeAhead() const;
  void parseGlobal(Program &P, ScalarType Ty, std::string Name);
  void parseFunction(Program &P, ScalarType Ty, bool IsVoid,
                     std::string Name);
  StmtPtr parseBlock();
  StmtPtr parseStmt();
  StmtPtr parseFor();
  StmtPtr parseIf();
  StmtPtr parseDeclStmt();
  StmtPtr parseAssignOrExprStmt();
  std::optional<VectorPragma> parsePragmaText(const std::string &Text);

  ExprPtr parseExpr();
  ExprPtr parseTernary();
  ExprPtr parseBinary(int MinPrecedence);
  ExprPtr parseUnary();
  ExprPtr parsePostfix();
  ExprPtr parsePrimary();

  std::vector<Token> Tokens;
  size_t Pos = 0;
  std::string ErrorMessage;
  bool Failed = false;
  /// Nesting level of the production being parsed.
  int Depth = 0;
  /// Deepest level any node parsed so far sits at. parseBinary tracks
  /// each chain on its own: an operator becomes the parent of the chain
  /// so far and pushes every node in it one level down.
  int Peak = 0;
  /// A pragma seen but not yet attached to a following for-statement.
  std::optional<VectorPragma> PendingPragma;
};

/// Convenience: lex + parse \p Source. Returns std::nullopt and fills
/// \p ErrorOut (if non-null) on failure.
std::optional<Program> parseSource(const std::string &Source,
                                   std::string *ErrorOut = nullptr);

} // namespace nv

#endif // NV_LANG_PARSER_H
