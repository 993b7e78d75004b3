//===- lang/Parser.cpp - LoopLang recursive descent parser ----------------===//

#include "lang/Parser.h"

#include "lang/Lexer.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>

using namespace nv;

/// One nesting level for the lifetime of a production.
class Parser::NestingLevel {
public:
  explicit NestingLevel(Parser &P) : P(P) {
    P.Peak = std::max(P.Peak, ++P.Depth);
  }
  ~NestingLevel() { --P.Depth; }

private:
  Parser &P;
};

Parser::Parser(std::vector<Token> Tokens) : Tokens(std::move(Tokens)) {
  assert(!this->Tokens.empty() && this->Tokens.back().is(TokenKind::End) &&
         "token stream must be End-terminated");
}

const Token &Parser::peek(int Ahead) const {
  const size_t Index = Pos + static_cast<size_t>(Ahead);
  return Index < Tokens.size() ? Tokens[Index] : Tokens.back();
}

const Token &Parser::advance() {
  const Token &T = Tokens[Pos];
  if (Pos + 1 < Tokens.size())
    ++Pos;
  return T;
}

bool Parser::accept(TokenKind Kind) {
  if (!check(Kind))
    return false;
  advance();
  return true;
}

bool Parser::expect(TokenKind Kind, const char *Context) {
  if (accept(Kind))
    return true;
  fail(std::string("expected '") + tokenKindName(Kind) + "' " + Context +
       ", got '" + tokenKindName(peek().Kind) + "' at line " +
       std::to_string(peek().Line));
  return false;
}

void Parser::fail(const std::string &Message) {
  if (ErrorMessage.empty())
    ErrorMessage = Message;
  Failed = true;
}

bool Parser::tooDeep() {
  if (Peak <= MaxNestingDepth)
    return false;
  fail("nesting too deep (more than " + std::to_string(MaxNestingDepth) +
       " levels) at line " + std::to_string(peek().Line));
  return true;
}

std::optional<ScalarType> Parser::parseTypeSpecifier() {
  bool Unsigned = false;
  if (accept(TokenKind::KwUnsigned))
    Unsigned = true;
  switch (peek().Kind) {
  case TokenKind::KwChar:
    advance();
    return Unsigned ? ScalarType::UChar : ScalarType::Char;
  case TokenKind::KwShort:
    advance();
    return Unsigned ? ScalarType::UShort : ScalarType::Short;
  case TokenKind::KwInt:
    advance();
    return Unsigned ? ScalarType::UInt : ScalarType::Int;
  case TokenKind::KwLong:
    advance();
    return Unsigned ? ScalarType::ULong : ScalarType::Long;
  case TokenKind::KwFloat:
    advance();
    return ScalarType::Float;
  case TokenKind::KwDouble:
    advance();
    return ScalarType::Double;
  default:
    if (Unsigned)
      return ScalarType::UInt; // `unsigned x` == `unsigned int x`.
    return std::nullopt;
  }
}

bool Parser::typeAhead() const {
  switch (peek().Kind) {
  case TokenKind::KwUnsigned:
  case TokenKind::KwChar:
  case TokenKind::KwShort:
  case TokenKind::KwInt:
  case TokenKind::KwLong:
  case TokenKind::KwFloat:
  case TokenKind::KwDouble:
    return true;
  default:
    return false;
  }
}

std::optional<Program> Parser::parseProgram() {
  Program P;
  while (!check(TokenKind::End) && !failed())
    if (!parseTopLevel(P))
      break;
  if (failed())
    return std::nullopt;
  return P;
}

bool Parser::parseTopLevel(Program &P) {
  // Stray pragmas at the top level are ignored (matches clang behaviour for
  // loop pragmas outside functions).
  if (check(TokenKind::Pragma)) {
    advance();
    return true;
  }

  bool IsVoid = accept(TokenKind::KwVoid);
  std::optional<ScalarType> Ty;
  if (!IsVoid) {
    Ty = parseTypeSpecifier();
    if (!Ty) {
      fail("expected a declaration at line " + std::to_string(peek().Line));
      return false;
    }
  }
  if (!check(TokenKind::Identifier)) {
    fail("expected identifier after type at line " +
         std::to_string(peek().Line));
    return false;
  }
  std::string Name = advance().Text;

  if (check(TokenKind::LParen)) {
    parseFunction(P, IsVoid ? ScalarType::Int : *Ty, IsVoid,
                  std::move(Name));
    return !failed();
  }
  if (IsVoid) {
    fail("void is only valid as a function return type");
    return false;
  }
  parseGlobal(P, *Ty, std::move(Name));
  return !failed();
}

void Parser::parseGlobal(Program &P, ScalarType Ty, std::string Name) {
  VarDecl Decl;
  Decl.Ty = Ty;
  Decl.Name = std::move(Name);
  while (accept(TokenKind::LBracket)) {
    if (!check(TokenKind::IntLiteral)) {
      fail("array dimensions must be integer literals (line " +
           std::to_string(peek().Line) + ")");
      return;
    }
    Decl.Dims.push_back(advance().IntValue);
    if (!expect(TokenKind::RBracket, "after array dimension"))
      return;
  }
  // Optional scalar initializer. Literal (possibly negated) initializers
  // are kept so the simulator can resolve symbolic loop bounds; anything
  // else is evaluated as zero.
  if (accept(TokenKind::Assign)) {
    ExprPtr Init = parseExpr();
    double Value = 0.0;
    const Expr *E = Init.get();
    double Sign = 1.0;
    if (const auto *U = dynCast<UnaryExpr>(E); U && U->Op == UnaryOp::Neg) {
      Sign = -1.0;
      E = U->Sub.get();
    }
    if (const auto *I = dynCast<IntLit>(E))
      Value = static_cast<double>(I->Value);
    else if (const auto *F = dynCast<FloatLit>(E))
      Value = F->Value;
    Decl.Init = Sign * Value;
  }
  expect(TokenKind::Semi, "after global declaration");
  P.Globals.push_back(std::move(Decl));
}

void Parser::parseFunction(Program &P, ScalarType Ty, bool IsVoid,
                           std::string Name) {
  expect(TokenKind::LParen, "after function name");
  expect(TokenKind::RParen, "in function declarator (parameters are not "
                            "supported in LoopLang)");
  Function F;
  F.RetTy = Ty;
  F.IsVoid = IsVoid;
  F.Name = std::move(Name);
  F.Body = parseBlock();
  if (!failed())
    P.Functions.push_back(std::move(F));
}

StmtPtr Parser::parseBlock() {
  if (!expect(TokenKind::LBrace, "to open a block"))
    return nullptr;
  std::vector<StmtPtr> Stmts;
  while (!check(TokenKind::RBrace) && !check(TokenKind::End) && !failed()) {
    StmtPtr S = parseStmt();
    if (S)
      Stmts.push_back(std::move(S));
  }
  expect(TokenKind::RBrace, "to close a block");
  return std::make_unique<BlockStmt>(std::move(Stmts));
}

std::optional<VectorPragma> Parser::parsePragmaText(const std::string &Text) {
  // Expected body: "pragma clang loop vectorize_width(V) interleave_count(I)"
  // (order-insensitive; either clause may be absent and defaults to 1).
  if (!contains(Text, "clang") || !contains(Text, "loop"))
    return std::nullopt;
  auto ReadClause = [&](const std::string &Key) -> int {
    size_t At = Text.find(Key);
    if (At == std::string::npos)
      return 0;
    At = Text.find('(', At);
    if (At == std::string::npos)
      return 0;
    return std::atoi(Text.c_str() + At + 1);
  };
  VectorPragma Pragma;
  Pragma.VF = ReadClause("vectorize_width");
  Pragma.IF = ReadClause("interleave_count");
  if (Pragma.VF <= 0 && Pragma.IF <= 0)
    return std::nullopt;
  Pragma.VF = std::max(Pragma.VF, 1);
  Pragma.IF = std::max(Pragma.IF, 1);
  return Pragma;
}

StmtPtr Parser::parseStmt() {
  NestingLevel Level(*this);
  if (tooDeep())
    return nullptr;
  if (check(TokenKind::Pragma)) {
    PendingPragma = parsePragmaText(advance().Text);
    return nullptr; // Attached to the next for-statement.
  }
  if (check(TokenKind::KwFor))
    return parseFor();
  if (check(TokenKind::KwIf))
    return parseIf();
  if (check(TokenKind::LBrace))
    return parseBlock();
  if (accept(TokenKind::KwReturn)) {
    ExprPtr Value;
    if (!check(TokenKind::Semi))
      Value = parseExpr();
    expect(TokenKind::Semi, "after return");
    return std::make_unique<ReturnStmt>(std::move(Value));
  }
  if (typeAhead())
    return parseDeclStmt();
  return parseAssignOrExprStmt();
}

StmtPtr Parser::parseDeclStmt() {
  std::optional<ScalarType> Ty = parseTypeSpecifier();
  assert(Ty && "caller checked typeAhead()");
  if (!check(TokenKind::Identifier)) {
    fail("expected identifier in declaration at line " +
         std::to_string(peek().Line));
    return nullptr;
  }
  std::string Name = advance().Text;
  ExprPtr Init;
  if (accept(TokenKind::Assign))
    Init = parseExpr();
  expect(TokenKind::Semi, "after declaration");
  return std::make_unique<DeclStmt>(*Ty, std::move(Name), std::move(Init));
}

StmtPtr Parser::parseFor() {
  std::optional<VectorPragma> Pragma = PendingPragma;
  PendingPragma.reset();

  expect(TokenKind::KwFor, "");
  expect(TokenKind::LParen, "after 'for'");

  bool DeclaresIndex = false;
  if (typeAhead()) {
    DeclaresIndex = true;
    (void)parseTypeSpecifier(); // Index type is always treated as long.
  }
  if (!check(TokenKind::Identifier)) {
    fail("expected loop index variable at line " +
         std::to_string(peek().Line));
    return nullptr;
  }
  std::string IndexVar = advance().Text;
  expect(TokenKind::Assign, "in loop init");
  ExprPtr Init = parseExpr();
  expect(TokenKind::Semi, "after loop init");

  if (!check(TokenKind::Identifier) || peek().Text != IndexVar) {
    fail("loop condition must test the index variable '" + IndexVar +
         "' (line " + std::to_string(peek().Line) + ")");
    return nullptr;
  }
  advance();
  ForStmt::CondKind Cond;
  if (accept(TokenKind::Less)) {
    Cond = ForStmt::CondKind::LT;
  } else if (accept(TokenKind::LessEqual)) {
    Cond = ForStmt::CondKind::LE;
  } else {
    fail("loop condition must be '<' or '<=' (line " +
         std::to_string(peek().Line) + ")");
    return nullptr;
  }
  ExprPtr Bound = parseExpr();
  expect(TokenKind::Semi, "after loop condition");

  long long Step = 1;
  if (accept(TokenKind::PlusPlus)) {
    // Pre-increment form `++i`.
    if (!check(TokenKind::Identifier) || peek().Text != IndexVar) {
      fail("loop step must increment the index variable");
      return nullptr;
    }
    advance();
  } else {
    if (!check(TokenKind::Identifier) || peek().Text != IndexVar) {
      fail("loop step must increment the index variable '" + IndexVar +
           "' (line " + std::to_string(peek().Line) + ")");
      return nullptr;
    }
    advance();
    if (accept(TokenKind::PlusPlus)) {
      Step = 1;
    } else if (accept(TokenKind::PlusAssign)) {
      if (!check(TokenKind::IntLiteral)) {
        fail("loop step must be a constant (line " +
             std::to_string(peek().Line) + ")");
        return nullptr;
      }
      Step = advance().IntValue;
      if (Step <= 0) {
        fail("loop step must be positive");
        return nullptr;
      }
    } else {
      fail("unsupported loop step form (line " +
           std::to_string(peek().Line) + ")");
      return nullptr;
    }
  }
  expect(TokenKind::RParen, "after loop header");

  StmtPtr Body;
  if (check(TokenKind::LBrace)) {
    Body = parseBlock();
  } else {
    // Single-statement body: wrap in a block.
    std::vector<StmtPtr> Stmts;
    StmtPtr S = parseStmt();
    // A pragma immediately before a nested for can yield a null first
    // result; retry once so `for (...) #pragma ... for (...)` parses.
    if (!S && !failed())
      S = parseStmt();
    if (S)
      Stmts.push_back(std::move(S));
    Body = std::make_unique<BlockStmt>(std::move(Stmts));
  }
  if (failed())
    return nullptr;

  auto Loop = std::make_unique<ForStmt>(std::move(IndexVar), std::move(Init),
                                        Cond, std::move(Bound), Step,
                                        std::move(Body));
  Loop->DeclaresIndex = DeclaresIndex;
  Loop->Pragma = Pragma;
  return Loop;
}

StmtPtr Parser::parseIf() {
  expect(TokenKind::KwIf, "");
  expect(TokenKind::LParen, "after 'if'");
  ExprPtr Cond = parseExpr();
  expect(TokenKind::RParen, "after if condition");
  StmtPtr Then;
  if (check(TokenKind::LBrace)) {
    Then = parseBlock();
  } else {
    std::vector<StmtPtr> Stmts;
    if (StmtPtr S = parseStmt())
      Stmts.push_back(std::move(S));
    Then = std::make_unique<BlockStmt>(std::move(Stmts));
  }
  StmtPtr Else;
  if (accept(TokenKind::KwElse)) {
    if (check(TokenKind::LBrace)) {
      Else = parseBlock();
    } else {
      std::vector<StmtPtr> Stmts;
      if (StmtPtr S = parseStmt())
        Stmts.push_back(std::move(S));
      Else = std::make_unique<BlockStmt>(std::move(Stmts));
    }
  }
  if (failed())
    return nullptr;
  return std::make_unique<IfStmt>(std::move(Cond), std::move(Then),
                                  std::move(Else));
}

StmtPtr Parser::parseAssignOrExprStmt() {
  ExprPtr LValue = parsePostfix();
  if (failed())
    return nullptr;
  if (!LValue || (!dynCast<VarRef>(LValue.get()) &&
                  !dynCast<ArrayRef>(LValue.get()))) {
    fail("expected an assignable expression at line " +
         std::to_string(peek().Line));
    return nullptr;
  }

  AssignOp Op;
  if (accept(TokenKind::Assign)) {
    Op = AssignOp::Assign;
  } else if (accept(TokenKind::PlusAssign)) {
    Op = AssignOp::AddAssign;
  } else if (accept(TokenKind::MinusAssign)) {
    Op = AssignOp::SubAssign;
  } else if (accept(TokenKind::StarAssign)) {
    Op = AssignOp::MulAssign;
  } else if (accept(TokenKind::PlusPlus)) {
    // `x++;` desugars to `x += 1;`.
    expect(TokenKind::Semi, "after statement");
    return std::make_unique<AssignStmt>(std::move(LValue),
                                        AssignOp::AddAssign,
                                        std::make_unique<IntLit>(1));
  } else {
    fail("expected assignment operator at line " +
         std::to_string(peek().Line));
    return nullptr;
  }
  ExprPtr RHS = parseExpr();
  expect(TokenKind::Semi, "after statement");
  if (failed())
    return nullptr;
  return std::make_unique<AssignStmt>(std::move(LValue), Op, std::move(RHS));
}

ExprPtr Parser::parseExpr() { return parseTernary(); }

ExprPtr Parser::parseTernary() {
  ExprPtr Cond = parseBinary(0);
  if (failed() || !accept(TokenKind::Question))
    return Cond;
  NestingLevel Level(*this);
  if (tooDeep())
    return nullptr;
  ExprPtr Then = parseTernary();
  expect(TokenKind::Colon, "in conditional expression");
  ExprPtr Else = parseTernary();
  if (failed())
    return nullptr;
  return std::make_unique<TernaryExpr>(std::move(Cond), std::move(Then),
                                       std::move(Else));
}

namespace {
/// Binary operator precedence table (higher binds tighter).
struct OpInfo {
  BinaryOp Op;
  int Precedence;
};
} // namespace

static bool binaryOpInfo(TokenKind Kind, OpInfo &Info) {
  switch (Kind) {
  case TokenKind::PipePipe:
    Info = {BinaryOp::LOr, 1};
    return true;
  case TokenKind::AmpAmp:
    Info = {BinaryOp::LAnd, 2};
    return true;
  case TokenKind::Pipe:
    Info = {BinaryOp::Or, 3};
    return true;
  case TokenKind::Caret:
    Info = {BinaryOp::Xor, 4};
    return true;
  case TokenKind::Amp:
    Info = {BinaryOp::And, 5};
    return true;
  case TokenKind::EqualEqual:
    Info = {BinaryOp::Eq, 6};
    return true;
  case TokenKind::NotEqual:
    Info = {BinaryOp::Ne, 6};
    return true;
  case TokenKind::Less:
    Info = {BinaryOp::Lt, 7};
    return true;
  case TokenKind::Greater:
    Info = {BinaryOp::Gt, 7};
    return true;
  case TokenKind::LessEqual:
    Info = {BinaryOp::Le, 7};
    return true;
  case TokenKind::GreaterEqual:
    Info = {BinaryOp::Ge, 7};
    return true;
  case TokenKind::Shl:
    Info = {BinaryOp::Shl, 8};
    return true;
  case TokenKind::Shr:
    Info = {BinaryOp::Shr, 8};
    return true;
  case TokenKind::Plus:
    Info = {BinaryOp::Add, 9};
    return true;
  case TokenKind::Minus:
    Info = {BinaryOp::Sub, 9};
    return true;
  case TokenKind::Star:
    Info = {BinaryOp::Mul, 10};
    return true;
  case TokenKind::Slash:
    Info = {BinaryOp::Div, 10};
    return true;
  case TokenKind::Percent:
    Info = {BinaryOp::Rem, 10};
    return true;
  default:
    return false;
  }
}

ExprPtr Parser::parseBinary(int MinPrecedence) {
  const int OuterPeak = Peak;
  Peak = Depth;
  ExprPtr LHS = parseUnary();
  for (;;) {
    if (failed())
      return nullptr;
    OpInfo Info;
    if (!binaryOpInfo(peek().Kind, Info) || Info.Precedence < MinPrecedence)
      break;
    advance();
    // This loop builds the chain without recursion, but the tree it
    // builds is as deep as the chain is long.
    ++Peak;
    if (tooDeep())
      return nullptr;
    ExprPtr RHS = parseBinary(Info.Precedence + 1);
    if (failed())
      return nullptr;
    LHS = std::make_unique<BinaryExpr>(Info.Op, std::move(LHS),
                                       std::move(RHS));
  }
  Peak = std::max(OuterPeak, Peak);
  return LHS;
}

ExprPtr Parser::parseUnary() {
  NestingLevel Level(*this);
  if (tooDeep())
    return nullptr;
  if (accept(TokenKind::Minus))
    return std::make_unique<UnaryExpr>(UnaryOp::Neg, parseUnary());
  if (accept(TokenKind::Not))
    return std::make_unique<UnaryExpr>(UnaryOp::Not, parseUnary());
  if (accept(TokenKind::Tilde))
    return std::make_unique<UnaryExpr>(UnaryOp::BitNot, parseUnary());
  // Cast: '(' type ')' unary.
  if (check(TokenKind::LParen)) {
    const Token &Next = peek(1);
    switch (Next.Kind) {
    case TokenKind::KwUnsigned:
    case TokenKind::KwChar:
    case TokenKind::KwShort:
    case TokenKind::KwInt:
    case TokenKind::KwLong:
    case TokenKind::KwFloat:
    case TokenKind::KwDouble: {
      advance(); // '('
      std::optional<ScalarType> Ty = parseTypeSpecifier();
      assert(Ty && "type token checked above");
      expect(TokenKind::RParen, "after cast type");
      return std::make_unique<CastExpr>(*Ty, parseUnary());
    }
    default:
      break;
    }
  }
  return parsePostfix();
}

ExprPtr Parser::parsePostfix() {
  ExprPtr E = parsePrimary();
  if (failed())
    return nullptr;
  // Array subscripts.
  if (auto *Var = dynCast<VarRef>(E.get())) {
    if (check(TokenKind::LBracket)) {
      std::vector<ExprPtr> Indices;
      while (accept(TokenKind::LBracket)) {
        Indices.push_back(parseExpr());
        expect(TokenKind::RBracket, "after array index");
        if (failed())
          return nullptr;
      }
      return std::make_unique<ArrayRef>(Var->Name, std::move(Indices));
    }
  }
  return E;
}

ExprPtr Parser::parsePrimary() {
  if (check(TokenKind::IntLiteral))
    return std::make_unique<IntLit>(advance().IntValue);
  if (check(TokenKind::FloatLiteral))
    return std::make_unique<FloatLit>(advance().FloatValue);
  if (accept(TokenKind::LParen)) {
    ExprPtr E = parseExpr();
    expect(TokenKind::RParen, "after parenthesized expression");
    return E;
  }
  if (check(TokenKind::Identifier)) {
    std::string Name = advance().Text;
    if (accept(TokenKind::LParen)) {
      std::vector<ExprPtr> Args;
      if (!check(TokenKind::RParen)) {
        do {
          Args.push_back(parseExpr());
        } while (accept(TokenKind::Comma) && !failed());
      }
      expect(TokenKind::RParen, "after call arguments");
      if (failed())
        return nullptr;
      return std::make_unique<CallExpr>(std::move(Name), std::move(Args));
    }
    return std::make_unique<VarRef>(std::move(Name));
  }
  fail(std::string("unexpected token '") + tokenKindName(peek().Kind) +
       "' at line " + std::to_string(peek().Line));
  return nullptr;
}

std::optional<Program> nv::parseSource(const std::string &Source,
                                       std::string *ErrorOut) {
  Lexer L(Source);
  std::vector<Token> Tokens = L.lexAll();
  if (!L.error().empty()) {
    if (ErrorOut)
      *ErrorOut = L.error();
    return std::nullopt;
  }
  Parser P(std::move(Tokens));
  std::optional<Program> Prog = P.parseProgram();
  if (!Prog && ErrorOut)
    *ErrorOut = P.error();
  return Prog;
}
