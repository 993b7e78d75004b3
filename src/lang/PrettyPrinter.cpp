//===- lang/PrettyPrinter.cpp - Render AST back to source -----------------===//

#include "lang/PrettyPrinter.h"

#include <cassert>
#include <sstream>

using namespace nv;

namespace {

/// Stateful printer accumulating into a string stream.
class PrinterImpl {
public:
  std::string str() const { return OS.str(); }

  void printExprNode(const Expr &E, int ParentPrec);
  void printStmtNode(const Stmt &S, int Indent);
  void printProgramNode(const Program &P);

private:
  void indent(int Level) {
    for (int I = 0; I < Level; ++I)
      OS << "  ";
  }
  static int precedenceOf(BinaryOp Op);

  std::ostringstream OS;
};

} // namespace

int PrinterImpl::precedenceOf(BinaryOp Op) {
  switch (Op) {
  case BinaryOp::LOr:
    return 1;
  case BinaryOp::LAnd:
    return 2;
  case BinaryOp::Or:
    return 3;
  case BinaryOp::Xor:
    return 4;
  case BinaryOp::And:
    return 5;
  case BinaryOp::Eq:
  case BinaryOp::Ne:
    return 6;
  case BinaryOp::Lt:
  case BinaryOp::Gt:
  case BinaryOp::Le:
  case BinaryOp::Ge:
    return 7;
  case BinaryOp::Shl:
  case BinaryOp::Shr:
    return 8;
  case BinaryOp::Add:
  case BinaryOp::Sub:
    return 9;
  case BinaryOp::Mul:
  case BinaryOp::Div:
  case BinaryOp::Rem:
    return 10;
  }
  return 0;
}

void PrinterImpl::printExprNode(const Expr &E, int ParentPrec) {
  switch (E.kind()) {
  case ExprKind::IntLit:
    OS << static_cast<const IntLit &>(E).Value;
    return;
  case ExprKind::FloatLit: {
    std::ostringstream Tmp;
    Tmp << static_cast<const FloatLit &>(E).Value;
    std::string Text = Tmp.str();
    OS << Text;
    // Ensure it re-lexes as a float literal.
    if (Text.find('.') == std::string::npos &&
        Text.find('e') == std::string::npos)
      OS << ".0";
    return;
  }
  case ExprKind::VarRef:
    OS << static_cast<const VarRef &>(E).Name;
    return;
  case ExprKind::ArrayRef: {
    const auto &Ref = static_cast<const ArrayRef &>(E);
    OS << Ref.Name;
    for (const auto &Index : Ref.Indices) {
      OS << '[';
      printExprNode(*Index, 0);
      OS << ']';
    }
    return;
  }
  case ExprKind::Unary: {
    const auto &U = static_cast<const UnaryExpr &>(E);
    switch (U.Op) {
    case UnaryOp::Neg:
      OS << '-';
      break;
    case UnaryOp::Not:
      OS << '!';
      break;
    case UnaryOp::BitNot:
      OS << '~';
      break;
    }
    OS << '(';
    printExprNode(*U.Sub, 0);
    OS << ')';
    return;
  }
  case ExprKind::Binary: {
    const auto &B = static_cast<const BinaryExpr &>(E);
    const int Prec = precedenceOf(B.Op);
    const bool NeedParens = Prec < ParentPrec;
    if (NeedParens)
      OS << '(';
    printExprNode(*B.LHS, Prec);
    OS << ' ' << binaryOpSpelling(B.Op) << ' ';
    printExprNode(*B.RHS, Prec + 1);
    if (NeedParens)
      OS << ')';
    return;
  }
  case ExprKind::Ternary: {
    const auto &T = static_cast<const TernaryExpr &>(E);
    if (ParentPrec > 0)
      OS << '(';
    printExprNode(*T.Cond, 1);
    OS << " ? ";
    printExprNode(*T.Then, 0);
    OS << " : ";
    printExprNode(*T.Else, 0);
    if (ParentPrec > 0)
      OS << ')';
    return;
  }
  case ExprKind::Cast: {
    const auto &C = static_cast<const CastExpr &>(E);
    OS << '(' << typeName(C.Ty) << ") ";
    OS << '(';
    printExprNode(*C.Sub, 0);
    OS << ')';
    return;
  }
  case ExprKind::Call: {
    const auto &C = static_cast<const CallExpr &>(E);
    OS << C.Callee << '(';
    for (size_t I = 0; I < C.Args.size(); ++I) {
      if (I != 0)
        OS << ", ";
      printExprNode(*C.Args[I], 0);
    }
    OS << ')';
    return;
  }
  }
  assert(false && "covered switch");
}

void PrinterImpl::printStmtNode(const Stmt &S, int Indent) {
  switch (S.kind()) {
  case StmtKind::Block: {
    const auto &B = static_cast<const BlockStmt &>(S);
    OS << "{\n";
    for (const auto &Child : B.Stmts)
      printStmtNode(*Child, Indent + 1);
    indent(Indent);
    OS << "}";
    return;
  }
  case StmtKind::Decl: {
    const auto &D = static_cast<const DeclStmt &>(S);
    indent(Indent);
    OS << typeName(D.Ty) << ' ' << D.Name;
    if (D.Init) {
      OS << " = ";
      printExprNode(*D.Init, 0);
    }
    OS << ";\n";
    return;
  }
  case StmtKind::Assign: {
    const auto &A = static_cast<const AssignStmt &>(S);
    indent(Indent);
    printExprNode(*A.LValue, 0);
    switch (A.Op) {
    case AssignOp::Assign:
      OS << " = ";
      break;
    case AssignOp::AddAssign:
      OS << " += ";
      break;
    case AssignOp::SubAssign:
      OS << " -= ";
      break;
    case AssignOp::MulAssign:
      OS << " *= ";
      break;
    }
    printExprNode(*A.RHS, 0);
    OS << ";\n";
    return;
  }
  case StmtKind::For: {
    const auto &F = static_cast<const ForStmt &>(S);
    if (F.Pragma) {
      indent(Indent);
      OS << printPragma(*F.Pragma) << '\n';
    }
    indent(Indent);
    OS << "for (";
    if (F.DeclaresIndex)
      OS << "int ";
    OS << F.IndexVar << " = ";
    printExprNode(*F.Init, 0);
    OS << "; " << F.IndexVar
       << (F.Cond == ForStmt::CondKind::LT ? " < " : " <= ");
    printExprNode(*F.Bound, 0);
    OS << "; " << F.IndexVar;
    if (F.Step == 1)
      OS << "++";
    else
      OS << " += " << F.Step;
    OS << ") ";
    printStmtNode(*F.Body, Indent);
    OS << "\n";
    return;
  }
  case StmtKind::If: {
    const auto &I = static_cast<const IfStmt &>(S);
    indent(Indent);
    OS << "if (";
    printExprNode(*I.Cond, 0);
    OS << ") ";
    printStmtNode(*I.Then, Indent);
    if (I.Else) {
      OS << " else ";
      printStmtNode(*I.Else, Indent);
    }
    OS << "\n";
    return;
  }
  case StmtKind::Return: {
    const auto &R = static_cast<const ReturnStmt &>(S);
    indent(Indent);
    OS << "return";
    if (R.Value) {
      OS << ' ';
      printExprNode(*R.Value, 0);
    }
    OS << ";\n";
    return;
  }
  }
  assert(false && "covered switch");
}

void PrinterImpl::printProgramNode(const Program &P) {
  for (const VarDecl &G : P.Globals) {
    OS << typeName(G.Ty) << ' ' << G.Name;
    for (long long D : G.Dims)
      OS << '[' << D << ']';
    if (G.Init && !G.isArray()) {
      OS << " = ";
      if (isFloatTy(G.Ty))
        OS << *G.Init;
      else
        OS << static_cast<long long>(*G.Init);
    }
    OS << ";\n";
  }
  if (!P.Globals.empty())
    OS << '\n';
  for (const Function &F : P.Functions) {
    OS << (F.IsVoid ? "void" : typeName(F.RetTy)) << ' ' << F.Name << "() ";
    printStmtNode(*F.Body, 0);
    OS << "\n";
  }
}

std::string nv::printProgram(const Program &P) {
  PrinterImpl Printer;
  Printer.printProgramNode(P);
  return Printer.str();
}

std::string nv::printStmt(const Stmt &S, int Indent) {
  PrinterImpl Printer;
  Printer.printStmtNode(S, Indent);
  return Printer.str();
}

std::string nv::printPragma(const VectorPragma &Pragma) {
  return "#pragma clang loop vectorize_width(" + std::to_string(Pragma.VF) +
         ") interleave_count(" + std::to_string(Pragma.IF) + ")";
}
