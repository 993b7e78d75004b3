//===- tests/LangTest.cpp - Lexer/parser/printer/extractor tests ----------===//

#include "lang/Lexer.h"
#include "lang/LoopExtractor.h"
#include "lang/Parser.h"
#include "lang/PrettyPrinter.h"

#include <gtest/gtest.h>

using namespace nv;

namespace {

const char *DotProductSource = R"(
int vec[512] __attribute__((aligned(16)));

__attribute__((noinline))
int example1() {
  int sum = 0;
  for (int i = 0; i < 512; i++) {
    sum += vec[i] * vec[i];
  }
  return sum;
}
)";

TEST(Lexer, TokenizesDotProduct) {
  Lexer L(DotProductSource);
  std::vector<Token> Tokens = L.lexAll();
  EXPECT_TRUE(L.error().empty()) << L.error();
  ASSERT_FALSE(Tokens.empty());
  EXPECT_TRUE(Tokens.back().is(TokenKind::End));
  // `__attribute__((...))` is consumed as trivia.
  for (const Token &T : Tokens)
    EXPECT_NE(T.Text, "__attribute__");
}

TEST(Lexer, RecognizesAllOperators) {
  Lexer L("+ - * / % << >> & | ^ ~ ! && || < > <= >= == != += -= *= ++ --");
  std::vector<Token> Tokens = L.lexAll();
  EXPECT_TRUE(L.error().empty()) << L.error();
  EXPECT_EQ(Tokens.size(), 25u + 1u); // 25 operators + End.
}

TEST(Lexer, LexesPragmaAsSingleToken) {
  Lexer L("#pragma clang loop vectorize_width(4) interleave_count(2)\n"
          "int x;");
  std::vector<Token> Tokens = L.lexAll();
  ASSERT_GE(Tokens.size(), 2u);
  EXPECT_TRUE(Tokens[0].is(TokenKind::Pragma));
  EXPECT_NE(Tokens[0].Text.find("vectorize_width(4)"), std::string::npos);
}

TEST(Lexer, NumericLiterals) {
  Lexer L("42 3.5 1e3 2.5e-2 7f 10u");
  std::vector<Token> Tokens = L.lexAll();
  ASSERT_EQ(Tokens.size(), 7u);
  EXPECT_TRUE(Tokens[0].is(TokenKind::IntLiteral));
  EXPECT_EQ(Tokens[0].IntValue, 42);
  EXPECT_TRUE(Tokens[1].is(TokenKind::FloatLiteral));
  EXPECT_DOUBLE_EQ(Tokens[1].FloatValue, 3.5);
  EXPECT_TRUE(Tokens[2].is(TokenKind::FloatLiteral));
  EXPECT_DOUBLE_EQ(Tokens[2].FloatValue, 1000.0);
  EXPECT_TRUE(Tokens[3].is(TokenKind::FloatLiteral));
  EXPECT_DOUBLE_EQ(Tokens[3].FloatValue, 0.025);
  EXPECT_TRUE(Tokens[4].is(TokenKind::FloatLiteral));
  EXPECT_TRUE(Tokens[5].is(TokenKind::IntLiteral));
}

TEST(Lexer, SkipsComments) {
  Lexer L("int x; // line comment\n/* block\ncomment */ int y;");
  std::vector<Token> Tokens = L.lexAll();
  EXPECT_TRUE(L.error().empty());
  EXPECT_EQ(Tokens.size(), 7u); // int x ; int y ; End
}

TEST(Lexer, ReportsUnexpectedCharacter) {
  Lexer L("int x @ y;");
  (void)L.lexAll();
  EXPECT_FALSE(L.error().empty());
}

TEST(Parser, ParsesDotProduct) {
  std::string Error;
  std::optional<Program> P = parseSource(DotProductSource, &Error);
  ASSERT_TRUE(P.has_value()) << Error;
  ASSERT_EQ(P->Globals.size(), 1u);
  EXPECT_EQ(P->Globals[0].Name, "vec");
  ASSERT_EQ(P->Globals[0].Dims.size(), 1u);
  EXPECT_EQ(P->Globals[0].Dims[0], 512);
  ASSERT_EQ(P->Functions.size(), 1u);
  EXPECT_EQ(P->Functions[0].Name, "example1");
}

TEST(Parser, ParsesNestedLoopsAndPragma) {
  const char *Source = R"(
    float A[64][64];
    float x;
    void fill() {
      for (int i = 0; i < 64; i++) {
        #pragma clang loop vectorize_width(8) interleave_count(2)
        for (int j = 0; j < 64; j++) {
          A[i][j] = x;
        }
      }
    }
  )";
  std::string Error;
  std::optional<Program> P = parseSource(Source, &Error);
  ASSERT_TRUE(P.has_value()) << Error;
  std::vector<LoopSite> Sites = extractLoops(*P);
  ASSERT_EQ(Sites.size(), 1u);
  EXPECT_EQ(Sites[0].Depth, 2);
  ASSERT_TRUE(Sites[0].Inner->Pragma.has_value());
  EXPECT_EQ(Sites[0].Inner->Pragma->VF, 8);
  EXPECT_EQ(Sites[0].Inner->Pragma->IF, 2);
}

TEST(Parser, ParsesPaperExample3Predicate) {
  const char *Source = R"(
    int a[1024]; int b[1024];
    void kernel() {
      for (int i = 0; i < 1024; i++) {
        int j = a[i];
        b[i] = (j > 255 ? 255 : 0);
      }
    }
  )";
  std::string Error;
  std::optional<Program> P = parseSource(Source, &Error);
  ASSERT_TRUE(P.has_value()) << Error;
}

TEST(Parser, ParsesStridedLoop) {
  const char *Source = R"(
    float a[512]; float b[1024]; float c[1024]; float d[512];
    void kernel() {
      for (int i = 0; i < 255; i++) {
        a[i] = b[2*i+1] * c[2*i+1] - b[2*i] * c[2*i];
        d[i] = b[2*i] * c[2*i+1] + b[2*i+1] * c[2*i];
      }
    }
  )";
  std::string Error;
  std::optional<Program> P = parseSource(Source, &Error);
  ASSERT_TRUE(P.has_value()) << Error;
}

TEST(Parser, RejectsNonCanonicalLoop) {
  std::string Error;
  EXPECT_FALSE(
      parseSource("void f() { for (int i = 0; i > 10; i++) {} }", &Error)
          .has_value());
  EXPECT_FALSE(Error.empty());
}

TEST(Parser, RejectsGarbage) {
  std::string Error;
  EXPECT_FALSE(parseSource("int 3x;", &Error).has_value());
  EXPECT_FALSE(parseSource("void f() { x ><= 3; }", &Error).has_value());
}

TEST(Parser, ParsesStepForms) {
  std::string Error;
  EXPECT_TRUE(
      parseSource("void f() { for (int i = 0; i < 8; ++i) {} }", &Error)
          .has_value())
      << Error;
  std::optional<Program> P = parseSource(
      "int a[32]; void f() { for (int i = 0; i < 32; i += 2) { a[i] = 1; } }",
      &Error);
  ASSERT_TRUE(P.has_value()) << Error;
  std::vector<LoopSite> Sites = extractLoops(*P);
  ASSERT_EQ(Sites.size(), 1u);
  EXPECT_EQ(Sites[0].Inner->Step, 2);
}

TEST(Printer, RoundTripsPrograms) {
  const char *Sources[] = {
      DotProductSource,
      R"(float A[16][16]; void f() {
           for (int i = 0; i < 16; i++)
             for (int j = 0; j < 16; j++)
               A[i][j] = (float) (i + j);
         })",
      R"(int a[64]; int b[64]; void f() {
           for (int i = 0; i < 64; i++) {
             if (a[i] > 3) { b[i] = a[i] << 1; } else { b[i] = 0; }
           }
         })",
  };
  for (const char *Source : Sources) {
    std::string Error;
    std::optional<Program> P1 = parseSource(Source, &Error);
    ASSERT_TRUE(P1.has_value()) << Error;
    std::string Printed1 = printProgram(*P1);
    std::optional<Program> P2 = parseSource(Printed1, &Error);
    ASSERT_TRUE(P2.has_value()) << Error << "\n" << Printed1;
    // Printing is a fixed point after one round trip.
    EXPECT_EQ(Printed1, printProgram(*P2));
  }
}

TEST(Printer, EmitsPragma) {
  std::string Error;
  std::optional<Program> P = parseSource(
      "int a[8]; void f() { for (int i = 0; i < 8; i++) { a[i] = i; } }",
      &Error);
  ASSERT_TRUE(P.has_value()) << Error;
  std::vector<LoopSite> Sites = extractLoops(*P);
  ASSERT_EQ(Sites.size(), 1u);
  injectPragma(Sites[0], {16, 4});
  std::string Printed = printProgram(*P);
  EXPECT_NE(
      Printed.find(
          "#pragma clang loop vectorize_width(16) interleave_count(4)"),
      std::string::npos)
      << Printed;
  // And it round-trips through the parser.
  std::optional<Program> P2 = parseSource(Printed, &Error);
  ASSERT_TRUE(P2.has_value()) << Error;
  std::vector<LoopSite> Sites2 = extractLoops(*P2);
  ASSERT_EQ(Sites2.size(), 1u);
  ASSERT_TRUE(Sites2[0].Inner->Pragma.has_value());
  EXPECT_EQ(Sites2[0].Inner->Pragma->VF, 16);
  EXPECT_EQ(Sites2[0].Inner->Pragma->IF, 4);
}

TEST(LoopExtractor, FindsAllInnermostLoops) {
  const char *Source = R"(
    float A[8][8]; float B[8][8]; float C[8][8]; float alpha;
    void f() {
      for (int i = 0; i < 8; i++) {
        for (int j = 0; j < 8; j++) {
          float sum = 0;
          for (int k = 0; k < 8; k++) {
            sum += alpha * A[i][k] * B[k][j];
          }
          C[i][j] = sum;
        }
      }
      for (int i = 0; i < 8; i++) {
        A[0][i] = 0;
      }
    }
  )";
  std::string Error;
  std::optional<Program> P = parseSource(Source, &Error);
  ASSERT_TRUE(P.has_value()) << Error;
  std::vector<LoopSite> Sites = extractLoops(*P);
  ASSERT_EQ(Sites.size(), 2u);
  EXPECT_EQ(Sites[0].Depth, 3);
  EXPECT_EQ(Sites[1].Depth, 1);
  EXPECT_EQ(Sites[0].Inner->IndexVar, "k");
  EXPECT_EQ(Sites[0].Outer->IndexVar, "i");
  // Context text is the whole outer loop, including inner bodies (§3.3).
  EXPECT_NE(Sites[0].ContextText.find("sum"), std::string::npos);
  EXPECT_NE(Sites[0].ContextText.find("for"), std::string::npos);
}

TEST(LoopExtractor, ClearAllPragmas) {
  const char *Source = R"(
    int a[8];
    void f() {
      #pragma clang loop vectorize_width(4) interleave_count(2)
      for (int i = 0; i < 8; i++) { a[i] = i; }
    }
  )";
  std::string Error;
  std::optional<Program> P = parseSource(Source, &Error);
  ASSERT_TRUE(P.has_value()) << Error;
  clearAllPragmas(*P);
  std::vector<LoopSite> Sites = extractLoops(*P);
  ASSERT_EQ(Sites.size(), 1u);
  EXPECT_FALSE(Sites[0].Inner->Pragma.has_value());
}

TEST(AST, CloneIsDeep) {
  std::string Error;
  std::optional<Program> P = parseSource(
      "int a[8]; void f() { for (int i = 0; i < 8; i++) { a[i] = i * 2; } }",
      &Error);
  ASSERT_TRUE(P.has_value()) << Error;
  Function Copy = P->Functions[0]; // Copy ctor deep-clones the body.
  std::vector<LoopSite> Sites = extractLoops(*P);
  injectPragma(Sites[0], {8, 2});
  // The copy must not observe the mutation.
  EXPECT_EQ(printStmt(*Copy.Body).find("#pragma"), std::string::npos);
}

// --- Nesting bound ------------------------------------------------------
// The daemon parses client text and every pass after the parser recurses
// over the AST, so past the parser's nesting bound (256 levels) a program
// must be a parse error rather than a stack overflow. 20k levels killed
// the parser (parentheses) or a later pass (a long sum) before the bound.

std::string loopAssigning(const std::string &Expr) {
  return "float a[64]; void f() { for (int i = 0; i < 64; i++) { a[i] = " +
         Expr + "; } }";
}

std::string sumOfOnes(int Terms) {
  std::string Sum = "1";
  for (int I = 1; I < Terms; ++I)
    Sum += "+1";
  return Sum;
}

void expectTooDeep(const std::string &Source) {
  std::string Error;
  EXPECT_FALSE(parseSource(Source, &Error).has_value());
  EXPECT_NE(Error.find("nesting too deep"), std::string::npos) << Error;
}

TEST(Parser, RejectsDeeplyNestedParentheses) {
  const int N = 20000;
  expectTooDeep(
      loopAssigning(std::string(N, '(') + "1" + std::string(N, ')')));
}

TEST(Parser, RejectsLongLeftAssociativeChain) {
  // parseBinary builds this chain in a loop, but the tree is one level
  // deeper per operator.
  expectTooDeep(loopAssigning(sumOfOnes(20000)));
  // A long left operand nested in parentheses adds to the enclosing
  // chain's depth.
  std::string Nested = "(" + sumOfOnes(150) + ")";
  expectTooDeep(loopAssigning(Nested + "+" + sumOfOnes(150)));
}

TEST(Parser, RejectsDeeplyNestedStatements) {
  const int N = 20000;
  std::string Loops = "float a[8]; void f() { ";
  for (int I = 0; I < N; ++I)
    Loops += "for (int i = 0; i < 8; i++) ";
  expectTooDeep(Loops + "a[0] = 1; }");
  expectTooDeep("void f() { " + std::string(N, '{') + std::string(N, '}') +
                " }");
  std::string ElseIfs = "int x; void f() { if (x) x = 1; ";
  for (int I = 0; I < N; ++I)
    ElseIfs += "else if (x) x = 1; ";
  expectTooDeep(ElseIfs + "}");
}

TEST(Parser, AcceptsNestingWellInsideTheBound) {
  // The deepest program in the bundled suites and generator templates
  // nests 9 levels.
  std::string Siblings = sumOfOnes(200); // Sibling chains do not add up.
  for (int I = 0; I < 3; ++I)
    Siblings += "; a[i] = " + sumOfOnes(200);
  for (const std::string &Expr :
       {std::string(200, '(') + "1" + std::string(200, ')'), Siblings}) {
    std::string Error;
    std::optional<Program> P = parseSource(loopAssigning(Expr), &Error);
    ASSERT_TRUE(P.has_value()) << Error;
    EXPECT_EQ(extractLoops(*P).size(), 1u);
  }
}

} // namespace
