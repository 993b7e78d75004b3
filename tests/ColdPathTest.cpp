//===- tests/ColdPathTest.cpp - cold-path refactor equivalence suite -------===//
//
// Proves the allocation-free cold path (interned tokens, arena'd
// extraction, span-based encode, sharded plan cache) is a pure
// performance change: a string-based reference extractor — the pre-PR
// implementation, op for op, over std::string labels and tokens — must
// yield byte-identical path contexts, embeddings, and serve plans, across
// pool sizes, cache shard counts, and v1/v2/v3 model loads.
//
//===----------------------------------------------------------------------===//

#include "TestCounters.h"
#include "core/NeuroVectorizer.h"
#include "dataset/LoopGenerator.h"
#include "embedding/ContextBuffer.h"
#include "ir/Legality.h"
#include "ir/Lowering.h"
#include "lang/LoopExtractor.h"
#include "lang/Parser.h"
#include "serve/ModelSerializer.h"
#include "support/StringUtils.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>

using namespace nv;

namespace {

//===----------------------------------------------------------------------===//
// The string-path reference extractor: the pre-PR TreeBuilder, verbatim —
// std::string node labels and terminal tokens, per-pair token hashing —
// evaluating the same structural path hash from the label *strings*, so
// any divergence in the interner, the cached token hashes, or the prefix
// states shows up as a context mismatch.
//===----------------------------------------------------------------------===//

struct RefNode {
  std::string Label;
  std::string Token;
  int Parent = -1;
  bool IsTerminal = false;
};

class RefTreeBuilder {
public:
  std::vector<RefNode> Nodes;

  int addNode(const std::string &Label, int Parent) {
    RefNode N;
    N.Label = Label;
    N.Parent = Parent;
    Nodes.push_back(N);
    return static_cast<int>(Nodes.size()) - 1;
  }

  int addTerminal(const std::string &Token, int Parent) {
    RefNode N;
    N.Token = Token;
    N.Label = "T";
    N.Parent = Parent;
    N.IsTerminal = true;
    Nodes.push_back(N);
    return static_cast<int>(Nodes.size()) - 1;
  }

  void buildExpr(const Expr &E, int Parent) {
    switch (E.kind()) {
    case ExprKind::IntLit:
      addTerminal(std::to_string(static_cast<const IntLit &>(E).Value),
                  addNode("Int", Parent));
      return;
    case ExprKind::FloatLit:
      addTerminal("<flt>", addNode("Flt", Parent));
      return;
    case ExprKind::VarRef:
      addTerminal(static_cast<const VarRef &>(E).Name,
                  addNode("Var", Parent));
      return;
    case ExprKind::ArrayRef: {
      const auto &Ref = static_cast<const ArrayRef &>(E);
      const int Node = addNode("Arr", Parent);
      addTerminal(Ref.Name, Node);
      for (const auto &Index : Ref.Indices)
        buildExpr(*Index, addNode("Idx", Node));
      return;
    }
    case ExprKind::Unary: {
      const auto &U = static_cast<const UnaryExpr &>(E);
      const char *Label = U.Op == UnaryOp::Neg   ? "Neg"
                          : U.Op == UnaryOp::Not ? "LNot"
                                                 : "BNot";
      buildExpr(*U.Sub, addNode(Label, Parent));
      return;
    }
    case ExprKind::Binary: {
      const auto &B = static_cast<const BinaryExpr &>(E);
      const int Node =
          addNode(std::string("Bin") + binaryOpSpelling(B.Op), Parent);
      buildExpr(*B.LHS, Node);
      buildExpr(*B.RHS, Node);
      return;
    }
    case ExprKind::Ternary: {
      const auto &T = static_cast<const TernaryExpr &>(E);
      const int Node = addNode("Cond", Parent);
      buildExpr(*T.Cond, Node);
      buildExpr(*T.Then, Node);
      buildExpr(*T.Else, Node);
      return;
    }
    case ExprKind::Cast: {
      const auto &C = static_cast<const CastExpr &>(E);
      const int Node = addNode("Cast", Parent);
      addTerminal(typeName(C.Ty), Node);
      buildExpr(*C.Sub, Node);
      return;
    }
    case ExprKind::Call: {
      const auto &C = static_cast<const CallExpr &>(E);
      const int Node = addNode("Call", Parent);
      addTerminal(C.Callee, Node);
      for (const auto &Arg : C.Args)
        buildExpr(*Arg, Node);
      return;
    }
    }
  }

  void buildStmt(const Stmt &S, int Parent) {
    switch (S.kind()) {
    case StmtKind::Block: {
      const int Node = addNode("Block", Parent);
      for (const auto &Child : static_cast<const BlockStmt &>(S).Stmts)
        buildStmt(*Child, Node);
      return;
    }
    case StmtKind::Decl: {
      const auto &D = static_cast<const DeclStmt &>(S);
      const int Node = addNode("Decl", Parent);
      addTerminal(typeName(D.Ty), Node);
      addTerminal(D.Name, Node);
      if (D.Init)
        buildExpr(*D.Init, Node);
      return;
    }
    case StmtKind::Assign: {
      const auto &A = static_cast<const AssignStmt &>(S);
      const char *Label = A.Op == AssignOp::Assign      ? "Asg"
                          : A.Op == AssignOp::AddAssign ? "Asg+"
                          : A.Op == AssignOp::SubAssign ? "Asg-"
                                                        : "Asg*";
      const int Node = addNode(Label, Parent);
      buildExpr(*A.LValue, Node);
      buildExpr(*A.RHS, Node);
      return;
    }
    case StmtKind::For: {
      const auto &F = static_cast<const ForStmt &>(S);
      const int Node = addNode("For", Parent);
      addTerminal(F.IndexVar, Node);
      buildExpr(*F.Init, addNode("Lo", Node));
      buildExpr(*F.Bound, addNode("Hi", Node));
      addTerminal(std::to_string(F.Step), addNode("Step", Node));
      buildStmt(*F.Body, Node);
      return;
    }
    case StmtKind::If: {
      const auto &I = static_cast<const IfStmt &>(S);
      const int Node = addNode("If", Parent);
      buildExpr(*I.Cond, Node);
      buildStmt(*I.Then, Node);
      if (I.Else)
        buildStmt(*I.Else, addNode("Else", Node));
      return;
    }
    case StmtKind::Return: {
      const auto &R = static_cast<const ReturnStmt &>(S);
      const int Node = addNode("Ret", Parent);
      if (R.Value)
        buildExpr(*R.Value, Node);
      return;
    }
    }
  }
};

/// The pre-PR extraction flow over the string tree, computing the
/// structural path hash from label strings (fnv1a per label, chained
/// through the public pathHashPush/pathHashCombine definitions).
std::vector<PathContext> referenceExtract(const Stmt &S,
                                          const PathContextConfig &Config) {
  RefTreeBuilder Builder;
  Builder.buildStmt(S, /*Parent=*/-1);

  std::vector<int> Terminals;
  for (size_t I = 0; I < Builder.Nodes.size(); ++I)
    if (Builder.Nodes[I].IsTerminal)
      Terminals.push_back(static_cast<int>(I));

  auto RootPath = [&](int Node) {
    std::vector<int> Path;
    for (int Cur = Builder.Nodes[Node].Parent; Cur != -1;
         Cur = Builder.Nodes[Cur].Parent)
      Path.push_back(Cur);
    return Path; // Leaf's parent first, root last.
  };
  std::vector<std::vector<int>> Paths;
  Paths.reserve(Terminals.size());
  for (int T : Terminals)
    Paths.push_back(RootPath(T));

  std::vector<PathContext> Contexts;
  for (size_t I = 0; I < Terminals.size(); ++I) {
    for (size_t J = I + 1; J < Terminals.size(); ++J) {
      const std::vector<int> &PI = Paths[I];
      const std::vector<int> &PJ = Paths[J];
      size_t SI = PI.size(), SJ = PJ.size();
      while (SI > 0 && SJ > 0 && PI[SI - 1] == PJ[SJ - 1]) {
        --SI;
        --SJ;
      }
      const size_t UpLen = SI, DownLen = SJ;
      if (static_cast<int>(UpLen + DownLen + 1) > Config.MaxPathLength)
        continue;

      uint64_t Up = pathHashSeed();
      for (size_t K = 0; K <= UpLen; ++K)
        Up = pathHashPush(Up, fnv1a(Builder.Nodes[PI[K]].Label));
      uint64_t Down = pathHashSeed();
      for (size_t K = 0; K < DownLen; ++K)
        Down = pathHashPush(Down, fnv1a(Builder.Nodes[PJ[K]].Label));

      PathContext Ctx;
      Ctx.SrcToken =
          hashToken(Builder.Nodes[Terminals[I]].Token, Config.TokenVocabSize);
      Ctx.Path = hashToVocab(pathHashCombine(Up, Down), Config.PathVocabSize);
      Ctx.DstToken =
          hashToken(Builder.Nodes[Terminals[J]].Token, Config.TokenVocabSize);
      Contexts.push_back(Ctx);
    }
  }

  if (static_cast<int>(Contexts.size()) > Config.MaxContexts) {
    std::vector<PathContext> Sampled;
    Sampled.reserve(Config.MaxContexts);
    const double Stride =
        static_cast<double>(Contexts.size()) / Config.MaxContexts;
    for (int K = 0; K < Config.MaxContexts; ++K)
      Sampled.push_back(Contexts[static_cast<size_t>(K * Stride)]);
    Contexts = std::move(Sampled);
  }
  return Contexts;
}

bool sameContexts(const std::vector<PathContext> &A,
                  const std::vector<PathContext> &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I < A.size(); ++I)
    if (A[I].SrcToken != B[I].SrcToken || A[I].Path != B[I].Path ||
        A[I].DstToken != B[I].DstToken)
      return false;
  return true;
}

/// Small, fast model configuration (matches ServeTest).
NeuroVectorizerConfig testConfig(uint64_t Seed = 1234) {
  NeuroVectorizerConfig Config;
  Config.PPO.BatchSize = 64;
  Config.PPO.MiniBatchSize = 32;
  Config.PPO.LearningRate = 3e-3;
  Config.Embedding.CodeDim = 16;
  Config.Embedding.TokenDim = 8;
  Config.Embedding.PathDim = 8;
  Config.Seed = Seed;
  return Config;
}

struct TempModel {
  std::string Path;
  explicit TempModel(const std::string &Name)
      : Path(::testing::TempDir() + Name) {}
  ~TempModel() { std::remove(Path.c_str()); }
};

/// Rewrites a freshly saved (v3, weights-only) model file as an older
/// format version (mirrors ServeTest::downgradeModelFile).
void downgradeModelFile(const std::string &Path, uint32_t Version) {
  std::ifstream In(Path, std::ios::binary);
  std::string Bytes((std::istreambuf_iterator<char>(In)),
                    std::istreambuf_iterator<char>());
  In.close();
  ASSERT_GT(Bytes.size(), 24u);
  Bytes.erase(Bytes.size() - sizeof(uint64_t) - sizeof(uint32_t),
              sizeof(uint32_t)); // Empty v3 section count.
  if (Version == 1)
    Bytes.erase(8, 4); // Flags word.
  std::memcpy(&Bytes[4], &Version, sizeof(Version));
  const uint64_t Sum = ModelSerializer::checksum(
      Bytes.data(), Bytes.size() - sizeof(uint64_t));
  std::memcpy(&Bytes[Bytes.size() - sizeof(uint64_t)], &Sum, sizeof(Sum));
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
  Out.close();
}

//===----------------------------------------------------------------------===//
// Tests
//===----------------------------------------------------------------------===//

TEST(ColdPath, InternedExtractionMatchesStringReference) {
  PathContextConfig Config;
  LoopGenerator Gen(/*Seed=*/2024);
  ContextBuffer Buf; // One buffer across the whole corpus: reuse on purpose.
  int Sites = 0;
  for (const GeneratedLoop &L : Gen.generateMany(48)) {
    std::optional<Program> P = parseSource(L.Source);
    ASSERT_TRUE(P.has_value()) << L.Name;
    for (const LoopSite &Site : extractLoops(*P)) {
      for (const Stmt *Root :
           {static_cast<const Stmt *>(Site.Outer),
            static_cast<const Stmt *>(Site.Inner)}) {
        const std::vector<PathContext> Ref = referenceExtract(*Root, Config);
        const std::vector<PathContext> Wrapped =
            extractPathContexts(*Root, Config);
        const ContextSpan Span = extractPathContextsInto(*Root, Config, Buf);
        ASSERT_TRUE(sameContexts(Ref, Wrapped)) << L.Name;
        ASSERT_TRUE(sameContexts(
            Ref, std::vector<PathContext>(Span.begin(), Span.end())))
            << L.Name;
        ++Sites;
      }
    }
  }
  EXPECT_GT(Sites, 60); // The corpus actually exercised the extractor.
}

TEST(ColdPath, InternedExtractionMatchesReferenceOnSmallVocab) {
  // Small vocabularies force collisions; the fold must still agree.
  PathContextConfig Config;
  Config.TokenVocabSize = 17; // Deliberately not a power of two.
  Config.PathVocabSize = 13;
  LoopGenerator Gen(/*Seed=*/7);
  for (const GeneratedLoop &L : Gen.generateMany(12)) {
    std::optional<Program> P = parseSource(L.Source);
    ASSERT_TRUE(P.has_value());
    for (const LoopSite &Site : extractLoops(*P)) {
      const std::vector<PathContext> Ref =
          referenceExtract(*Site.Outer, Config);
      EXPECT_TRUE(sameContexts(Ref, extractPathContexts(*Site.Outer, Config)));
      for (const PathContext &Ctx : Ref) {
        EXPECT_GE(Ctx.SrcToken, 0);
        EXPECT_LT(Ctx.SrcToken, 17);
        EXPECT_GE(Ctx.Path, 0);
        EXPECT_LT(Ctx.Path, 13);
      }
    }
  }
}

TEST(ColdPath, SpanEncodeBitwiseMatchesBatchEncode) {
  RNG R(11);
  Code2VecConfig Config;
  Config.CodeDim = 24;
  Code2Vec Embedder(Config, R);
  LoopGenerator Gen(/*Seed=*/99);
  std::vector<std::vector<PathContext>> Bags;
  for (const GeneratedLoop &L : Gen.generateMany(16)) {
    std::optional<Program> P = parseSource(L.Source);
    ASSERT_TRUE(P.has_value());
    for (const LoopSite &Site : extractLoops(*P))
      Bags.push_back(extractPathContexts(*Site.Outer, Config.Paths));
  }
  Bags.push_back({}); // An empty bag must encode to zero on both paths.
  ASSERT_GT(Bags.size(), 8u);

  Matrix ViaBatch;
  Embedder.encodeBatchInto(Bags, ViaBatch);
  std::vector<ContextSpan> Spans;
  for (const auto &Bag : Bags)
    Spans.push_back({Bag.data(), Bag.size()});
  Matrix ViaSpans;
  Embedder.encodeSpansInto(Spans, ViaSpans);

  ASSERT_EQ(ViaBatch.rows(), ViaSpans.rows());
  ASSERT_EQ(ViaBatch.cols(), ViaSpans.cols());
  EXPECT_EQ(ViaBatch.raw(), ViaSpans.raw()); // Bitwise.

  // And with a pool: still bitwise identical.
  ThreadPool Pool(4);
  Matrix Pooled;
  Embedder.encodeSpansInto(Spans, Pooled, &Pool);
  EXPECT_EQ(ViaBatch.raw(), Pooled.raw());
}

TEST(ColdPath, ServePlansMatchReferencePipelineAcrossThreads) {
  // The serve cold path (arena extraction, sharded cache, span encode)
  // must produce exactly the plans of the reference pipeline: string-path
  // extraction -> batched encode -> the same backend, and must do so at
  // every pool size and shard count, with identical counter stats.
  NeuroVectorizer NV(testConfig(/*Seed=*/3));
  LoopGenerator Train(/*Seed=*/5);
  for (const GeneratedLoop &L : Train.generateMany(24))
    NV.addTrainingProgram(L.Name, L.Source);
  NV.train(256);

  LoopGenerator Unseen(/*Seed=*/606);
  std::vector<AnnotationRequest> Requests;
  for (const GeneratedLoop &L : Unseen.generateMany(24))
    Requests.push_back({L.Name, L.Source});
  Requests.push_back(Requests.front()); // One intra-batch duplicate.

  // Reference plans, one program at a time through the string extractor,
  // then the same legality clamp the service applies at its boundary.
  std::vector<std::vector<VectorPlan>> Reference;
  const TargetInfo RefTI;
  for (const AnnotationRequest &Req : Requests) {
    std::optional<Program> P = parseSource(Req.Source);
    ASSERT_TRUE(P.has_value());
    clearAllPragmas(*P);
    std::vector<LoopSite> Sites = extractLoops(*P);
    std::vector<std::vector<PathContext>> Bags;
    for (const LoopSite &Site : Sites)
      Bags.push_back(referenceExtract(
          *Site.Outer, NV.embedder().config().Paths));
    const Matrix States = NV.embedder().encodeBatch(Bags);
    std::vector<VectorPlan> Plans =
        NV.backends().get(PredictMethod::RL)->plansForEmbeddings(States,
                                                                 nullptr);
    const std::vector<LoopSummary> Summaries =
        lowerAllLoops(*P, Sites, RefTI.MaxVF);
    for (size_t S = 0; S < Plans.size(); ++S)
      Plans[S] = legalizePlan(
          analyzeLegality(Summaries[S], RefTI).MaxSafeVF, Plans[S], RefTI);
    Reference.push_back(std::move(Plans));
  }

  std::vector<uint64_t> FirstCounters;
  for (int Threads : {1, 2, 4}) {
    for (int Shards : {1, 8}) {
      ServeConfig Serve;
      Serve.Threads = Threads;
      Serve.CacheShards = Shards;
      AnnotationService &Service = NV.service(Serve); // Fresh cache.
      std::vector<CounterDelta> Deltas;
      for (const char *Name :
           {"serve.programs_served", "serve.loops_served", "serve.cache_hits",
            "serve.dedup_hits", "serve.cache_misses", "serve.forward_passes",
            "serve.forward_rows"})
        Deltas.emplace_back(Name);
      const std::vector<AnnotationResult> Results =
          Service.annotateBatch(Requests);
      ASSERT_EQ(Results.size(), Requests.size());
      for (size_t I = 0; I < Results.size(); ++I) {
        ASSERT_TRUE(Results[I].Ok) << Results[I].Error;
        ASSERT_EQ(Results[I].Plans.size(), Reference[I].size());
        for (size_t S = 0; S < Reference[I].size(); ++S)
          EXPECT_EQ(Results[I].Plans[S], Reference[I][S])
              << Requests[I].Name << " site " << S << " threads "
              << Threads << " shards " << Shards;
      }
      // Counter stats (not timings) must not depend on pool or shards.
      std::vector<uint64_t> Counters;
      for (const CounterDelta &D : Deltas)
        Counters.push_back(D());
      if (FirstCounters.empty())
        FirstCounters = Counters;
      else
        EXPECT_EQ(Counters, FirstCounters)
            << "threads " << Threads << " shards " << Shards;
    }
  }
}

TEST(ColdPath, ServePlansStableAcrossModelFileVersions) {
  // Save once, serve the same weights through v1, v2, and v3 files: the
  // cold path must answer identically for every format generation.
  TempModel V3("coldpath_v3.nvm"), V2("coldpath_v2.nvm"),
      V1("coldpath_v1.nvm");
  NeuroVectorizer Trained(testConfig(/*Seed=*/21));
  LoopGenerator Train(/*Seed=*/22);
  for (const GeneratedLoop &L : Train.generateMany(16))
    Trained.addTrainingProgram(L.Name, L.Source);
  Trained.train(192);
  ASSERT_TRUE(Trained.save(V3.Path));
  ASSERT_TRUE(Trained.save(V2.Path));
  ASSERT_TRUE(Trained.save(V1.Path));
  downgradeModelFile(V2.Path, /*Version=*/2);
  downgradeModelFile(V1.Path, /*Version=*/1);

  LoopGenerator Unseen(/*Seed=*/23);
  std::vector<AnnotationRequest> Requests;
  for (const GeneratedLoop &L : Unseen.generateMany(12))
    Requests.push_back({L.Name, L.Source});

  std::vector<std::string> FirstAnnotations;
  for (const std::string *Path : {&V3.Path, &V2.Path, &V1.Path}) {
    NeuroVectorizer Fresh(testConfig(/*Seed=*/99));
    std::string Error;
    ASSERT_TRUE(Fresh.load(*Path, &Error)) << Error;
    ServeConfig Serve;
    Serve.Threads = 2;
    std::vector<std::string> Annotations;
    for (const AnnotationResult &Res :
         Fresh.service(Serve).annotateBatch(Requests)) {
      ASSERT_TRUE(Res.Ok) << Res.Error;
      Annotations.push_back(Res.Annotated);
    }
    if (FirstAnnotations.empty())
      FirstAnnotations = std::move(Annotations);
    else
      EXPECT_EQ(Annotations, FirstAnnotations) << *Path;
  }
}

} // namespace
