//===- tests/EmbeddingTest.cpp - path-context and code2vec tests ----------===//

#include "embedding/Code2Vec.h"
#include "embedding/PathContext.h"
#include "lang/LoopExtractor.h"
#include "lang/Parser.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>

using namespace nv;

namespace {

std::vector<PathContext> contextsOf(const std::string &Source,
                                    const PathContextConfig &Config) {
  std::string Error;
  std::optional<Program> P = parseSource(Source, &Error);
  EXPECT_TRUE(P.has_value()) << Error;
  std::vector<LoopSite> Sites = extractLoops(*P);
  EXPECT_FALSE(Sites.empty());
  return extractPathContexts(*Sites[0].Outer, Config);
}

TEST(PathContext, DeterministicExtraction) {
  PathContextConfig Config;
  const char *Src = "int a[8]; void f() { for (int i = 0; i < 8; i++) { "
                    "a[i] = i * 2; } }";
  auto C1 = contextsOf(Src, Config);
  auto C2 = contextsOf(Src, Config);
  ASSERT_EQ(C1.size(), C2.size());
  for (size_t I = 0; I < C1.size(); ++I) {
    EXPECT_EQ(C1[I].SrcToken, C2[I].SrcToken);
    EXPECT_EQ(C1[I].Path, C2[I].Path);
    EXPECT_EQ(C1[I].DstToken, C2[I].DstToken);
  }
  EXPECT_FALSE(C1.empty());
}

TEST(PathContext, VocabularyBounds) {
  PathContextConfig Config;
  Config.TokenVocabSize = 64;
  Config.PathVocabSize = 32;
  auto Contexts = contextsOf(
      "float x[64]; float y[64]; void f() { for (int i = 0; i < 64; i++) "
      "{ y[i] = x[i] * 3.0 + y[i]; } }",
      Config);
  for (const PathContext &C : Contexts) {
    EXPECT_GE(C.SrcToken, 0);
    EXPECT_LT(C.SrcToken, 64);
    EXPECT_GE(C.Path, 0);
    EXPECT_LT(C.Path, 32);
    EXPECT_GE(C.DstToken, 0);
    EXPECT_LT(C.DstToken, 64);
  }
}

TEST(PathContext, MaxContextsCapRespected) {
  PathContextConfig Config;
  Config.MaxContexts = 10;
  auto Contexts = contextsOf(
      "float A[32][32]; float B[32][32]; float C[32][32]; void f() { for "
      "(int i = 0; i < 32; i++) { for (int j = 0; j < 32; j++) { C[i][j] "
      "= A[i][j] * B[i][j] + C[i][j]; } } }",
      Config);
  EXPECT_LE(Contexts.size(), 10u);
  EXPECT_FALSE(Contexts.empty());
}

TEST(PathContext, DifferentLoopsDifferentContexts) {
  PathContextConfig Config;
  auto A = contextsOf("int a[8]; void f() { for (int i = 0; i < 8; i++) { "
                      "a[i] = 1; } }",
                      Config);
  auto B = contextsOf("float s[64]; float o; void f() { float m = 0; for "
                      "(int i = 0; i < 64; i++) { m += s[i] * s[i]; } o = "
                      "m; }",
                      Config);
  // At least the context multisets must differ.
  EXPECT_NE(A.size(), B.size());
}

TEST(PathContext, RenamedVariablesChangeTokensNotPaths) {
  // The paper's generators rename parameters to de-bias the embedding;
  // renaming must keep the *path* structure identical.
  PathContextConfig Config;
  auto A = contextsOf("int a[8]; void f() { for (int i = 0; i < 8; i++) { "
                      "a[i] = i; } }",
                      Config);
  auto B = contextsOf("int zz[8]; void f() { for (int k = 0; k < 8; k++) "
                      "{ zz[k] = k; } }",
                      Config);
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I < A.size(); ++I)
    EXPECT_EQ(A[I].Path, B[I].Path);
}

TEST(PathContext, PinnedVocabHashes) {
  // The exact token -> vocab-id mapping is load-bearing: a trained model's
  // embedding tables are indexed by these ids, so any silent change to the
  // hash (interning, folding, bias fix) re-buckets the vocabulary and
  // invalidates every saved model. Values computed independently (Python)
  // from the documented definition: hashToVocab(fnv1a(token)).
  EXPECT_EQ(hashToken("i", 2048), 1127);
  EXPECT_EQ(hashToken("sum", 2048), 467);
  EXPECT_EQ(hashToken("<flt>", 2048), 710);
  EXPECT_EQ(hashToken("0", 2048), 1399);
  EXPECT_EQ(hashToken("512", 2048), 1674);
  EXPECT_EQ(hashToken("float", 2048), 611);
  // Folding is not plain truncation: small vocabularies see the high bits.
  EXPECT_EQ(hashToken("i", 64), 35);
  EXPECT_EQ(hashToken("sum", 64), 14);

  // One pinned structural path hash: up labels [Var, Asg+] (LCA last),
  // down labels [Arr].
  const uint64_t Up = pathHashPush(pathHashPush(pathHashSeed(), fnv1a("Var")),
                                   fnv1a("Asg+"));
  const uint64_t Down = pathHashPush(pathHashSeed(), fnv1a("Arr"));
  EXPECT_EQ(hashToVocab(pathHashCombine(Up, Down), 4096), 1266);
  // Direction matters: the reversed path hashes differently.
  const uint64_t RevUp = pathHashPush(pathHashPush(pathHashSeed(),
                                                   fnv1a("Arr")),
                                      fnv1a("Asg+"));
  const uint64_t RevDown = pathHashPush(pathHashSeed(), fnv1a("Var"));
  EXPECT_NE(pathHashCombine(Up, Down), pathHashCombine(RevUp, RevDown));
}

TEST(PathContext, HashToVocabIsUnbiasedAtBoundaries) {
  // The Lemire multiply-shift maps [0, 2^64) onto [0, V) without the
  // low-residue bias of `%` and never returns out-of-range ids, including
  // for vocabularies that do not divide 2^64.
  for (int Vocab : {1, 2, 13, 17, 64, 2048, 4095}) {
    for (uint64_t Hash :
         {uint64_t(0), uint64_t(1), ~uint64_t(0), fnv1a("i"),
          fnv1a("some-longer-token"), uint64_t(0x8000000000000000ull)}) {
      const int Id = hashToVocab(Hash, Vocab);
      EXPECT_GE(Id, 0);
      EXPECT_LT(Id, Vocab);
    }
  }
  // All-distinct small inputs must not all collapse into one bucket (the
  // old low-bits-only modulo did exactly that for stride-2^k hashes).
  int Seen[8] = {0};
  for (uint64_t I = 0; I < 64; ++I)
    ++Seen[hashToVocab(I << 32, 8)];
  int NonEmpty = 0;
  for (int Count : Seen)
    NonEmpty += Count > 0;
  EXPECT_GT(NonEmpty, 4);
}

TEST(Code2Vec, OutputShapeAndDeterminism) {
  RNG R(5);
  Code2VecConfig Config;
  Code2Vec Embedder(Config, R);
  auto Contexts = contextsOf(
      "int a[8]; void f() { for (int i = 0; i < 8; i++) { a[i] = i; } }",
      Config.Paths);
  Matrix V1 = Embedder.encode(Contexts);
  Matrix V2 = Embedder.encode(Contexts);
  ASSERT_EQ(V1.rows(), 1);
  ASSERT_EQ(V1.cols(), Config.CodeDim);
  for (int D = 0; D < Config.CodeDim; ++D)
    EXPECT_DOUBLE_EQ(V1.at(0, D), V2.at(0, D));
}

TEST(Code2Vec, EmptyContextsEncodeToZero) {
  RNG R(5);
  Code2VecConfig Config;
  Code2Vec Embedder(Config, R);
  Matrix V = Embedder.encode({});
  for (int D = 0; D < Config.CodeDim; ++D)
    EXPECT_DOUBLE_EQ(V.at(0, D), 0.0);
  // Backward through the empty sample must be a no-op, not a crash.
  Matrix G(1, Config.CodeDim, 1.0);
  Embedder.backward(G);
}

TEST(Code2Vec, GradientsMatchFiniteDifferences) {
  RNG R(3);
  Code2VecConfig Config;
  Config.Paths.TokenVocabSize = 32;
  Config.Paths.PathVocabSize = 32;
  Config.TokenDim = 4;
  Config.PathDim = 4;
  Config.CodeDim = 5;
  Code2Vec Embedder(Config, R);
  std::vector<PathContext> Contexts = {
      {1, 2, 3}, {4, 5, 6}, {1, 5, 3}, {7, 8, 9}};
  Matrix G(1, 5);
  for (int I = 0; I < 5; ++I)
    G.at(0, I) = 0.3 * I - 0.5;

  auto LossOf = [&]() {
    Matrix V = Embedder.encode(Contexts);
    double L = 0;
    for (int I = 0; I < 5; ++I)
      L += V.at(0, I) * G.at(0, I);
    return L;
  };

  for (Param *P : Embedder.params())
    P->zeroGrad();
  (void)LossOf();
  Embedder.backward(G);

  const double Eps = 1e-6;
  double MaxRel = 0.0;
  int Checked = 0;
  for (Param *P : Embedder.params()) {
    const size_t Stride = std::max<size_t>(1, P->Value.size() / 16);
    for (size_t I = 0; I < P->Value.size(); I += Stride) {
      const double Old = P->Value.raw()[I];
      P->Value.raw()[I] = Old + Eps;
      const double L1 = LossOf();
      P->Value.raw()[I] = Old - Eps;
      const double L2 = LossOf();
      P->Value.raw()[I] = Old;
      const double Num = (L1 - L2) / (2 * Eps);
      const double Ana = P->Grad.raw()[I];
      if (std::fabs(Num) + std::fabs(Ana) > 1e-10) {
        MaxRel = std::max(MaxRel, std::fabs(Num - Ana) /
                                      (std::fabs(Num) + std::fabs(Ana)));
        ++Checked;
      }
    }
  }
  EXPECT_GT(Checked, 10);
  EXPECT_LT(MaxRel, 1e-6);
}

/// The one-thread backward as a plain per-sample loop: the forward caches
/// rebuilt from the parameters, then each sample's gradients accumulated
/// in turn. It pins the arithmetic backward() must reproduce bit for bit
/// (params() order: TokenEmb, PathEmb, W, B, Attn).
void referenceBackward(const Code2VecConfig &Config,
                       const std::vector<Param *> &P,
                       const std::vector<std::vector<PathContext>> &Bags,
                       const Matrix &dV) {
  Param &TokenEmb = *P[0], &PathEmb = *P[1], &W = *P[2], &B = *P[3],
        &Attn = *P[4];
  const int TD = Config.TokenDim, PD = Config.PathDim, CD = Config.CodeDim;
  const int InDim = 2 * TD + PD;
  for (size_t S = 0; S < Bags.size(); ++S) {
    const std::vector<PathContext> &Bag = Bags[S];
    const int N = static_cast<int>(Bag.size());
    if (N == 0)
      continue;
    // Forward caches, as encodeBatchInto computes them.
    Matrix X(N, InDim), C;
    for (int I = 0; I < N; ++I) {
      std::copy_n(TokenEmb.Value.rowPtr(Bag[I].SrcToken), TD, X.rowPtr(I));
      std::copy_n(PathEmb.Value.rowPtr(Bag[I].Path), PD, X.rowPtr(I) + TD);
      std::copy_n(TokenEmb.Value.rowPtr(Bag[I].DstToken), TD,
                  X.rowPtr(I) + TD + PD);
    }
    gemmInto(C, X, W.Value, &B.Value, Activation::Tanh);
    std::vector<double> Alpha(N);
    double MaxScore = -1e300;
    for (int I = 0; I < N; ++I) {
      double Dot = 0.0;
      for (int D = 0; D < CD; ++D)
        Dot += C.at(I, D) * Attn.Value.at(0, D);
      Alpha[I] = Dot;
      MaxScore = std::max(MaxScore, Dot);
    }
    double Norm = 0.0;
    for (int I = 0; I < N; ++I) {
      Alpha[I] = std::exp(Alpha[I] - MaxScore);
      Norm += Alpha[I];
    }
    for (int I = 0; I < N; ++I)
      Alpha[I] /= Norm;

    // Backward.
    std::vector<double> dAlpha(N, 0.0), dScore(N);
    Matrix dC(N, CD);
    for (int I = 0; I < N; ++I) {
      double Dot = 0.0;
      for (int D = 0; D < CD; ++D) {
        Dot += C.at(I, D) * dV.at(static_cast<int>(S), D);
        dC.at(I, D) = Alpha[I] * dV.at(static_cast<int>(S), D);
      }
      dAlpha[I] = Dot;
    }
    double Weighted = 0.0;
    for (int I = 0; I < N; ++I)
      Weighted += Alpha[I] * dAlpha[I];
    for (int I = 0; I < N; ++I)
      dScore[I] = Alpha[I] * (dAlpha[I] - Weighted);
    for (int I = 0; I < N; ++I)
      for (int D = 0; D < CD; ++D) {
        Attn.Grad.at(0, D) += dScore[I] * C.at(I, D);
        dC.at(I, D) += dScore[I] * Attn.Value.at(0, D);
      }
    for (int I = 0; I < N; ++I)
      for (int D = 0; D < CD; ++D)
        dC.at(I, D) *= 1.0 - C.at(I, D) * C.at(I, D);
    gemmTAInto(W.Grad, X, dC, /*Accumulate=*/true);
    sumRowsInto(B.Grad, dC, /*Accumulate=*/true);
    Matrix dX;
    gemmTBInto(dX, dC, W.Value);
    for (int I = 0; I < N; ++I) {
      const double *Row = dX.rowPtr(I);
      for (int D = 0; D < TD; ++D)
        TokenEmb.Grad.at(Bag[I].SrcToken, D) += Row[D];
      for (int D = 0; D < PD; ++D)
        PathEmb.Grad.at(Bag[I].Path, D) += Row[TD + D];
      for (int D = 0; D < TD; ++D)
        TokenEmb.Grad.at(Bag[I].DstToken, D) += Row[TD + PD + D];
    }
  }
}

TEST(Code2Vec, BackwardBitIdenticalToSerialAtAnyPoolSize) {
  // backward() spreads its passes over the pool; every gradient element
  // must still add its terms in the serial loop's order. Bags share a few
  // dozen token and path ids (src == dst included), so table rows collect
  // many terms, and one bag is empty.
  Code2VecConfig Config;
  std::vector<std::vector<PathContext>> Bags(40);
  RNG Pick(21);
  for (size_t S = 0; S < Bags.size(); ++S) {
    const size_t N = S == 7 ? 0 : 1 + Pick.nextBounded(96);
    for (size_t I = 0; I < N; ++I) {
      const int Src = static_cast<int>(Pick.nextBounded(40));
      const int Dst = I % 5 == 0 ? Src : static_cast<int>(Pick.nextBounded(40));
      Bags[S].push_back({Src, static_cast<int>(Pick.nextBounded(60)), Dst});
    }
  }
  RNG GradRng(22);
  Matrix dV(static_cast<int>(Bags.size()), Config.CodeDim);
  dV.initGaussian(GradRng, 1.0);
  // Gradients accumulate onto what is already there.
  auto prefill = [](const std::vector<Param *> &Params) {
    RNG Fill(23);
    for (Param *P : Params)
      P->Grad.initGaussian(Fill, 0.5);
  };

  RNG RefInit(24);
  Code2Vec Ref(Config, RefInit);
  prefill(Ref.params());
  referenceBackward(Config, Ref.params(), Bags, dV);

  for (int Threads : {0, 1, 2, 4}) {
    std::unique_ptr<ThreadPool> Pool;
    if (Threads > 0)
      Pool = std::make_unique<ThreadPool>(Threads);
    RNG Init(24);
    Code2Vec Embedder(Config, Init);
    prefill(Embedder.params());
    Matrix V;
    Embedder.encodeBatchInto(Bags, V, Pool.get());
    Embedder.backward(dV, Pool.get());
    const char *Names[] = {"TokenEmb", "PathEmb", "W", "B", "Attn"};
    for (size_t P = 0; P < 5; ++P)
      EXPECT_EQ(Embedder.params()[P]->Grad.raw(), Ref.params()[P]->Grad.raw())
          << Names[P] << " gradient, pool of " << Threads << " threads";
  }
}

TEST(Code2Vec, AttentionWeightsAreADistribution) {
  // Indirectly: scaling one context's embedding shifts the output but the
  // encoding stays bounded by the max context norm (convex combination of
  // tanh vectors: every output dim stays within [-1, 1]).
  RNG R(9);
  Code2VecConfig Config;
  Code2Vec Embedder(Config, R);
  auto Contexts = contextsOf(
      "float A[32][32]; void f() { for (int i = 0; i < 32; i++) { for "
      "(int j = 0; j < 32; j++) { A[i][j] = 0.5; } } }",
      Config.Paths);
  Matrix V = Embedder.encode(Contexts);
  for (int D = 0; D < Config.CodeDim; ++D) {
    EXPECT_LE(V.at(0, D), 1.0);
    EXPECT_GE(V.at(0, D), -1.0);
  }
}

} // namespace
