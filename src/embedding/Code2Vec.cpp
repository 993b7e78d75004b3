//===- embedding/Code2Vec.cpp - Attention code embedding ------------------===//

#include "embedding/Code2Vec.h"

#include "nn/Distributions.h"
#include "support/ThreadPool.h"

#include <cassert>
#include <cmath>

using namespace nv;

Code2Vec::Code2Vec(const Code2VecConfig &Config, RNG &Rng)
    : Config(Config),
      TokenEmb(Config.Paths.TokenVocabSize, Config.TokenDim),
      PathEmb(Config.Paths.PathVocabSize, Config.PathDim),
      W(2 * Config.TokenDim + Config.PathDim, Config.CodeDim),
      B(1, Config.CodeDim), Attn(1, Config.CodeDim) {
  TokenEmb.Value.initGaussian(Rng, 0.5);
  PathEmb.Value.initGaussian(Rng, 0.5);
  W.Value.initXavier(Rng);
  Attn.Value.initGaussian(Rng, 0.3);
}

std::vector<Param *> Code2Vec::params() {
  return {&TokenEmb, &PathEmb, &W, &B, &Attn};
}

void Code2Vec::encodeSample(SampleCache &SC, ContextSpan Contexts,
                            double *VRow, ThreadPool *Pool) {
  const int InDim = 2 * Config.TokenDim + Config.PathDim;
  for (int D = 0; D < Config.CodeDim; ++D)
    VRow[D] = 0.0;
  if (Contexts.empty()) {
    // Empty snippet: code vector is zero.
    SC.X.resize(0, InDim);
    SC.C.resize(0, Config.CodeDim);
    SC.Alpha.clear();
    return;
  }
  const int N = static_cast<int>(Contexts.Size);

  // Gather embeddings.
  SC.X.resize(N, InDim);
  for (int I = 0; I < N; ++I) {
    const PathContext &Ctx = Contexts.Data[I];
    double *Row = SC.X.rowPtr(I);
    const double *Src = TokenEmb.Value.rowPtr(Ctx.SrcToken);
    const double *Path = PathEmb.Value.rowPtr(Ctx.Path);
    const double *Dst = TokenEmb.Value.rowPtr(Ctx.DstToken);
    for (int D = 0; D < Config.TokenDim; ++D)
      Row[D] = Src[D];
    for (int D = 0; D < Config.PathDim; ++D)
      Row[Config.TokenDim + D] = Path[D];
    for (int D = 0; D < Config.TokenDim; ++D)
      Row[Config.TokenDim + Config.PathDim + D] = Dst[D];
  }

  // Combined context vectors: fused affine + tanh.
  gemmInto(SC.C, SC.X, W.Value, &B.Value, Activation::Tanh, Pool);

  // Attention scores, softmaxed in place.
  SC.Alpha.resize(N);
  const double *AttnRow = Attn.Value.rowPtr(0);
  double MaxScore = -1e300;
  for (int I = 0; I < N; ++I) {
    double Dot = 0.0;
    const double *CRow = SC.C.rowPtr(I);
    for (int D = 0; D < Config.CodeDim; ++D)
      Dot += CRow[D] * AttnRow[D];
    SC.Alpha[I] = Dot;
    MaxScore = std::max(MaxScore, Dot);
  }
  double Norm = 0.0;
  for (int I = 0; I < N; ++I) {
    SC.Alpha[I] = std::exp(SC.Alpha[I] - MaxScore);
    Norm += SC.Alpha[I];
  }
  for (int I = 0; I < N; ++I)
    SC.Alpha[I] /= Norm;

  // Weighted sum.
  for (int I = 0; I < N; ++I) {
    const double *CRow = SC.C.rowPtr(I);
    const double Alpha = SC.Alpha[I];
    for (int D = 0; D < Config.CodeDim; ++D)
      VRow[D] += Alpha * CRow[D];
  }
}

void Code2Vec::encodeBatchInto(
    const std::vector<std::vector<PathContext>> &Batch, Matrix &V,
    ThreadPool *Pool) {
  V.resize(static_cast<int>(Batch.size()), Config.CodeDim);
  Cache.resize(Batch.size()); // Existing SampleCaches keep their buffers.
  BackwardReady = true;

  auto EncodeOne = [&](size_t S, ThreadPool *SamplePool) {
    // Retain the contexts for backward()'s embedding-table scatter (the
    // copy reuses the cache vector's capacity once warm).
    Cache[S].Contexts = Batch[S];
    encodeSample(Cache[S], {Batch[S].data(), Batch[S].size()},
                 V.rowPtr(static_cast<int>(S)), SamplePool);
  };
  if (Pool && Batch.size() > 1) {
    // Samples are independent: fan them out and keep each sample's inner
    // GEMM serial. Per-sample results do not depend on the partition.
    Pool->parallelFor(0, Batch.size(),
                      [&](size_t S) { EncodeOne(S, nullptr); });
    return;
  }
  for (size_t S = 0; S < Batch.size(); ++S)
    EncodeOne(S, Pool);
}

void Code2Vec::encodeSpansInto(const std::vector<ContextSpan> &Batch,
                               Matrix &V, ThreadPool *Pool) {
  V.resize(static_cast<int>(Batch.size()), Config.CodeDim);
  Cache.resize(Batch.size());
  BackwardReady = false; // Contexts are borrowed, not retained.

  if (Pool && Batch.size() > 1) {
    Pool->parallelFor(0, Batch.size(), [&](size_t S) {
      encodeSample(Cache[S], Batch[S], V.rowPtr(static_cast<int>(S)),
                   nullptr);
    });
    return;
  }
  for (size_t S = 0; S < Batch.size(); ++S)
    encodeSample(Cache[S], Batch[S], V.rowPtr(static_cast<int>(S)), Pool);
}

Matrix Code2Vec::encodeBatch(
    const std::vector<std::vector<PathContext>> &Batch) {
  Matrix V;
  encodeBatchInto(Batch, V);
  return V;
}

Matrix Code2Vec::encode(const std::vector<PathContext> &Contexts) {
  return encodeBatch({Contexts});
}

void Code2Vec::backward(const Matrix &dV) {
  assert(BackwardReady &&
         "backward after encodeSpansInto (forward-only serving encode)");
  assert(dV.rows() == static_cast<int>(Cache.size()) &&
         "backward batch size mismatch with last encodeBatch");
  assert(dV.cols() == Config.CodeDim && "backward width mismatch");

  for (size_t S = 0; S < Cache.size(); ++S) {
    SampleCache &SC = Cache[S];
    const int N = static_cast<int>(SC.Contexts.size());
    if (N == 0)
      continue;
    const double *dVRow = dV.rowPtr(static_cast<int>(S));

    // v = sum alpha_i c_i.
    //   dAlpha_i = c_i . dv        dC_i += alpha_i dv
    std::vector<double> dAlpha(N, 0.0);
    Matrix &dC = BackdC;
    dC.resize(N, Config.CodeDim);
    for (int I = 0; I < N; ++I) {
      const double *CRow = SC.C.rowPtr(I);
      double *dCRow = dC.rowPtr(I);
      double Dot = 0.0;
      for (int D = 0; D < Config.CodeDim; ++D) {
        Dot += CRow[D] * dVRow[D];
        dCRow[D] = SC.Alpha[I] * dVRow[D];
      }
      dAlpha[I] = Dot;
    }

    // Softmax backward: dScore_i = alpha_i (dAlpha_i - sum_j alpha_j
    // dAlpha_j).
    double Weighted = 0.0;
    for (int I = 0; I < N; ++I)
      Weighted += SC.Alpha[I] * dAlpha[I];
    std::vector<double> dScore(N);
    for (int I = 0; I < N; ++I)
      dScore[I] = SC.Alpha[I] * (dAlpha[I] - Weighted);

    // Score_i = c_i . a:  dA += dScore_i c_i;  dC_i += dScore_i a.
    for (int I = 0; I < N; ++I) {
      const double *CRow = SC.C.rowPtr(I);
      double *dCRow = dC.rowPtr(I);
      for (int D = 0; D < Config.CodeDim; ++D) {
        Attn.Grad.at(0, D) += dScore[I] * CRow[D];
        dCRow[D] += dScore[I] * Attn.Value.at(0, D);
      }
    }

    // tanh backward into the affine pre-activation.
    for (int I = 0; I < N; ++I) {
      const double *CRow = SC.C.rowPtr(I);
      double *dCRow = dC.rowPtr(I);
      for (int D = 0; D < Config.CodeDim; ++D)
        dCRow[D] *= 1.0 - CRow[D] * CRow[D];
    }

    // Affine backward: pre = X W + b.
    gemmTAInto(W.Grad, SC.X, dC, /*Accumulate=*/true);
    sumRowsInto(B.Grad, dC, /*Accumulate=*/true);
    Matrix &dX = BackdX;
    gemmTBInto(dX, dC, W.Value);

    // Scatter into the embedding tables.
    for (int I = 0; I < N; ++I) {
      const PathContext &Ctx = SC.Contexts[I];
      const double *Row = dX.rowPtr(I);
      double *Src = TokenEmb.Grad.rowPtr(Ctx.SrcToken);
      double *Path = PathEmb.Grad.rowPtr(Ctx.Path);
      double *Dst = TokenEmb.Grad.rowPtr(Ctx.DstToken);
      for (int D = 0; D < Config.TokenDim; ++D)
        Src[D] += Row[D];
      for (int D = 0; D < Config.PathDim; ++D)
        Path[D] += Row[Config.TokenDim + D];
      for (int D = 0; D < Config.TokenDim; ++D)
        Dst[D] += Row[Config.TokenDim + Config.PathDim + D];
    }
  }
}
