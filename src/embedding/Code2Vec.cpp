//===- embedding/Code2Vec.cpp - Attention code embedding ------------------===//

#include "embedding/Code2Vec.h"

#include "nn/Distributions.h"
#include "support/ThreadPool.h"

#include <algorithm>
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

namespace {

/// Columns per task of the B/Attn sums.
constexpr int ColumnBlock = 8;

/// Fn(I) for I in [Begin, End): across \p Pool when given, else in order.
template <typename Fn>
void forRange(ThreadPool *Pool, size_t Begin, size_t End, const Fn &Body) {
  if (Pool) {
    Pool->parallelFor(Begin, End, Body);
    return;
  }
  for (size_t I = Begin; I < End; ++I)
    Body(I);
}

/// Start of slice \p K of \p Parts equal slices of [0, Total).
int sliceStart(int Total, size_t K, size_t Parts) {
  return static_cast<int>(static_cast<long long>(Total) *
                          static_cast<long long>(K) /
                          static_cast<long long>(Parts));
}

/// dLoss/dpre for one element: v = sum_i alpha_i c_i and Score_i = c_i . a
/// give dc = alpha_i dv + dScore_i a, and c = tanh(pre) gives the
/// (1 - c^2) factor. Written once so both passes that need it round
/// identically.
inline double contextGradient(double Alpha, double dV, double dScore,
                              double A, double C) {
  double dC = Alpha * dV;
  dC += dScore * A;
  dC *= 1.0 - C * C;
  return dC;
}

} // namespace

void Code2Vec::backward(const Matrix &dV, ThreadPool *Pool) {
  assert(BackwardReady &&
         "backward needs a fresh encodeBatchInto (not encodeSpansInto, and "
         "at most one backward per encode)");
  assert(dV.rows() == static_cast<int>(Cache.size()) &&
         "backward batch size mismatch with last encodeBatch");
  assert(dV.cols() == Config.CodeDim && "backward width mismatch");
  BackwardReady = false; // The caches become gradient buffers below.

  if (Pool && Cache.size() > 1) {
    backwardSamples(dV, 0, Cache.size(), Pool);
    return;
  }
  // Serially, every pass runs for one sample at a time while its caches
  // are hot. Each pass walks samples in order, so this is the pooled
  // schedule's arithmetic exactly.
  for (size_t S = 0; S < Cache.size(); ++S)
    backwardSamples(dV, S, S + 1, nullptr);
}

void Code2Vec::backwardSamples(const Matrix &dV, size_t Begin, size_t End,
                               ThreadPool *Pool) {
  // Slices of the cross-sample passes: one per pool thread (each walks
  // every sample, so fewer, larger slices read less), or the whole
  // gradient when serial.
  const size_t Slices = Pool ? static_cast<size_t>(Pool->size()) : 1;

  // 1. Softmax backward, per sample.
  forRange(Pool, Begin, End, [&](size_t S) {
    scoreGradient(Cache[S], dV.rowPtr(static_cast<int>(S)));
  });

  // 2. Attn.Grad and B.Grad, per column block. Read-only over the caches,
  //    so no block writes a cache line another block reads.
  const size_t Blocks =
      static_cast<size_t>((Config.CodeDim + ColumnBlock - 1) / ColumnBlock);
  forRange(Pool, 0, Blocks, [&](size_t K) {
    const int D0 = static_cast<int>(K) * ColumnBlock;
    columnSums(dV, Begin, End, D0,
               std::min(Config.CodeDim, D0 + ColumnBlock));
  });

  // 3. Per sample: dC over C, its W.Grad term X^T dC, and dX = dC W^T
  //    over X. Serially the term goes straight into W.Grad; on the pool
  //    it is parked over C (reusing its buffer) for step 4. An empty
  //    sample adds no term (not even +0.0, which would turn a -0.0
  //    gradient into +0.0).
  forRange(Pool, Begin, End, [&](size_t S) {
    SampleCache &SC = Cache[S];
    if (SC.Contexts.empty())
      return;
    const double *dVRow = dV.rowPtr(static_cast<int>(S));
    const double *AttnRow = Attn.Value.rowPtr(0);
    for (int I = 0; I < static_cast<int>(SC.Contexts.size()); ++I) {
      double *CRow = SC.C.rowPtr(I);
      for (int D = 0; D < Config.CodeDim; ++D)
        CRow[D] = contextGradient(SC.Alpha[I], dVRow[D], SC.dScore[I],
                                  AttnRow[D], CRow[D]);
    }
    if (!Pool) {
      gemmTAInto(W.Grad, SC.X, SC.C, /*Accumulate=*/true);
      gemmTBInto(SC.X, SC.C, W.Value);
      return;
    }
    thread_local Matrix Term;
    gemmTAInto(Term, SC.X, SC.C);
    gemmTBInto(SC.X, SC.C, W.Value);
    SC.C = Term;
  });

  // 4. W.Grad += each sample's term in sample order, per slice of
  //    elements: the adds the accumulating GEMM of step 3 makes serially.
  if (Pool) {
    const int Elems = static_cast<int>(W.Grad.size());
    Pool->parallelFor(0, Slices, [&](size_t K) {
      const int E0 = sliceStart(Elems, K, Slices);
      const int E1 = sliceStart(Elems, K + 1, Slices);
      double *Grad = W.Grad.raw().data();
      for (size_t S = Begin; S < End; ++S) {
        if (Cache[S].Contexts.empty())
          continue;
        const double *Term = Cache[S].C.raw().data();
        for (int E = E0; E < E1; ++E)
          Grad[E] += Term[E];
      }
    });
  }

  // 5. Scatter dX into the embedding tables, per slice of table rows.
  forRange(Pool, 0, Slices, [&](size_t K) {
    scatterRows(Begin, End,
                sliceStart(Config.Paths.TokenVocabSize, K, Slices),
                sliceStart(Config.Paths.TokenVocabSize, K + 1, Slices),
                sliceStart(Config.Paths.PathVocabSize, K, Slices),
                sliceStart(Config.Paths.PathVocabSize, K + 1, Slices));
  });
}

void Code2Vec::scoreGradient(SampleCache &SC, const double *dVRow) {
  // dAlpha_i = c_i . dv, then the softmax backward dScore_i = alpha_i
  // (dAlpha_i - sum_j alpha_j dAlpha_j). dScore holds dAlpha until the
  // last loop.
  const int N = static_cast<int>(SC.Contexts.size());
  SC.dScore.resize(N);
  int I = 0;
  // Four rows at a time: four independent dot chains, each the same
  // ascending-D sum as the one-row loop below.
  for (; I + 4 <= N; I += 4) {
    const double *C0 = SC.C.rowPtr(I), *C1 = SC.C.rowPtr(I + 1);
    const double *C2 = SC.C.rowPtr(I + 2), *C3 = SC.C.rowPtr(I + 3);
    double S0 = 0.0, S1 = 0.0, S2 = 0.0, S3 = 0.0;
    for (int D = 0; D < Config.CodeDim; ++D) {
      S0 += C0[D] * dVRow[D];
      S1 += C1[D] * dVRow[D];
      S2 += C2[D] * dVRow[D];
      S3 += C3[D] * dVRow[D];
    }
    SC.dScore[I] = S0;
    SC.dScore[I + 1] = S1;
    SC.dScore[I + 2] = S2;
    SC.dScore[I + 3] = S3;
  }
  for (; I < N; ++I) {
    const double *CRow = SC.C.rowPtr(I);
    double Dot = 0.0;
    for (int D = 0; D < Config.CodeDim; ++D)
      Dot += CRow[D] * dVRow[D];
    SC.dScore[I] = Dot;
  }
  double Weighted = 0.0;
  for (I = 0; I < N; ++I)
    Weighted += SC.Alpha[I] * SC.dScore[I];
  for (I = 0; I < N; ++I)
    SC.dScore[I] = SC.Alpha[I] * (SC.dScore[I] - Weighted);
}

void Code2Vec::columnSums(const Matrix &dV, size_t Begin, size_t End,
                          int D0, int D1) {
  // dA += dScore_i c_i and, with pre = X W + b, dB += dC_i: both in
  // (sample, context) order per column.
  const int Width = D1 - D0;
  double AttnAcc[ColumnBlock], BAcc[ColumnBlock];
  const double *AttnRow = Attn.Value.rowPtr(0) + D0;
  for (int D = 0; D < Width; ++D) {
    AttnAcc[D] = Attn.Grad.rowPtr(0)[D0 + D];
    BAcc[D] = B.Grad.rowPtr(0)[D0 + D];
  }
  for (size_t S = Begin; S < End; ++S) {
    const SampleCache &SC = Cache[S];
    const double *dVRow = dV.rowPtr(static_cast<int>(S)) + D0;
    for (int I = 0; I < static_cast<int>(SC.Contexts.size()); ++I) {
      const double *CRow = SC.C.rowPtr(I) + D0;
      const double Alpha = SC.Alpha[I], dScore = SC.dScore[I];
      for (int D = 0; D < Width; ++D) {
        AttnAcc[D] += dScore * CRow[D];
        BAcc[D] +=
            contextGradient(Alpha, dVRow[D], dScore, AttnRow[D], CRow[D]);
      }
    }
  }
  for (int D = 0; D < Width; ++D) {
    Attn.Grad.rowPtr(0)[D0 + D] = AttnAcc[D];
    B.Grad.rowPtr(0)[D0 + D] = BAcc[D];
  }
}

void Code2Vec::scatterRows(size_t Begin, size_t End, int TokLo, int TokHi,
                           int PathLo, int PathHi) {
  const int TD = Config.TokenDim, PD = Config.PathDim;
  auto Add = [](double *To, const double *From, int Width) {
    for (int D = 0; D < Width; ++D)
      To[D] += From[D];
  };
  for (size_t S = Begin; S < End; ++S) {
    const SampleCache &SC = Cache[S];
    for (size_t I = 0; I < SC.Contexts.size(); ++I) {
      const PathContext &Ctx = SC.Contexts[I];
      const double *Row = SC.X.rowPtr(static_cast<int>(I));
      if (Ctx.SrcToken >= TokLo && Ctx.SrcToken < TokHi)
        Add(TokenEmb.Grad.rowPtr(Ctx.SrcToken), Row, TD);
      if (Ctx.Path >= PathLo && Ctx.Path < PathHi)
        Add(PathEmb.Grad.rowPtr(Ctx.Path), Row + TD, PD);
      if (Ctx.DstToken >= TokLo && Ctx.DstToken < TokHi)
        Add(TokenEmb.Grad.rowPtr(Ctx.DstToken), Row + TD + PD, TD);
    }
  }
}
