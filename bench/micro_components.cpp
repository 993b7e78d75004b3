//===- bench/micro_components.cpp - Component micro-benchmarks -------------===//
//
// Part of the NeuroVectorizer reproduction. MIT license.
//
// Throughput measurements of the pipeline stages: parsing, loop extraction
// + lowering, the machine model, path-context extraction, code2vec
// encode/backward — these bound the simulated "compilations per second"
// the RL training loop sustains — plus the headline comparison for the
// serving hot path: the batched embed+policy forward through the pre-PR
// kernels (naive allocating matmul/addRowBroadcast/activation-copy
// pipeline, reproduced below op for op) against the blocked, fused,
// allocation-free workspace kernels (nn/Kernels.h).
//
// A correctness guard recomputes the forward through the naive ops with
// the *same weights* and requires identical greedy actions; timing is
// reported (and written to BENCH_micro.json), not gated, so contended CI
// runners cannot flake this bench.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "ir/Lowering.h"
#include "lang/LoopExtractor.h"
#include "lang/Parser.h"
#include "nn/Distributions.h"
#include "sim/Compiler.h"
#include "support/ThreadPool.h"

#include <chrono>
#include <cmath>
#include <functional>
#include <iostream>

using namespace nv;

namespace {

const char *Kernel = R"(
float A[256][256]; float B[256][256]; float C[256][256]; float alpha;
void kernel() {
  for (int i = 0; i < 256; i++) {
    for (int j = 0; j < 256; j++) {
      float sum = 0;
      for (int k = 0; k < 256; k++) {
        sum += alpha * A[i][k] * B[k][j];
      }
      C[i][j] = sum;
    }
  }
})";

/// Runs Fn repeatedly for at least \p MinMs and returns executions/second.
double opsPerSec(const std::function<void()> &Fn, double MinMs = 150.0) {
  using Clock = std::chrono::steady_clock;
  Fn(); // Warm-up.
  long long Iters = 0;
  const auto Start = Clock::now();
  double Ms = 0.0;
  do {
    Fn();
    ++Iters;
    Ms = std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
             Clock::now() - Start)
             .count();
  } while (Ms < MinMs);
  return Iters * 1000.0 / Ms;
}

/// The pre-PR forward path, op for op: naive allocating kernels
/// (nn/Matrix.h free functions), per-call cache/temporary allocations, the
/// input-caching copies the old LinearLayer made, and the copy-in/copy-out
/// activation layers. Weights are *shared* with the live model so the
/// guard below can require identical decisions.
struct LegacyForward {
  // Borrowed parameter values.
  const Matrix &TokenEmb, &PathEmb, &EW, &EB, &Attn;
  const Matrix &W1, &B1, &W2, &B2, &AW, &AB, &VW, &VB;
  int TokenDim, PathDim, CodeDim;

  LegacyForward(Code2Vec &Embedder, Policy &Pol)
      : TokenEmb(Embedder.params()[0]->Value),
        PathEmb(Embedder.params()[1]->Value),
        EW(Embedder.params()[2]->Value), EB(Embedder.params()[3]->Value),
        Attn(Embedder.params()[4]->Value), W1(Pol.params()[0]->Value),
        B1(Pol.params()[1]->Value), W2(Pol.params()[2]->Value),
        B2(Pol.params()[3]->Value), AW(Pol.params()[4]->Value),
        AB(Pol.params()[5]->Value), VW(Pol.params()[6]->Value),
        VB(Pol.params()[7]->Value),
        TokenDim(Embedder.config().TokenDim),
        PathDim(Embedder.config().PathDim),
        CodeDim(Embedder.config().CodeDim) {}

  Matrix encodeBatch(const std::vector<std::vector<PathContext>> &Batch) {
    const int InDim = 2 * TokenDim + PathDim;
    Matrix V(static_cast<int>(Batch.size()), CodeDim);
    for (size_t S = 0; S < Batch.size(); ++S) {
      const auto &Contexts = Batch[S];
      if (Contexts.empty())
        continue;
      const int N = static_cast<int>(Contexts.size());
      Matrix X(N, InDim); // Fresh per call, as the old SampleCache was.
      for (int I = 0; I < N; ++I) {
        const PathContext &Ctx = Contexts[I];
        double *Row = X.rowPtr(I);
        const double *Src = TokenEmb.rowPtr(Ctx.SrcToken);
        const double *Path = PathEmb.rowPtr(Ctx.Path);
        const double *Dst = TokenEmb.rowPtr(Ctx.DstToken);
        for (int D = 0; D < TokenDim; ++D)
          Row[D] = Src[D];
        for (int D = 0; D < PathDim; ++D)
          Row[TokenDim + D] = Path[D];
        for (int D = 0; D < TokenDim; ++D)
          Row[TokenDim + PathDim + D] = Dst[D];
      }
      Matrix C = addRowBroadcast(matmul(X, EW), EB);
      for (double &Value : C.raw())
        Value = std::tanh(Value);
      std::vector<double> Scores(N);
      for (int I = 0; I < N; ++I) {
        double Dot = 0.0;
        const double *CRow = C.rowPtr(I);
        for (int D = 0; D < CodeDim; ++D)
          Dot += CRow[D] * Attn.at(0, D);
        Scores[I] = Dot;
      }
      const std::vector<double> Alpha = softmax(Scores);
      double *VRow = V.rowPtr(static_cast<int>(S));
      for (int I = 0; I < N; ++I) {
        const double *CRow = C.rowPtr(I);
        for (int D = 0; D < CodeDim; ++D)
          VRow[D] += Alpha[I] * CRow[D];
      }
    }
    return V;
  }

  /// Old LinearLayer::forward: cache copy + naive matmul + broadcast copy.
  static Matrix linear(const Matrix &X, const Matrix &W, const Matrix &B) {
    Matrix Cached = X; // CachedX = X.
    (void)Cached;
    return addRowBroadcast(matmul(X, W), B);
  }

  /// Old ActivationLayer::forward: copy in, transform, cache copy.
  static Matrix tanhLayer(const Matrix &X) {
    Matrix Y = X;
    for (double &V : Y.raw())
      V = std::tanh(V);
    Matrix Cached = Y; // CachedY = Y.
    (void)Cached;
    return Y;
  }

  /// Old Policy::forward over the 64x64 trunk + heads.
  void policyForward(const Matrix &States, Matrix &HeadOut,
                     Matrix &ValueOut) {
    Matrix Cur = States;
    Cur = linear(Cur, W1, B1);
    Cur = tanhLayer(Cur);
    Cur = linear(Cur, W2, B2);
    for (double &V : Cur.raw()) // Policy's extra trunk tanh.
      V = std::tanh(V);
    Matrix TrunkOut = Cur;
    HeadOut = linear(TrunkOut, AW, AB);
    ValueOut = linear(TrunkOut, VW, VB);
  }
};

} // namespace

int main() {
  BenchJson Json("micro_components");
  std::cout << "=== micro: pipeline component throughput ===\n\n";

  // --- Pipeline components (unchanged scope from the gbench version) -----
  {
    const double Ops = opsPerSec([&] {
      std::optional<Program> P = parseSource(Kernel);
      if (!P)
        std::abort();
    });
    std::cout << "parse:                " << static_cast<long long>(Ops)
              << " ops/s\n";
    Json.add("parse_ops_per_sec", Ops);
  }

  std::optional<Program> Prog = parseSource(Kernel);
  std::vector<LoopSite> Sites = extractLoops(*Prog);
  {
    const double Ops = opsPerSec([&] {
      std::vector<LoopSite> S = extractLoops(*Prog);
      LoopSummary Summary = lowerLoop(*Prog, S[0], 64);
      (void)Summary;
    });
    std::cout << "extract+lower:        " << static_cast<long long>(Ops)
              << " ops/s\n";
    Json.add("extract_lower_ops_per_sec", Ops);
  }
  {
    LoopSummary Summary = lowerLoop(*Prog, Sites[0], 64);
    Machine Mach;
    int VF = 1;
    volatile double Sink = 0.0;
    const double Ops = opsPerSec([&] {
      Sink = Mach.loopCycles(Summary, VF, 4);
      VF = VF == 64 ? 1 : VF * 2;
    });
    (void)Sink;
    std::cout << "machine model:        " << static_cast<long long>(Ops)
              << " ops/s\n";
    Json.add("machine_model_ops_per_sec", Ops);
  }
  {
    SimCompiler Compiler;
    SimCompiler::Precompiled Pre = Compiler.precompile(*Prog);
    std::vector<VectorPlan> Plans(Pre.Summaries.size(), VectorPlan{8, 4});
    volatile double Sink = 0.0;
    const double Ops = opsPerSec([&] {
      bool TimedOut = false;
      Sink = Compiler.runPrecompiled(Pre, Plans, TimedOut);
    });
    (void)Sink;
    std::cout << "precompiled step:     " << static_cast<long long>(Ops)
              << " ops/s\n";
    Json.add("precompiled_step_ops_per_sec", Ops);
  }
  PathContextConfig PathConfig;
  {
    const double Ops = opsPerSec([&] {
      auto Contexts = extractPathContexts(*Sites[0].Outer, PathConfig);
      if (Contexts.empty())
        std::abort();
    });
    std::cout << "path contexts:        " << static_cast<long long>(Ops)
              << " ops/s\n";
    Json.add("path_contexts_ops_per_sec", Ops);
  }

  // --- The headline: batched embed+policy forward, old vs new kernels ----
  std::cout << "\n=== micro: batched forward (embed+policy), pre-PR vs "
               "workspace kernels ===\n\n";

  // A serving-shaped batch: distinct generated loops' context bags.
  constexpr int BatchLoops = 48;
  LoopGenerator Gen(/*Seed=*/321);
  std::vector<std::vector<PathContext>> Bags;
  while (static_cast<int>(Bags.size()) < BatchLoops) {
    GeneratedLoop L = Gen.generate();
    std::optional<Program> P = parseSource(L.Source);
    if (!P)
      continue;
    std::vector<LoopSite> LS = extractLoops(*P);
    for (const LoopSite &Site : LS) {
      Bags.push_back(extractPathContexts(*Site.Outer, PathConfig));
      if (static_cast<int>(Bags.size()) == BatchLoops)
        break;
    }
  }

  NeuroVectorizerConfig Config = benchConfig();
  RNG Rng(7);
  Code2Vec Embedder(Config.Embedding, Rng);
  const TargetInfo Target = Config.Target;
  const int NumVF = static_cast<int>(Target.vfActions().size());
  const int NumIF = static_cast<int>(Target.ifActions().size());
  Policy Pol(ActionSpaceKind::Discrete, Embedder.codeDim(), Config.Hidden,
             NumVF, NumIF, Rng);
  LegacyForward Legacy(Embedder, Pol);

  // Correctness guard: identical weights must give identical greedy
  // actions through both paths.
  {
    Matrix States;
    Embedder.encodeBatchInto(Bags, States);
    Pol.forward(States);
    Matrix LegacyStates = Legacy.encodeBatch(Bags);
    Matrix HeadOut, ValueOut;
    Legacy.policyForward(LegacyStates, HeadOut, ValueOut);
    for (int Row = 0; Row < static_cast<int>(Bags.size()); ++Row) {
      const ActionRecord New = Pol.greedyAction(Row);
      std::vector<double> VFLogits(NumVF), IFLogits(NumIF);
      for (int I = 0; I < NumVF; ++I)
        VFLogits[I] = HeadOut.at(Row, I);
      for (int I = 0; I < NumIF; ++I)
        IFLogits[I] = HeadOut.at(Row, NumVF + I);
      if (New.VFIdx != argmax(VFLogits) || New.IFIdx != argmax(IFLogits)) {
        std::cerr << "MISMATCH: legacy and kernel forwards disagree at row "
                  << Row << "\n";
        return 1;
      }
    }
  }

  const double OldOps = opsPerSec([&] {
    Matrix States = Legacy.encodeBatch(Bags);
    Matrix HeadOut, ValueOut;
    Legacy.policyForward(States, HeadOut, ValueOut);
  });
  Matrix NewStates; // Warm buffers live across iterations, as in serving.
  const double NewOps = opsPerSec([&] {
    Embedder.encodeBatchInto(Bags, NewStates);
    Pol.forward(NewStates);
  });
  ThreadPool Pool(4);
  const double PooledOps = opsPerSec([&] {
    Embedder.encodeBatchInto(Bags, NewStates, &Pool);
    Pol.forward(NewStates, &Pool);
  });

  const double LoopsOld = OldOps * BatchLoops;
  const double LoopsNew = NewOps * BatchLoops;
  const double LoopsPooled = PooledOps * BatchLoops;
  std::cout << "pre-PR kernels:       " << static_cast<long long>(LoopsOld)
            << " loops/s\n";
  std::cout << "workspace kernels:    " << static_cast<long long>(LoopsNew)
            << " loops/s   (" << LoopsNew / LoopsOld << "x)\n";
  std::cout << "workspace + 4-thread: " << static_cast<long long>(LoopsPooled)
            << " loops/s   (" << LoopsPooled / LoopsOld << "x)\n";
  Json.add("batched_forward_old_loops_per_sec", LoopsOld);
  Json.add("batched_forward_new_loops_per_sec", LoopsNew);
  Json.add("batched_forward_pooled_loops_per_sec", LoopsPooled);
  Json.add("batched_forward_speedup", LoopsNew / LoopsOld);

  // --- Serving forward (inference path) ---------------------------------
  // The serving hot path proper: borrowed-span encode + no-cache policy
  // forward.
  {
    std::vector<ContextSpan> Spans;
    Spans.reserve(Bags.size());
    for (const std::vector<PathContext> &Bag : Bags)
      Spans.push_back({Bag.data(), Bag.size()});

    Matrix ServeStates;
    const double ServeOps = opsPerSec([&] {
      Embedder.encodeSpansInto(Spans, ServeStates);
      Pol.forward(ServeStates, nullptr, /*ForBackward=*/false);
    });
    const double LoopsServe = ServeOps * BatchLoops;
    std::cout << "serve forward:        " << static_cast<long long>(LoopsServe)
              << " loops/s\n";
    Json.add("batched_forward_serve_loops_per_sec", LoopsServe);
  }

  // Encode backward (training-side component).
  {
    Matrix dV(static_cast<int>(Bags.size()), Embedder.codeDim(), 0.01);
    std::vector<Param *> Params = Embedder.params();
    const double Ops = opsPerSec([&] {
      for (Param *P : Params)
        P->zeroGrad();
      Embedder.encodeBatchInto(Bags, NewStates);
      Embedder.backward(dV);
    });
    std::cout << "encode+backward:      "
              << static_cast<long long>(Ops * BatchLoops) << " loops/s\n";
    Json.add("encode_backward_loops_per_sec", Ops * BatchLoops);
  }

  std::cout << "\n";
  Json.write("micro");
  // Exit status reflects correctness only (the guard above); timing is
  // reported, not gated, so contended CI runners cannot flake this bench.
  return 0;
}
