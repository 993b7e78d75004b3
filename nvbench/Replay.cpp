//===- nvbench/Replay.cpp - Layer-by-layer replay -------------------------===//
//
// Part of the NeuroVectorizer reproduction. MIT license.
//
// The per-layer half of a traced run: the workload's own programs go
// through each layer's public entry point on one thread, so every layer's
// cost is measured alone, on this workload's inputs, with no queueing or
// lock waits mixed in. Those waits are what the workload's own trace
// (client spans, daemon histograms, collect/update split) shows instead.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "embedding/ContextBuffer.h"
#include "ir/Legality.h"
#include "ir/Lowering.h"
#include "lang/LoopExtractor.h"
#include "lang/Parser.h"
#include "lang/PrettyPrinter.h"
#include "nn/Optimizer.h"
#include "rl/Env.h"
#include "rl/StateFeatures.h"

#include <algorithm>
#include <memory>

using namespace nv;

namespace nvbench {

namespace {

constexpr size_t FramePrograms = 16; ///< The closed-loop frame size.
constexpr int MiniBatchRows = 128;   ///< The train workload's minibatch.
constexpr int MiniBatches = 12;

struct ProgramState {
  std::unique_ptr<Program> Prog;
  std::vector<LoopSite> Sites;
  std::vector<PathContext> Contexts; ///< All sites, flat.
  std::vector<uint32_t> Begin;       ///< Per-site offsets (sites + 1).
  std::vector<LegalityDigest> Digests;
};

/// Sums the self time of span \p Name in \p Layers (microseconds).
double selfUs(const std::vector<Tracer::LayerTime> &Layers,
              const std::string &Name) {
  for (const Tracer::LayerTime &L : Layers)
    if (L.Name == Name)
      return L.SelfUs;
  return 0.0;
}

} // namespace

std::vector<std::vector<VectorPlan>>
replayLayers(const std::vector<NamedProgram> &Programs,
             NeuroVectorizer &Model, Tracer &T, Report &R,
             std::vector<LayerRow> &Rows) {
  Code2Vec &Embedder = Model.embedder();
  Policy &Pol = Model.policy();
  const TargetInfo &TI = Model.target();
  const PathContextConfig &Paths = Embedder.config().Paths;
  const bool InnerOnly = Model.env().innerContextOnly();

  std::vector<std::vector<VectorPlan>> Plans(Programs.size());
  ContextBuffer Buf;
  Matrix States, Wide;
  size_t ParsedPrograms = 0, Sites = 0, EncodedRows = 0, ContextCount = 0;

  // --- Inference layers, frame by frame ------------------------------------
  for (size_t Begin = 0; Begin < Programs.size(); Begin += FramePrograms) {
    const size_t End = std::min(Programs.size(), Begin + FramePrograms);
    SpanScope Frame(&T, "replay.frame", Begin);
    std::vector<ProgramState> State(End - Begin);
    std::vector<ContextSpan> Spans;
    std::vector<LegalityDigest> Digests;
    for (size_t I = Begin; I < End; ++I) {
      ProgramState &S = State[I - Begin];
      {
        SpanScope Sp(&T, "lang.parse", I, Frame.id());
        std::string Error;
        std::optional<Program> Parsed = parseSource(Programs[I].Source, &Error);
        if (!Parsed) {
          R.error("replay: " + Programs[I].Name + " does not parse: " + Error);
          continue;
        }
        S.Prog = std::make_unique<Program>(std::move(*Parsed));
        clearAllPragmas(*S.Prog);
        ++ParsedPrograms;
      }
      {
        SpanScope Sp(&T, "lang.extract", I, Frame.id());
        S.Sites = extractLoops(*S.Prog, /*WithContextText=*/false);
      }
      {
        SpanScope Sp(&T, "embedding.contexts", I, Frame.id());
        S.Begin.push_back(0);
        for (const LoopSite &Site : S.Sites) {
          const Stmt &Root = InnerOnly ? static_cast<const Stmt &>(*Site.Inner)
                                       : static_cast<const Stmt &>(*Site.Outer);
          const ContextSpan Span = extractPathContextsInto(Root, Paths, Buf);
          S.Contexts.insert(S.Contexts.end(), Span.begin(), Span.end());
          S.Begin.push_back(static_cast<uint32_t>(S.Contexts.size()));
        }
      }
      std::vector<LoopSummary> Summaries;
      {
        SpanScope Sp(&T, "ir.lower", I, Frame.id());
        Summaries = lowerAllLoops(*S.Prog, S.Sites, TI.MaxVF);
      }
      {
        SpanScope Sp(&T, "ir.legality", I, Frame.id());
        for (const LoopSummary &Summary : Summaries)
          S.Digests.push_back(analyzeLegality(Summary, TI).digest());
      }
      for (size_t K = 0; K < S.Sites.size(); ++K) {
        Spans.push_back({S.Contexts.data() + S.Begin[K],
                         S.Begin[K + 1] - S.Begin[K]});
        Digests.push_back(S.Digests[K]);
      }
      Sites += S.Sites.size();
      ContextCount += S.Contexts.size();
    }
    if (Spans.empty())
      continue;
    EncodedRows += Spans.size();
    {
      SpanScope Sp(&T, "embedding.encode", Begin, Frame.id());
      Embedder.encodeSpansInto(Spans, States);
    }
    std::vector<VectorPlan> RowPlans(Spans.size());
    {
      // The serving RL backend's inference: greedy over bare code
      // embeddings, then the legality clamp at the serve boundary.
      SpanScope Sp(&T, "rl.forward", Begin, Frame.id());
      const Matrix &In = widenStates(States, Pol.inputDim(), nullptr, 0, TI,
                                     Wide);
      Pol.forward(In, nullptr, /*ForBackward=*/false);
      for (size_t Row = 0; Row < Spans.size(); ++Row)
        RowPlans[Row] = legalizePlan(
            Digests[Row].MaxSafeVF,
            Pol.toPlan(Pol.greedyAction(static_cast<int>(Row)), TI), TI);
    }
    size_t Row = 0;
    for (size_t I = Begin; I < End; ++I) {
      ProgramState &S = State[I - Begin];
      if (!S.Prog)
        continue;
      SpanScope Sp(&T, "lang.print", I, Frame.id());
      for (LoopSite &Site : S.Sites) {
        const VectorPlan P = RowPlans[Row++];
        Plans[I].push_back(P);
        injectPragma(Site, {P.VF, P.IF});
      }
      const std::string Annotated = printProgram(*S.Prog);
      if (Annotated.empty())
        R.error("replay: empty rendering of " + Programs[I].Name);
    }
  }

  // --- Simulated compile-and-run of the replayed plans ----------------------
  VectorizationEnv Env(Model.env().compiler(), Paths);
  std::vector<size_t> EnvIndex;
  for (size_t I = 0; I < Programs.size(); ++I)
    if (!Plans[I].empty() && Env.addProgram(Programs[I].Name,
                                            Programs[I].Source))
      EnvIndex.push_back(I);
  {
    SpanScope Sim(&T, "replay.sim");
    for (size_t E = 0; E < EnvIndex.size(); ++E) {
      SpanScope Sp(&T, "sim.step", E, Sim.id());
      Env.step(E, Plans[EnvIndex[E]]);
    }
  }

  // --- Training layers: PPO-shaped minibatches of the same loops ------------
  // Rows cycle through every site of the replayed programs; the gradient
  // is a synthetic policy-gradient/value signal (the cost of a backward
  // pass does not depend on its values).
  std::vector<std::vector<PathContext>> Bags;
  std::vector<PlanMask> Masks;
  for (size_t E = 0; Bags.size() < MiniBatchRows && !EnvIndex.empty();
       E = (E + 1) % EnvIndex.size()) {
    const EnvSample &Sample = Env.sample(E);
    for (size_t S = 0; S < Sample.Sites.size() && Bags.size() < MiniBatchRows;
         ++S) {
      Bags.push_back(Sample.Contexts[S]);
      Masks.push_back(Env.actionMask(E, S));
    }
  }
  if (Bags.empty()) {
    R.error("replay: no loops to build a minibatch from");
    return Plans;
  }
  std::vector<Param *> Params = Pol.params();
  for (Param *P : Embedder.params())
    Params.push_back(P);
  Adam Optimizer(5e-5);
  const int M = static_cast<int>(Bags.size());
  for (int Step = 0; Step < MiniBatches; ++Step) {
    SpanScope Mini(&T, "replay.minibatch", Step);
    for (Param *P : Params)
      P->zeroGrad();
    {
      SpanScope Sp(&T, "embedding.encode_train", Step, Mini.id());
      Embedder.encodeBatchInto(Bags, States);
    }
    std::vector<ActionRecord> Actions(M);
    std::vector<double> dLogProb(M), dValue(M);
    {
      SpanScope Sp(&T, "rl.forward_train", Step, Mini.id());
      const Matrix &In = widenStates(States, Pol.inputDim(), nullptr, 0, TI,
                                     Wide);
      Pol.forward(In);
      for (int I = 0; I < M; ++I) {
        Actions[I] = Pol.greedyAction(I, &Masks[I]);
        dLogProb[I] = (I % 2 ? 1.0 : -1.0) / M;
        dValue[I] = 0.5 * Pol.value(I) / M;
      }
    }
    Matrix dStates;
    {
      SpanScope Sp(&T, "rl.backward", Step, Mini.id());
      dStates = Pol.backward(Actions, dLogProb, dValue, 0.01 / M, &Masks);
    }
    if (dStates.cols() > States.cols()) {
      Matrix Narrow(dStates.rows(), States.cols());
      for (int Row = 0; Row < dStates.rows(); ++Row)
        std::copy(dStates.rowPtr(Row), dStates.rowPtr(Row) + States.cols(),
                  Narrow.rowPtr(Row));
      dStates = std::move(Narrow);
    }
    {
      SpanScope Sp(&T, "embedding.backward", Step, Mini.id());
      Embedder.backward(dStates);
    }
    {
      SpanScope Sp(&T, "nn.adam_step", Step, Mini.id());
      clipGradNorm(Params, 40.0);
      Optimizer.step(Params);
    }
  }

  // --- Per-layer metrics -----------------------------------------------------
  const std::vector<Tracer::LayerTime> Layers = T.layerTimes();
  const double NProg =
      static_cast<double>(std::max<size_t>(1, ParsedPrograms));
  const double NSim = static_cast<double>(std::max<size_t>(1, EnvIndex.size()));
  const double NSites = static_cast<double>(std::max<size_t>(1, Sites));
  const double NRows = static_cast<double>(std::max<size_t>(1, EncodedRows));
  R.metric("lang.parse_us", selfUs(Layers, "lang.parse") / NProg, "us");
  R.metric("lang.extract_us", selfUs(Layers, "lang.extract") / NProg, "us");
  R.metric("lang.print_us", selfUs(Layers, "lang.print") / NProg, "us");
  R.metric("ir.lower_us", selfUs(Layers, "ir.lower") / NProg, "us");
  R.metric("ir.legality_us", selfUs(Layers, "ir.legality") / NSites, "us");
  R.metric("embedding.contexts_us",
           selfUs(Layers, "embedding.contexts") / NSites, "us");
  R.metric("embedding.contexts_per_site",
           static_cast<double>(ContextCount) / NSites, "count");
  R.metric("embedding.encode_us_per_row",
           selfUs(Layers, "embedding.encode") / NRows, "us");
  R.metric("rl.forward_us_per_row", selfUs(Layers, "rl.forward") / NRows,
           "us");
  R.metric("sim.step_us", selfUs(Layers, "sim.step") / NSim, "us");
  R.metric("embedding.backward_us",
           selfUs(Layers, "embedding.backward") / MiniBatches, "us");
  R.metric("rl.backward_us", selfUs(Layers, "rl.backward") / MiniBatches,
           "us");
  R.metric("nn.adam_step_us", selfUs(Layers, "nn.adam_step") / MiniBatches,
           "us");
  Rows.push_back({"replay.programs", NProg, "count",
                  std::to_string(Sites) + " sites, " +
                      std::to_string(EncodedRows) + " encoded rows"});
  return Plans;
}

} // namespace nvbench
