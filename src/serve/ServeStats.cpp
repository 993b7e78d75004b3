//===- serve/ServeStats.cpp - Serving throughput/latency counters ----------===//

#include "serve/ServeStats.h"

#include "nn/Kernels.h"

#include <ostream>

using namespace nv;

double ServeSnapshot::hitRate() const {
  const uint64_t Hits = CacheHits + DedupHits;
  const uint64_t Total = Hits + CacheMisses;
  return Total == 0 ? 0.0 : static_cast<double>(Hits) / Total;
}

double ServeSnapshot::throughput() const {
  if (TotalMicros == 0)
    return 0.0;
  return static_cast<double>(ProgramsServed) * 1e6 / TotalMicros;
}

void ServeStats::addBatch(const ServeStats &Delta) {
  std::lock_guard<std::mutex> Lock(SnapshotMutex);
  BatchesServed += Delta.BatchesServed.load();
  ProgramsServed += Delta.ProgramsServed.load();
  ProgramsRejected += Delta.ProgramsRejected.load();
  DegradedRequests += Delta.DegradedRequests.load();
  PredictFailures += Delta.PredictFailures.load();
  LoopsServed += Delta.LoopsServed.load();
  CacheHits += Delta.CacheHits.load();
  DedupHits += Delta.DedupHits.load();
  CacheMisses += Delta.CacheMisses.load();
  ForwardPasses += Delta.ForwardPasses.load();
  LoopsPerForward += Delta.LoopsPerForward.load();
  ExtractMicros += Delta.ExtractMicros.load();
  InferMicros += Delta.InferMicros.load();
  RenderMicros += Delta.RenderMicros.load();
  TotalMicros += Delta.TotalMicros.load();
  ParseMicros += Delta.ParseMicros.load();
  LoopExtractMicros += Delta.LoopExtractMicros.load();
  ContextMicros += Delta.ContextMicros.load();
  EmbedMicros += Delta.EmbedMicros.load();
  LoopsAnalyzed += Delta.LoopsAnalyzed.load();
  PlansClamped += Delta.PlansClamped.load();
  LegalityMicros += Delta.LegalityMicros.load();
  for (int I = 0; I < NumAccessClasses; ++I)
    AccessClasses[I] += Delta.AccessClasses[I].load();
  for (int I = 0; I < NumPredictMethods; ++I) {
    PerMethod[I].Loops += Delta.PerMethod[I].Loops.load();
    PerMethod[I].CacheHits += Delta.PerMethod[I].CacheHits.load();
    PerMethod[I].DedupHits += Delta.PerMethod[I].DedupHits.load();
    PerMethod[I].Misses += Delta.PerMethod[I].Misses.load();
    PerMethod[I].PredictMicros += Delta.PerMethod[I].PredictMicros.load();
  }
}

ServeSnapshot ServeStats::snapshot() const {
  std::lock_guard<std::mutex> Lock(SnapshotMutex);
  ServeSnapshot S;
  S.BatchesServed = BatchesServed.load();
  S.ProgramsServed = ProgramsServed.load();
  S.ProgramsRejected = ProgramsRejected.load();
  S.DegradedRequests = DegradedRequests.load();
  S.PredictFailures = PredictFailures.load();
  S.LoopsServed = LoopsServed.load();
  S.CacheHits = CacheHits.load();
  S.DedupHits = DedupHits.load();
  S.CacheMisses = CacheMisses.load();
  S.ForwardPasses = ForwardPasses.load();
  S.LoopsPerForward = LoopsPerForward.load();
  S.ExtractMicros = ExtractMicros.load();
  S.InferMicros = InferMicros.load();
  S.RenderMicros = RenderMicros.load();
  S.TotalMicros = TotalMicros.load();
  S.ParseMicros = ParseMicros.load();
  S.LoopExtractMicros = LoopExtractMicros.load();
  S.ContextMicros = ContextMicros.load();
  S.EmbedMicros = EmbedMicros.load();
  S.LoopsAnalyzed = LoopsAnalyzed.load();
  S.PlansClamped = PlansClamped.load();
  S.LegalityMicros = LegalityMicros.load();
  for (int I = 0; I < NumAccessClasses; ++I)
    S.AccessClasses[I] = AccessClasses[I].load();
  for (int I = 0; I < NumPredictMethods; ++I) {
    S.PerMethod[I].Loops = PerMethod[I].Loops.load();
    S.PerMethod[I].CacheHits = PerMethod[I].CacheHits.load();
    S.PerMethod[I].DedupHits = PerMethod[I].DedupHits.load();
    S.PerMethod[I].Misses = PerMethod[I].Misses.load();
    S.PerMethod[I].PredictMicros = PerMethod[I].PredictMicros.load();
  }
  return S;
}

void ServeStats::reset() {
  std::lock_guard<std::mutex> Lock(SnapshotMutex);
  BatchesServed = 0;
  ProgramsServed = 0;
  ProgramsRejected = 0;
  DegradedRequests = 0;
  PredictFailures = 0;
  LoopsServed = 0;
  CacheHits = 0;
  DedupHits = 0;
  CacheMisses = 0;
  ForwardPasses = 0;
  LoopsPerForward = 0;
  ExtractMicros = 0;
  InferMicros = 0;
  RenderMicros = 0;
  TotalMicros = 0;
  ParseMicros = 0;
  LoopExtractMicros = 0;
  ContextMicros = 0;
  EmbedMicros = 0;
  LoopsAnalyzed = 0;
  PlansClamped = 0;
  LegalityMicros = 0;
  for (std::atomic<uint64_t> &C : AccessClasses)
    C = 0;
  for (MethodCounters &M : PerMethod)
    M.reset();
}

Table ServeStats::toTable() const {
  const ServeSnapshot S = snapshot();
  Table T({"metric", "value"});
  auto AddCount = [&T](const char *Name, uint64_t Value) {
    T.addRow({Name, std::to_string(Value)});
  };
  AddCount("batches", S.BatchesServed);
  T.addRow({"kernel isa", kernelIsaName(kernelIsa())});
  AddCount("programs served", S.ProgramsServed);
  AddCount("programs rejected", S.ProgramsRejected);
  AddCount("degraded requests", S.DegradedRequests);
  AddCount("predict failures", S.PredictFailures);
  AddCount("loops served", S.LoopsServed);
  AddCount("cache hits", S.CacheHits);
  AddCount("dedup hits", S.DedupHits);
  AddCount("cache misses", S.CacheMisses);
  T.addRow({"cache hit rate", Table::fmt(S.hitRate(), 3)});
  AddCount("forward passes", S.ForwardPasses);
  T.addRow({"loops per forward",
            Table::fmt(S.ForwardPasses == 0
                           ? 0.0
                           : static_cast<double>(S.LoopsPerForward) /
                                 S.ForwardPasses,
                       1)});
  T.addRow({"extract ms", Table::fmt(S.ExtractMicros / 1e3)});
  T.addRow({"  parse ms (cpu)", Table::fmt(S.ParseMicros / 1e3)});
  T.addRow(
      {"  loop extract ms (cpu)", Table::fmt(S.LoopExtractMicros / 1e3)});
  T.addRow({"  contexts ms (cpu)", Table::fmt(S.ContextMicros / 1e3)});
  T.addRow({"infer ms", Table::fmt(S.InferMicros / 1e3)});
  T.addRow({"  embed ms", Table::fmt(S.EmbedMicros / 1e3)});
  AddCount("loops analyzed", S.LoopsAnalyzed);
  AddCount("plans clamped", S.PlansClamped);
  T.addRow({"  legality ms (cpu)", Table::fmt(S.LegalityMicros / 1e3)});
  for (int C = 0; C < NumAccessClasses; ++C)
    AddCount((std::string("accesses ") +
              accessClassName(static_cast<AccessClass>(C)))
                 .c_str(),
             S.AccessClasses[C]);
  T.addRow({"render ms", Table::fmt(S.RenderMicros / 1e3)});
  T.addRow({"total ms", Table::fmt(S.TotalMicros / 1e3)});
  T.addRow({"programs/s", Table::fmt(S.throughput(), 0)});
  return T;
}

Table ServeStats::methodTable() const {
  const ServeSnapshot S = snapshot();
  Table T({"backend", "loops", "cache hits", "dedup hits", "computed",
           "backend ms"});
  for (int I = 0; I < NumPredictMethods; ++I) {
    const MethodCountersView &M = S.PerMethod[I];
    if (M.Loops == 0)
      continue;
    T.addRow({methodName(static_cast<PredictMethod>(I)),
              std::to_string(M.Loops), std::to_string(M.CacheHits),
              std::to_string(M.DedupHits), std::to_string(M.Misses),
              Table::fmt(M.PredictMicros / 1e3)});
  }
  return T;
}

void ServeStats::print(std::ostream &OS) const {
  const ServeSnapshot S = snapshot();
  toTable().print(OS);
  for (const MethodCountersView &M : S.PerMethod) {
    if (M.Loops != 0) {
      methodTable().print(OS);
      break;
    }
  }
}
