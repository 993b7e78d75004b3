//===- bench/serve_throughput.cpp - Serving-layer throughput bench --------===//
//
// Part of the NeuroVectorizer reproduction. MIT license.
//
// Measures the batched, multi-threaded annotation service (src/serve)
// against the single-threaded annotate() loop it replaces:
//
//   - annotate() x N          one program at a time, one thread;
//   - annotateBatch, 1 thread batched forward + plan cache, no pool win;
//   - annotateBatch, 4/8 thr  plus parallel parse/extract/render;
//   - annotateBatch, warm     a second pass over the same programs, all
//                             sites answered from the LRU plan cache.
//
// The workload is NumPrograms synthetic loops with a duplication rate in
// the batch (templated/generated code repeats loops), which is where the
// dedup-by-context-hash and the cache earn their keep.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "support/Table.h"
#include "support/Telemetry.h"

#include <chrono>
#include <iostream>
#include <iterator>

using namespace nv;

namespace {

double millisSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
             std::chrono::steady_clock::now() - Start)
      .count();
}

/// Sum of the samples a serve.* phase histogram has recorded (us).
uint64_t phaseSum(const char *Histogram) {
  return Telemetry::metrics().histogram(Histogram).snapshot().sum();
}

} // namespace

int main() {
  constexpr int NumPrograms = 128; // Acceptance floor is 64.
  constexpr int DuplicateEvery = 4; // Every 4th request repeats a program.

  std::cout << "=== serve: batched annotation throughput ===\n\n";
  std::cout << "training a small model...\n";
  auto NV = makeTrainedVectorizer(/*NumPrograms=*/100,
                                  /*TrainSteps=*/4000);

  // Build the request batch: fresh programs with periodic duplicates.
  LoopGenerator Gen(/*Seed=*/777);
  std::vector<AnnotationRequest> Requests;
  while (static_cast<int>(Requests.size()) < NumPrograms) {
    GeneratedLoop L = Gen.generate();
    Requests.push_back({L.Name, L.Source});
    if (static_cast<int>(Requests.size()) % DuplicateEvery == 0)
      Requests.push_back({L.Name + "_dup", L.Source});
  }
  Requests.resize(NumPrograms);
  std::cout << "requests: " << Requests.size() << "\n\n";

  Table T({"method", "ms", "programs/s", "speedup"});
  BenchJson Json("serve_throughput");
  Json.add("requests", Requests.size());

  // --- Reference: the one-at-a-time API -----------------------------------
  const auto LoopStart = std::chrono::steady_clock::now();
  std::vector<std::string> Reference;
  Reference.reserve(Requests.size());
  for (const AnnotationRequest &Req : Requests)
    Reference.push_back(NV->annotate(Req.Source));
  const double LoopMs = millisSince(LoopStart);
  T.addRow({"annotate() loop", Table::fmt(LoopMs),
            Table::fmt(Requests.size() * 1000.0 / LoopMs, 0),
            Table::fmt(1.0) + "x"});
  Json.add("annotate_loop_programs_per_sec",
           Requests.size() * 1000.0 / LoopMs);

  // --- Batched service at several pool sizes ------------------------------
  // Phase split of the 8-thread service (cold + warm pass combined): how
  // far each phase histogram's sum grows over its two passes.
  const std::pair<const char *, const char *> Phases[] = {
      {"serve.extract_us", "phase_extract_micros"},
      {"serve.infer_us", "phase_infer_micros"},
      {"serve.render_us", "phase_render_micros"},
      {"serve.batch_us", "phase_total_micros"}};
  uint64_t PhaseBefore[std::size(Phases)] = {};
  double PooledMs4 = 0.0;
  for (int Threads : {1, 4, 8}) {
    ServeConfig Serve;
    Serve.Threads = Threads;
    AnnotationService &Service = NV->service(Serve); // Fresh cache.
    if (Threads == 8)
      for (size_t P = 0; P < std::size(Phases); ++P)
        PhaseBefore[P] = phaseSum(Phases[P].first);
    const auto Start = std::chrono::steady_clock::now();
    std::vector<AnnotationResult> Results = Service.annotateBatch(Requests);
    const double Ms = millisSince(Start);
    if (Threads == 4)
      PooledMs4 = Ms;

    // Correctness guard: pooled output must match the reference exactly.
    for (size_t I = 0; I < Requests.size(); ++I) {
      if (!Results[I].Ok || Results[I].Annotated != Reference[I]) {
        std::cerr << "MISMATCH at request " << I << "\n";
        return 1;
      }
    }
    T.addRow({"annotateBatch, " + std::to_string(Threads) + " thr",
              Table::fmt(Ms), Table::fmt(Requests.size() * 1000.0 / Ms, 0),
              Table::fmt(LoopMs / Ms) + "x"});
    Json.add("batch_" + std::to_string(Threads) + "thr_programs_per_sec",
             Requests.size() * 1000.0 / Ms);

    if (Threads == 8) {
      // Warm pass: every site is now in the plan cache.
      const auto WarmStart = std::chrono::steady_clock::now();
      Service.annotateBatch(Requests);
      const double WarmMs = millisSince(WarmStart);
      T.addRow({"annotateBatch, warm cache", Table::fmt(WarmMs),
                Table::fmt(Requests.size() * 1000.0 / WarmMs, 0),
                Table::fmt(LoopMs / WarmMs) + "x"});
      Json.add("warm_cache_programs_per_sec",
               Requests.size() * 1000.0 / WarmMs);
      std::cout << "\nserving counters (every service in this run):\n";
      Telemetry::metrics().counterTable().print(std::cout);
      std::cout << "\n";
      for (size_t P = 0; P < std::size(Phases); ++P)
        Json.add(Phases[P].second,
                 static_cast<double>(phaseSum(Phases[P].first) -
                                     PhaseBefore[P]));
    }
  }

  T.print(std::cout);
  std::cout << "\n4-thread pool vs single-thread loop: "
            << Table::fmt(LoopMs / PooledMs4) << "x\n";
  Json.add("speedup_4thr_vs_loop", LoopMs / PooledMs4);
  Json.write("serve");
  // Exit status reflects correctness only (checked above); timing is
  // reported, not gated, so contended CI runners cannot flake this bench.
  return 0;
}
