//===- examples/serve_demo.cpp - Train, distill, save, serve any backend ---===//
//
// Part of the NeuroVectorizer reproduction. MIT license.
//
// The deployment story the paper implies but never ships: train the RL
// vectorizer once, distill the supervised backends (NNS, decision tree)
// from the learned embedding, persist EVERYTHING as one v3 model file,
// then load it in a "server" process and serve batches through whichever
// backend each request names — rl, nns, tree, or the brute-force oracle.
//
//   $ ./serve_demo
//
//===----------------------------------------------------------------------===//

#include "core/NeuroVectorizer.h"
#include "dataset/LoopGenerator.h"
#include "dataset/Suites.h"
#include "support/Table.h"
#include "support/Telemetry.h"
#include "train/Evaluator.h"

#include <cstdio>
#include <fstream>
#include <iostream>
#include <iterator>

using namespace nv;

int main() {
  const std::string ModelPath = "neurovectorizer.nvm";

  // --- "Training process": learn, distill, persist ------------------------
  NeuroVectorizerConfig Config;
  Config.PPO.BatchSize = 256;
  Config.PPO.MiniBatchSize = 64;
  Config.PPO.LearningRate = 2e-3;
  {
    NeuroVectorizer Trainer(Config);
    LoopGenerator Gen(/*Seed=*/42);
    for (const GeneratedLoop &L : Gen.generateMany(200))
      Trainer.addTrainingProgram(L.Name, L.Source);
    std::cout << "training...\n";
    Trainer.train(/*Steps=*/4000);

    std::cout << "distilling NNS + decision tree from the learned "
                 "embedding (brute-force labels)...\n";
    const DistillReport Distilled = Trainer.fitSupervised(/*MaxSamples=*/64);
    std::cout << "  labeled " << Distilled.Sites << " sites across "
              << Distilled.Programs << " programs ("
              << Distilled.OracleEvaluations << " oracle evaluations, "
              << Table::fmt(Distilled.GeomeanOracleSpeedup)
              << "x geomean oracle speedup)\n";

    std::string Error;
    if (!Trainer.save(ModelPath, &Error)) {
      std::cerr << "save failed: " << Error << "\n";
      return 1;
    }
    std::cout << "model + backends saved to " << ModelPath << "\n\n";
  } // Trainer destroyed: weights AND backends now live only in the file.

  // --- "Serving process": load the frozen backend set and serve -----------
  NeuroVectorizer Server(Config); // Same architecture, fresh weights...
  std::string Error;
  if (!Server.load(ModelPath, &Error)) { // ...replaced by the trained ones.
    std::cerr << "load failed: " << Error << "\n";
    return 1;
  }
  std::cout << "model loaded into a fresh instance (supervised backends "
            << (Server.supervisedReady() ? "restored" : "missing")
            << ")\n";

  ServeConfig Serve;
  Serve.Threads = 4;
  AnnotationService &Service = Server.service(Serve);

  // Trace every batch for the demo (the default is off — see README
  // "Observability"); the spans land in serve_trace.json below.
  Telemetry::trace().setSampleEvery(1);

  // One unseen program, every backend: the same source annotated four
  // ways from the one loaded model file.
  LoopGenerator Unseen(/*Seed=*/1234);
  const GeneratedLoop Probe = Unseen.generateMany(1).front();
  const PredictMethod Methods[] = {PredictMethod::RL, PredictMethod::NNS,
                                   PredictMethod::DecisionTree,
                                   PredictMethod::BruteForce};
  std::vector<AnnotationRequest> Requests;
  for (PredictMethod M : Methods)
    Requests.push_back({std::string(methodName(M)), Probe.Source, M});
  std::vector<AnnotationResult> PerMethod = Service.annotateBatch(Requests);

  std::cout << "\n" << Probe.Name << " under each backend:\n";
  Table Plans({"backend", "VF", "IF", "speedup vs baseline"});
  for (const AnnotationResult &Res : PerMethod) {
    if (!Res.Ok) {
      std::cerr << Res.Name << ": " << Res.Error << "\n";
      return 1;
    }
    Plans.addRow({Res.Name, std::to_string(Res.Plans[0].VF),
                  std::to_string(Res.Plans[0].IF),
                  Table::fmt(Server.speedupOverBaseline(Probe.Source,
                                                        Res.Method))});
  }
  Plans.print(std::cout);

  // A larger mixed batch (plus a duplicate to show the plan cache).
  std::vector<AnnotationRequest> Batch;
  for (const GeneratedLoop &L : Unseen.generateMany(32))
    Batch.push_back({L.Name, L.Source,
                     Methods[Batch.size() % std::size(Methods)]});
  Batch.push_back(Batch.front()); // Cache hit.
  int Served = 0;
  for (const AnnotationResult &Res : Service.annotateBatch(Batch))
    Served += Res.Ok;
  std::cout << "\nannotated " << Served << "/" << Batch.size()
            << " programs across 4 backends\n\nserving counters:\n";
  MetricsRegistry &Metrics = Telemetry::metrics();
  Metrics.counterTable().print(std::cout);

  // The plan-cache hit rate, derived from the counters: lookups answered
  // without a fresh forward row (cache + in-batch dedup) over all lookups.
  const double Hits =
      static_cast<double>(Metrics.counter("serve.cache_hits").value() +
                          Metrics.counter("serve.dedup_hits").value());
  const double Lookups =
      Hits + static_cast<double>(Metrics.counter("serve.cache_misses").value());
  std::cout << "plan-cache hit rate: "
            << Table::fmt(Lookups == 0 ? 0.0 : Hits / Lookups, 3) << "\n";

  // The cold-path front-end split: the per-request phase histograms sum
  // worker-thread microseconds, so a regression in the parser or the
  // path-context extractor is visible here even when pool parallelism
  // hides it from the wall-clock phase times.
  auto SumMs = [&Metrics](const char *Name) {
    return Table::fmt(Metrics.histogram(Name).snapshot().sum() / 1e3);
  };
  std::cout << "\ncold-path front-end (cumulative worker cpu): parse "
            << SumMs("serve.parse_us") << " ms, loop extract "
            << SumMs("serve.loop_extract_us") << " ms, contexts+keys "
            << SumMs("serve.contexts_us") << " ms, embed "
            << SumMs("serve.embed_us") << " ms\n";

  // Per-phase latency distributions from the process-wide registry: the
  // p50/p99 view the sums above cannot give.
  std::cout << "\nper-phase latency distributions (serve.* histograms):\n";
  Telemetry::metrics().histogramTable().print(std::cout);

  // Dump the whole registry (the /statsz payload) and the span trace.
  // Load serve_trace.json in chrome://tracing or https://ui.perfetto.dev
  // to see the batch/phase timeline; CI uploads both as artifacts.
  {
    std::ofstream Snapshot("serve_telemetry.json", std::ios::trunc);
    Snapshot << Telemetry::snapshotJson() << "\n";
    std::cout << "\ntelemetry snapshot written to serve_telemetry.json\n";
  }
  {
    std::ofstream Trace("serve_trace.json", std::ios::trunc);
    Telemetry::trace().exportChromeJson(Trace);
    std::cout << "trace (" << Telemetry::trace().snapshot().size()
              << " spans) written to serve_trace.json\n";
  }

  // --- Fig 7-style held-out comparison over the loaded backend set --------
  std::cout << "\nheld-out per-method speedup (Fig 7 style):\n";
  Evaluator Eval{SimCompiler(Config.Target, Config.Machine),
                 Config.Embedding.Paths};
  Eval.addSuite("benchmarks", evaluationBenchmarks());
  const MethodReport Report = Eval.evaluateMethods(
      Server.embedder(), Server.backends(),
      {PredictMethod::Random, PredictMethod::NNS, PredictMethod::DecisionTree,
       PredictMethod::RL, PredictMethod::BruteForce});
  Report.speedupTable().print(std::cout);

  std::remove(ModelPath.c_str());
  return 0;
}
