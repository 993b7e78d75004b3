//===- nvbench/Train.cpp - The training workload --------------------------===//
//
// Part of the NeuroVectorizer reproduction. MIT license.
//
// PPO training as an engineer runs it: the Trainer with 4 rollout workers
// and a 4-thread math pool, batch 4000 (the paper's value), over 256
// programs generated from --seed, with the Fig-7 benchmarks, PolyBench and
// MiBench registered as held-out evaluation suites. The model's initial
// weights are fixed (seed 42); --seed moves only the training programs.
//
// The run is sized in batches, not wall time, so that the trained model
// and its evaluation speedup depend on the seed alone: one warm-up batch
// plus one measured batch per TrainSecondsPerBatch of --seconds.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "dataset/LoopGenerator.h"
#include "ir/Legality.h"
#include "ir/Lowering.h"
#include "lang/LoopExtractor.h"
#include "lang/Parser.h"
#include "train/RolloutWorkers.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <unistd.h>

using namespace nv;

namespace nvbench {

namespace {

constexpr int NumPrograms = 256;
constexpr int BatchSize = 4000;
constexpr int Workers = 4;
constexpr int SetupTrials = 15;
constexpr double TrainSecondsPerBatch = 1.0;
constexpr int TracedBatches = 4;

/// The held-out suites the final evaluation runs on.
std::vector<std::pair<const char *, std::vector<NamedProgram>>> evalSuites() {
  return {{"benchmarks", evaluationBenchmarks()},
          {"polybench", polyBenchSuite()},
          {"mibench", miBenchSuite()}};
}

/// The serving fixture's PPO settings at batch 4000, with a learning rate
/// between the paper's (5e-5 barely moves the model in 16 batches) and the
/// fixture's (2e-3 is unstable at this batch size).
NeuroVectorizerConfig trainConfig() {
  NeuroVectorizerConfig Config;
  Config.PPO.BatchSize = BatchSize;
  Config.PPO.MiniBatchSize = 128;
  Config.PPO.LearningRate = 1e-3;
  Config.PPO.EntropyCoef = 0.05;
  Config.Seed = 42;
  return Config;
}

/// The number after `"Key": ` in one JSONL line; NaN when absent.
double jsonNumber(const std::string &Line, const std::string &Key) {
  const std::string Needle = "\"" + Key + "\": ";
  const size_t At = Line.find(Needle);
  if (At == std::string::npos)
    return std::nan("");
  return std::strtod(Line.c_str() + At + Needle.size(), nullptr);
}

} // namespace

Report runTrain(const Options &Opts, Tracer &T) {
  Report R;
  const int Measured =
      std::max(2, static_cast<int>(std::lround(Opts.Seconds /
                                               TrainSecondsPerBatch)));
  TrainerConfig TC;
  TC.NumWorkers = Workers;
  TC.TotalSteps = static_cast<long long>(1 + Measured) * BatchSize;
  TC.RunLogPath = Opts.WorkDir + "/nvbench_" + std::to_string(::getpid()) +
                  "_train.jsonl";
  std::remove(TC.RunLogPath.c_str());
  struct RemoveLog {
    const std::string &Path;
    ~RemoveLog() { std::remove(Path.c_str()); }
  } Cleanup{TC.RunLogPath};

  // --- Inputs from --seed ---------------------------------------------------
  std::vector<GeneratedLoop> Programs;
  {
    NeuroVectorizer Probe(trainConfig());
    LoopGenerator Gen(Opts.Seed);
    while (static_cast<int>(Programs.size()) < NumPrograms) {
      GeneratedLoop L = Gen.generate();
      if (Probe.addTrainingProgram(L.Name, L.Source))
        Programs.push_back(std::move(L));
    }
  }

  // --- Set-up: the environment and the Trainer, timed repeatedly ---------
  // About half the trials run before training (the last pair is trained)
  // and the rest after it, so one burst of interference from other work on
  // the machine cannot carry the median.
  const auto Suites = evalSuites();
  size_t EvalPrograms = 0;
  for (const auto &Suite : Suites)
    EvalPrograms += Suite.second.size();
  std::unique_ptr<NeuroVectorizer> NV;
  std::unique_ptr<Trainer> Train;
  std::vector<double> SetupSeconds;
  auto setUp = [&](int Trials, std::unique_ptr<NeuroVectorizer> &Model,
                   std::unique_ptr<Trainer> &Driver) {
    for (int I = 0; I < Trials; ++I) {
      Driver.reset();
      Model.reset();
      const Clock::time_point Start = Clock::now();
      Model = std::make_unique<NeuroVectorizer>(trainConfig());
      for (const GeneratedLoop &L : Programs)
        Model->addTrainingProgram(L.Name, L.Source);
      Driver = std::make_unique<Trainer>(Model->runner(),
                                         Model->rolloutSpec(), TC);
      for (const auto &[Name, Suite] : Suites)
        Driver->addEvalSuite(Name, Suite);
      SetupSeconds.push_back(secondsSince(Start));
    }
  };
  setUp(SetupTrials - SetupTrials / 2, NV, Train);

  // --- The measured batches -------------------------------------------------
  const TrainReport Done = Train->run();
  std::vector<double> BatchSeconds, Losses;
  {
    std::ifstream Log(TC.RunLogPath);
    for (std::string Line; std::getline(Log, Line);) {
      if (Line.find("\"event\": \"batch\"") == std::string::npos)
        continue;
      BatchSeconds.push_back(BatchSize /
                             jsonNumber(Line, "transitions_per_sec"));
      Losses.push_back(jsonNumber(Line, "loss"));
    }
  }
  R.Attempted = static_cast<uint64_t>(Measured);
  if (Done.Interrupted || Done.BatchesRun != 1 + Measured ||
      BatchSeconds.size() != static_cast<size_t>(1 + Measured)) {
    R.error("expected " + std::to_string(1 + Measured) + " batches, ran " +
            std::to_string(Done.BatchesRun) + " (" +
            std::to_string(BatchSeconds.size()) + " logged)");
    return R;
  }
  BatchSeconds.erase(BatchSeconds.begin()); // The warm-up batch.
  for (size_t I = 1; I < Losses.size(); ++I)
    if (!std::isfinite(Losses[I]) || !std::isfinite(BatchSeconds[I - 1]) ||
        BatchSeconds[I - 1] <= 0.0)
      ++R.Failed;
  if (R.Failed)
    R.error(std::to_string(R.Failed) + " batches with a non-finite loss or "
                                       "batch time");

  // --- Checks: the evaluation ran, and its plans are legal -----------------
  const EvalReport &Eval = Done.FinalEval;
  double LogSum = 0.0;
  for (const EvalSuite &Suite : Eval.Suites)
    for (const EvalProgram &P : Suite.Programs)
      LogSum += std::log(P.Speedup);
  const double Speedup = std::exp(
      LogSum / static_cast<double>(std::max<size_t>(1, Eval.NumPrograms)));
  if (Eval.NumPrograms != EvalPrograms || !std::isfinite(Speedup) ||
      Speedup <= 0.0)
    R.error("held-out evaluation incomplete: " +
            std::to_string(Eval.NumPrograms) + " programs, geomean " +
            std::to_string(Speedup));
  const TargetInfo &TI = NV->target();
  for (const auto &Suite : Suites) {
    for (const NamedProgram &P : Suite.second) {
      std::optional<Program> Prog = parseSource(P.Source);
      if (!Prog) {
        R.error(P.Name + ": does not parse");
        continue;
      }
      std::vector<LoopSite> Sites = extractLoops(*Prog, false);
      const std::vector<LoopSummary> Lowered =
          lowerAllLoops(*Prog, Sites, TI.MaxVF);
      const std::vector<VectorPlan> Plans = NV->plansFor(P.Source);
      if (Plans.size() != Lowered.size()) {
        R.error(P.Name + ": " + std::to_string(Plans.size()) + " plans for " +
                std::to_string(Lowered.size()) + " loops");
        continue;
      }
      for (size_t K = 0; K < Plans.size(); ++K)
        if (!analyzeLegality(Lowered[K], TI).isLegal(Plans[K], TI))
          R.error(P.Name + ": trained policy's plan is illegal");
    }
  }

  std::sort(BatchSeconds.begin(), BatchSeconds.end());
  const double MedianBatch = percentile(BatchSeconds, 0.5);
  std::cout << "info measured_batches " << BatchSeconds.size() << " count\n"
            << "info eval_programs " << Eval.NumPrograms << " count\n"
            << "info final_reward_ema " << Done.Stats.FinalRewardMean
            << " reward\n";

  if (!Opts.traced()) {
    std::unique_ptr<NeuroVectorizer> SpareModel;
    std::unique_ptr<Trainer> SpareDriver;
    setUp(SetupTrials / 2, SpareModel, SpareDriver);
    const TrialStats Setup = trialStats(SetupSeconds);
    std::cout << "info setup_min_s " << Setup.Min << " s\n"
              << "info setup_max_s " << Setup.Max << " s\n";
    R.metric("setup_s", Setup.Median, "s");
    R.metric("throughput_per_s", BatchSize / MedianBatch, "1/s");
    R.metric("latency_p50_ms", MedianBatch * 1000.0, "ms");
    R.metric("latency_p99_ms", percentile(BatchSeconds, 0.99) * 1000.0, "ms");
    R.metric("speedup_geomean", Speedup, "x");
    R.metric("peak_rss_mb", peakRssMb(), "MB");
    return R;
  }

  // --- Traced run: batches driven the way Trainer::run drives them ---------
  // (the same RolloutWorkers and math-pool setup), with a span around the
  // collection and the update.
  PPORunner &Runner = NV->runner();
  std::vector<double> TracedSeconds;
  double CollectS = 0.0, UpdateS = 0.0, BatchS = 0.0;
  {
    RolloutWorkers Pool(Runner.env(), NV->rolloutSpec(), Workers);
    ThreadPool Math(Workers);
    Runner.setMathPool(&Math);
    RolloutBuffer Buffer;
    for (int B = 0; B < TracedBatches; ++B) {
      const Clock::time_point Start = Clock::now();
      SpanScope Batch(&T, "batch", static_cast<uint64_t>(B));
      uint64_t Mark = nowNs();
      {
        SpanScope Sp(&T, "train.collect", B, Batch.id());
        Pool.collect(Runner.embedder(), Runner.policy(), Runner.rng(),
                     Runner.env().size(), BatchSize, Buffer);
        Runner.rng().next();
      }
      CollectS += static_cast<double>(nowNs() - Mark) / 1e9;
      Mark = nowNs();
      double Loss;
      {
        SpanScope Sp(&T, "train.update", B, Batch.id());
        // Past TotalSteps the annealed entropy coefficient is 0.
        Loss = Runner.trainOnBatch(Buffer.Transitions, 0.0);
      }
      UpdateS += static_cast<double>(nowNs() - Mark) / 1e9;
      if (!std::isfinite(Loss))
        R.error("traced batch with a non-finite loss");
      TracedSeconds.push_back(secondsSince(Start));
      BatchS += TracedSeconds.back();
    }
    Runner.setMathPool(nullptr);
  }
  std::vector<LayerRow> Rows;
  Rows.push_back({"train.collect_s", CollectS / TracedBatches, "s",
                  "RolloutWorkers::collect per batch"});
  Rows.push_back({"train.update_s", UpdateS / TracedBatches, "s",
                  "PPORunner::trainOnBatch per batch"});
  Rows.push_back({"train.update_share", UpdateS / BatchS, "share",
                  "of traced batch wall time"});
  if ((CollectS + UpdateS) / BatchS < 0.95)
    R.error("collect + update cover only " +
            std::to_string(100.0 * (CollectS + UpdateS) / BatchS) +
            "% of the batch");
  const double Unexplained = unexplainedShare(T, "batch");

  std::vector<NamedProgram> Replayed;
  for (const GeneratedLoop &L : Programs)
    Replayed.push_back({L.Name, L.Source});
  replayLayers(Replayed, *NV, T, R, Rows);
  const double Overhead = trialStats(TracedSeconds).Median / MedianBatch - 1.0;
  R.metric("trace.overhead_ratio", Overhead, "ratio");
  R.metric("trace.unexplained_share", Unexplained, "share");
  Rows.push_back({"trace.overhead_ratio", Overhead, "ratio",
                  "traced / untraced median batch time - 1"});
  Rows.push_back({"trace.unexplained_share", Unexplained, "share",
                  "of batch time no child span covers"});
  addSpanRows(T, Rows);
  printLayerTable("per-layer (traced run)", Rows);
  if (!T.writeChromeJson(Opts.TracePath))
    R.error("could not write " + Opts.TracePath);
  return R;
}

} // namespace nvbench
