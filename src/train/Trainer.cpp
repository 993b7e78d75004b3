//===- train/Trainer.cpp - Parallel rollout training driver ----------------===//

#include "train/Trainer.h"

#include "serve/ModelSerializer.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <chrono>
#include <iostream>
#include <stdexcept>

using namespace nv;

Trainer::Trainer(PPORunner &Runner, const RolloutModelSpec &Spec,
                 const TrainerConfig &Config)
    : Runner(Runner), Spec(Spec), Config(Config),
      Stages(Config.Curriculum),
      Eval(Runner.env().compiler(), Spec.Embedding.Paths) {}

size_t Trainer::addEvalSuite(const std::string &Name,
                             const std::vector<NamedProgram> &Programs) {
  return Eval.addSuite(Name, Programs);
}

EvalReport Trainer::runEval(TrainProgress &Progress, RunLog *Log) {
  EvalReport Report = Eval.evaluate(Runner.embedder(), Runner.policy());
  if (Report.NumPrograms == 0)
    return Report;
  if (Log && Log->enabled()) {
    JsonLine Event;
    Event.field("event", "eval")
        .field("step", static_cast<long long>(Progress.StepsDone))
        .field("mean_reward", Report.MeanReward)
        .field("programs", static_cast<uint64_t>(Report.NumPrograms))
        .field("improved", Report.MeanReward > Progress.BestEvalReward);
    JsonLine Suites;
    for (const EvalSuite &Suite : Report.Suites)
      Suites.field(Suite.Name, Suite.GeomeanSpeedup);
    Event.raw("geomean_speedup", Suites.str());
    Log->write(Event);
  }
  if (Report.MeanReward > Progress.BestEvalReward) {
    Progress.BestEvalReward = Report.MeanReward;
    if (!Config.BestModelPath.empty()) {
      std::string Error;
      // The artifact carries the env's extraction setting so a later
      // deployment embeds loops the way this model was trained.
      ModelMeta Meta;
      Meta.InnerContextOnly = Runner.env().innerContextOnly();
      SaveStatus St =
          ModelSerializer::trySave(Config.BestModelPath, Runner.embedder(),
                                   Runner.policy(), Meta, {}, &Error);
      if (St != SaveStatus::Ok) {
        // One immediate retry: losing the best-model artifact to a
        // transient I/O hiccup wastes an entire training run.
        St = ModelSerializer::trySave(Config.BestModelPath, Runner.embedder(),
                                      Runner.policy(), Meta, {}, &Error);
      }
      if (St != SaveStatus::Ok) {
        Telemetry::metrics().counter("train.save_failures").add();
        if (Log && Log->enabled())
          Log->write(JsonLine()
                         .field("event", "save_failure")
                         .field("kind", "best_model")
                         .field("status", saveStatusName(St))
                         .field("error", Error)
                         .field("step",
                                static_cast<long long>(Progress.StepsDone)));
        if (Config.Verbose)
          std::cout << "[train] best-model save failed ("
                    << saveStatusName(St) << "): " << Error << "\n";
      }
    }
  }
  return Report;
}

TrainReport Trainer::run() {
  TrainReport Report;
  TrainProgress Progress;

  // Per-iteration metrics timeline (JSONL) plus live gauges in the
  // process-wide registry (the same snapshot a /statsz would serve).
  RunLog Log(Config.RunLogPath);
  MetricsRegistry &Metrics = Telemetry::metrics();
  Gauge &RewardEMAGauge = Metrics.gauge("train.reward_ema");
  Gauge &LossGauge = Metrics.gauge("train.loss");
  Gauge &StageGauge = Metrics.gauge("train.stage");
  Gauge &RateGauge = Metrics.gauge("train.transitions_per_sec");
  ShardedHistogram &BatchUs = Metrics.histogram("train.batch_us");
  ShardedHistogram &CollectUs = Metrics.histogram("train.collect_us");
  ShardedHistogram &UpdateUs = Metrics.histogram("train.update_us");

  // Resume, if asked and possible. A missing or invalid checkpoint is not
  // fatal: the run simply starts from scratch.
  if (Config.Resume && !Config.CheckpointPath.empty()) {
    std::string Error, LoadedFrom;
    if (TrainCheckpoint::loadNewest(Config.CheckpointPath, Runner, Progress,
                                    Config.CheckpointKeep, &LoadedFrom,
                                    &Error)) {
      Stages.restore(Progress.Stage);
      Report.Resumed = true;
      if (Log.enabled() && LoadedFrom != Config.CheckpointPath)
        Log.write(JsonLine()
                      .field("event", "resume_fallback")
                      .field("path", LoadedFrom)
                      .field("step",
                             static_cast<long long>(Progress.StepsDone)));
      if (Config.Verbose)
        std::cout << "[train] resumed at step " << Progress.StepsDone
                  << " (stage " << Progress.Stage.Stage << ") from "
                  << LoadedFrom << "\n";
    } else if (Config.Verbose) {
      std::cout << "[train] no resume: " << Error << "\n";
    }
  }

  // Build (or, after a resume, replay) the training distribution. An
  // empty set would reach nextBounded(0) in episode planning — fail
  // loudly, release builds included.
  Stages.activate(Runner.env());
  if (Runner.env().size() == 0)
    throw std::invalid_argument(
        "Trainer: no training programs — add programs to the environment "
        "or configure a curriculum");

  RolloutWorkers Workers(Runner.env(), Spec, Config.NumWorkers);
  // The PPO update runs across a worker-sized math pool (forwards,
  // backwards, clip and Adam) and stays deterministic: every pooled step
  // is bit-identical at any pool size, so the 1-vs-N-worker
  // reproducibility tests also cover differing math-pool sizes. The guard
  // unsets the pool before it dies: the runner outlives this call.
  struct MathPoolGuard {
    PPORunner &Runner;
    ThreadPool Pool;
    MathPoolGuard(PPORunner &Runner, int Threads)
        : Runner(Runner), Pool(Threads) {
      Runner.setMathPool(&Pool);
    }
    ~MathPoolGuard() { Runner.setMathPool(nullptr); }
  } MathPool(Runner, Config.NumWorkers);
  const PPOConfig &PPO = Runner.config();
  const auto Start = std::chrono::steady_clock::now();
  const long long StepsAtStart = Progress.StepsDone;

  auto hitRunCap = [&] {
    if (Config.MaxStepsThisRun > 0 &&
        Progress.StepsDone - StepsAtStart >= Config.MaxStepsThisRun)
      return true;
    if (Config.MaxSecondsThisRun > 0.0) {
      const std::chrono::duration<double> Elapsed =
          std::chrono::steady_clock::now() - Start;
      if (Elapsed.count() >= Config.MaxSecondsThisRun)
        return true;
    }
    return false;
  };

  // Rotated, crash-safe checkpoint write with one retry; failures are
  // counted in telemetry and the run log rather than lost to stdout.
  auto saveCheckpoint = [&](const char *Kind) {
    std::string Error;
    SaveStatus St = TrainCheckpoint::saveRotated(
        Config.CheckpointPath, Runner, Progress, Config.CheckpointKeep,
        &Error);
    // Retry without re-rotating: the generation shift already happened.
    if (St != SaveStatus::Ok)
      St = TrainCheckpoint::trySave(Config.CheckpointPath, Runner, Progress,
                                    &Error);
    if (St != SaveStatus::Ok) {
      Metrics.counter("train.save_failures").add();
      if (Log.enabled())
        Log.write(JsonLine()
                      .field("event", "save_failure")
                      .field("kind", Kind)
                      .field("status", saveStatusName(St))
                      .field("error", Error)
                      .field("step",
                             static_cast<long long>(Progress.StepsDone)));
      if (Config.Verbose)
        std::cout << "[train] " << Kind << " save failed ("
                  << saveStatusName(St) << "): " << Error << "\n";
    }
  };

  RolloutBuffer Buffer;
  while (Progress.StepsDone < Config.TotalSteps) {
    if (hitRunCap()) {
      Report.Interrupted = true;
      break;
    }
    const uint64_t BatchStart = nowMicros();

    // Parallel collection off the master RNG state, then one serial
    // advance so the next batch derives fresh episode streams.
    Workers.collect(Runner.embedder(), Runner.policy(), Runner.rng(),
                    Runner.env().size(), PPO.BatchSize, Buffer);
    Runner.rng().next();
    Progress.StepsDone += PPO.BatchSize;
    const uint64_t CollectEnd = nowMicros();

    // Entropy annealing against the *total* budget (same schedule as the
    // serial PPORunner::train), so interrupted + resumed == uninterrupted.
    const double Fraction =
        std::min(1.0, static_cast<double>(Progress.StepsDone) /
                          std::max<long long>(1, Config.TotalSteps));
    const double EntropyCoef =
        PPO.EntropyCoef +
        (PPO.FinalEntropyCoef - PPO.EntropyCoef) * Fraction;
    const double Loss = Runner.trainOnBatch(Buffer.Transitions, EntropyCoef);
    const uint64_t UpdateEnd = nowMicros();
    ++Progress.BatchesDone;
    ++Report.BatchesRun;

    Report.Stats.RewardMean.add(static_cast<double>(Progress.StepsDone),
                                Runner.rewardEMA().value());
    Report.Stats.Loss.add(static_cast<double>(Progress.StepsDone), Loss);

    const uint64_t BatchTime = nowMicros() - BatchStart;
    const double Rate = BatchTime == 0 ? 0.0
                                       : static_cast<double>(PPO.BatchSize) *
                                             1e6 / BatchTime;
    const uint64_t CollectTime = CollectEnd - BatchStart;
    const uint64_t UpdateTime = UpdateEnd - CollectEnd;
    BatchUs.record(BatchTime);
    CollectUs.record(CollectTime);
    UpdateUs.record(UpdateTime);
    RewardEMAGauge.set(Runner.rewardEMA().value());
    LossGauge.set(Loss);
    StageGauge.set(Stages.stage());
    RateGauge.set(Rate);
    if (Log.enabled())
      Log.write(JsonLine()
                    .field("event", "batch")
                    .field("step", static_cast<long long>(Progress.StepsDone))
                    .field("batch",
                           static_cast<long long>(Progress.BatchesDone))
                    .field("reward_ema", Runner.rewardEMA().value())
                    .field("loss", Loss)
                    .field("entropy_coef", EntropyCoef)
                    .field("stage", Stages.stage())
                    .field("transitions_per_sec", Rate)
                    .field("collect_s", static_cast<double>(CollectTime) / 1e6)
                    .field("update_s", static_cast<double>(UpdateTime) / 1e6));

    if (Stages.observe(Runner.rewardEMA().value(), PPO.BatchSize,
                       Runner.env())) {
      StageGauge.set(Stages.stage());
      if (Log.enabled())
        Log.write(
            JsonLine()
                .field("event", "curriculum")
                .field("step", static_cast<long long>(Progress.StepsDone))
                .field("stage", Stages.stage())
                .field("stage_name", Stages.stageName(Stages.stage()))
                .field("programs",
                       static_cast<uint64_t>(Runner.env().size())));
      if (Config.Verbose)
        std::cout << "[train] curriculum -> stage " << Stages.stage() << " ("
                  << Stages.stageName(Stages.stage()) << "), "
                  << Runner.env().size() << " programs\n";
    }

    if (Config.EvalEveryBatches > 0 &&
        Progress.BatchesDone % Config.EvalEveryBatches == 0)
      runEval(Progress, &Log);

    Progress.Stage = Stages.cursor();
    Progress.RewardEMAValue = Runner.rewardEMA().value();
    Progress.RewardEMASeen = Runner.rewardEMA().seen();
    if (!Config.CheckpointPath.empty() && Config.CheckpointEveryBatches > 0 &&
        Progress.BatchesDone % Config.CheckpointEveryBatches == 0)
      saveCheckpoint("checkpoint");

    if (Config.Verbose)
      std::cout << "[train] step " << Progress.StepsDone << "/"
                << Config.TotalSteps << "  reward EMA "
                << Runner.rewardEMA().value() << "  loss " << Loss << "\n";
  }

  // Final evaluation (and best-model update), then a final checkpoint so a
  // later Resume continues from the exact stopping point.
  Report.FinalEval = runEval(Progress, &Log);
  Progress.Stage = Stages.cursor();
  if (!Config.CheckpointPath.empty())
    saveCheckpoint("final_checkpoint");

  // Outside the loop: a resume of an already-completed run (zero batches)
  // must still report the restored EMA, not a default zero.
  Report.Stats.FinalRewardMean = Runner.rewardEMA().value();
  Report.Stats.Steps = Progress.StepsDone;
  Report.FinalStage = Stages.stage();
  Report.BestEvalReward = Progress.BestEvalReward;
  if (Log.enabled())
    Log.write(JsonLine()
                  .field("event", "final")
                  .field("step", static_cast<long long>(Progress.StepsDone))
                  .field("batches", static_cast<long long>(Report.BatchesRun))
                  .field("reward_ema", Report.Stats.FinalRewardMean)
                  .field("stage", Report.FinalStage)
                  .field("best_eval_reward", Report.BestEvalReward)
                  .field("interrupted", Report.Interrupted));
  return Report;
}
