//===- train/Trainer.h - Parallel rollout training driver -------*- C++ -*-===//
//
// Part of the NeuroVectorizer reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The training-side orchestrator: fills PPO batches with parallel rollout
/// workers, runs the deterministic PPO update on the master model across
/// a math pool, advances the curriculum, checkpoints periodically, and tracks
/// the best model by held-out evaluation reward. The search/tuning driver
/// is separated from the evaluator the same way bistra separates its
/// tuner from its program evaluator.
///
/// Reproducibility contract: for a fixed seed and configuration, the final
/// model is bit-identical regardless of worker count, and a run resumed
/// from a checkpoint is bit-identical to the uninterrupted run (asserted
/// in tests/TrainTest.cpp).
///
//===----------------------------------------------------------------------===//

#ifndef NV_TRAIN_TRAINER_H
#define NV_TRAIN_TRAINER_H

#include "rl/PPO.h"
#include "train/Checkpoint.h"
#include "train/Curriculum.h"
#include "train/Evaluator.h"
#include "train/RolloutWorkers.h"

#include <string>

namespace nv {

class RunLog;

/// Trainer configuration.
struct TrainerConfig {
  int NumWorkers = 4;
  long long TotalSteps = 20000;

  /// Staged training distribution. Empty stages = no curriculum: train on
  /// whatever the environment already contains.
  CurriculumConfig Curriculum;

  /// Checkpoint file; empty disables checkpointing. A checkpoint is also
  /// written when the run ends (completed or interrupted), so a later
  /// Resume continues from the exact stopping point.
  std::string CheckpointPath;
  int CheckpointEveryBatches = 5;
  /// Checkpoint generations kept on disk: CheckpointPath plus Keep-1
  /// rotated ancestors (CheckpointPath.1 = previous, .2 = older, ...).
  /// <= 1 keeps only CheckpointPath (the historical behavior). With
  /// rotation on, Resume falls back to the newest *loadable* generation,
  /// so a checkpoint corrupted on disk costs CheckpointEveryBatches of
  /// progress instead of the whole run.
  int CheckpointKeep = 1;
  /// Resume from CheckpointPath when it holds a valid checkpoint.
  bool Resume = false;

  /// Best-model artifact (serve/ModelSerializer format), written whenever
  /// a held-out evaluation improves on the best reward so far. Empty
  /// disables it.
  std::string BestModelPath;
  /// Evaluate every N batches; 0 = only at the end of the run.
  int EvalEveryBatches = 0;

  /// Caps for *this invocation* (0 = none): the run stops early but
  /// anneals entropy against TotalSteps, so a capped run plus a resumed
  /// run equals one uninterrupted run. MaxSeconds is for smoke tests; a
  /// wall-clock cap stops at a nondeterministic batch boundary.
  long long MaxStepsThisRun = 0;
  double MaxSecondsThisRun = 0.0;

  /// JSONL run log (one event object per line): a "batch" event per PPO
  /// update (step, reward EMA, loss, entropy coefficient, curriculum
  /// stage, transitions/s, and the collect_s / update_s split of the
  /// batch's seconds), a "curriculum" event per stage advance, an
  /// "eval" event per held-out evaluation (per-suite geomean speedups),
  /// and one "final" event. Appends, so a resumed run extends the same
  /// timeline. Empty disables it.
  std::string RunLogPath;

  bool Verbose = false; ///< Per-batch progress lines on stdout.
};

/// What a run() did.
struct TrainReport {
  TrainStats Stats; ///< Reward/loss curves over this invocation's batches.
  EvalReport FinalEval;
  long long BatchesRun = 0;
  int FinalStage = 0;
  bool Resumed = false;
  bool Interrupted = false; ///< Hit a this-run cap before TotalSteps.
  double BestEvalReward = -1e300;
};

/// Orchestrates RolloutWorkers + PPO updates + Curriculum + Evaluator +
/// checkpoints over an existing PPORunner.
class Trainer {
public:
  /// \p Spec must describe the runner's model architecture (the facade's
  /// NeuroVectorizer::rolloutSpec() builds it from its own config).
  Trainer(PPORunner &Runner, const RolloutModelSpec &Spec,
          const TrainerConfig &Config);

  /// Registers a held-out evaluation suite; returns programs accepted.
  size_t addEvalSuite(const std::string &Name,
                      const std::vector<NamedProgram> &Programs);

  /// Runs (or resumes) training until TotalSteps or a this-run cap.
  TrainReport run();

  const Curriculum &curriculum() const { return Stages; }

private:
  EvalReport runEval(TrainProgress &Progress, RunLog *Log);

  PPORunner &Runner;
  RolloutModelSpec Spec;
  TrainerConfig Config;
  Curriculum Stages;
  Evaluator Eval;
};

} // namespace nv

#endif // NV_TRAIN_TRAINER_H
