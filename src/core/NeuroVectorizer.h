//===- core/NeuroVectorizer.h - Public framework API ------------*- C++ -*-===//
//
// Part of the NeuroVectorizer reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The end-to-end framework of the paper (Fig 3), as one facade class:
/// programs in, annotated programs out. It wires together the loop
/// extractor, the code2vec embedding generator, the learning agent (PPO
/// contextual bandit by default), the simulated clang/LLVM toolchain, and
/// the alternative prediction methods (random, NNS, decision tree,
/// brute-force) that the framework is "extensible" to (§3.5).
///
/// Typical use (see examples/quickstart.cpp):
/// \code
///   NeuroVectorizer NV;
///   for (auto &P : trainingPrograms) NV.addTrainingProgram(P.Name, P.Src);
///   NV.train(20000);                      // end-to-end RL training
///   std::string Annotated = NV.annotate(MyLoopSource);
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef NV_CORE_NEUROVECTORIZER_H
#define NV_CORE_NEUROVECTORIZER_H

#include "embedding/Code2Vec.h"
#include "predictors/Backends.h"
#include "predictors/Predictor.h"
#include "predictors/Search.h"
#include "rl/PPO.h"
#include "rl/Policy.h"
#include "serve/AnnotationService.h"
#include "serve/ModelHost.h"
#include "train/Distill.h"
#include "train/Trainer.h"

#include <memory>
#include <string>

namespace nv {

/// Framework-wide configuration.
struct NeuroVectorizerConfig {
  TargetInfo Target;
  MachineConfig Machine;
  Code2VecConfig Embedding;
  PPOConfig PPO;
  ActionSpaceKind ActionSpace = ActionSpaceKind::Discrete;
  std::vector<int> Hidden = {64, 64}; ///< FCNN trunk (paper default).
  /// Append the legality-analysis feature block (access-class histogram,
  /// normalized max-safe VF, reduction/predication bits — see
  /// ir/Legality.h) to each loop's code embedding before the policy trunk.
  /// Changes the policy architecture, so it is part of the persisted model
  /// format (serve/ModelSerializer.h flag bit 2) and must match at load().
  bool LegalityFeatures = false;
  uint64_t Seed = 1234;
};

/// The end-to-end framework facade.
class NeuroVectorizer {
public:
  explicit NeuroVectorizer(
      const NeuroVectorizerConfig &Config = NeuroVectorizerConfig());

  /// Adds a training program; returns false if it fails to parse or has
  /// no loops.
  bool addTrainingProgram(const std::string &Name,
                          const std::string &Source);

  /// Trains the agent (and, end-to-end, the embedding) for \p Steps
  /// environment interactions. Single-threaded rollout collection; see
  /// trainParallel() for the scalable path.
  TrainStats train(long long Steps);

  /// Trains through the train/ subsystem: parallel rollout workers,
  /// optional curriculum, periodic checkpointing with bit-reproducible
  /// resume, and best-model tracking against the held-out evaluation
  /// benchmarks. Invalidates the serving plan cache and any fitted
  /// supervised predictors (the weights they were derived from changed).
  TrainReport trainParallel(const TrainerConfig &TrainConfig);

  /// The worker-replica architecture spec matching this instance's model
  /// (for driving train/Trainer or train/RolloutWorkers directly).
  RolloutModelSpec rolloutSpec() const;

  /// Fits the supervised backends (NNS, decision tree) through the
  /// distillation pipeline (train/Distill.h): runs the brute-force
  /// labeler over up to \p MaxSamples training programs and indexes the
  /// learned embeddings (§3.5). Call after train() — or after load(), to
  /// distill from a persisted checkpoint.
  DistillReport fitSupervised(size_t MaxSamples = 512);

  /// Distillation with explicit pipeline knobs.
  DistillReport fitSupervised(const DistillConfig &Distill);

  /// True when the supervised backends are fitted (after fitSupervised()
  /// or a load() of a model file carrying backend sections).
  bool supervisedReady() const;

  /// Predicts factors for every vectorization site of \p Source using
  /// \p Method; returns the annotated source (Fig 4 style).
  std::string annotate(const std::string &Source,
                       PredictMethod Method = PredictMethod::RL);

  /// Predicted plans per site for \p Source.
  std::vector<VectorPlan> plansFor(const std::string &Source,
                                   PredictMethod Method = PredictMethod::RL);

  /// Simulated execution cycles of \p Source under \p Method.
  double cyclesFor(const std::string &Source, PredictMethod Method);

  /// Speedup of \p Method over the baseline cost model on \p Source.
  double speedupOverBaseline(const std::string &Source,
                             PredictMethod Method = PredictMethod::RL);

  /// Persists the trained model (embedding generator + policy, plus the
  /// distilled supervised backends when fitted) to \p Path (see
  /// serve/ModelSerializer.h for the v3 format). Returns false and sets
  /// \p Error on failure.
  bool save(const std::string &Path, std::string *Error = nullptr);

  /// save() with the failure *stage* reported: which step of the
  /// crash-safe write sequence failed (saveStatusName() renders it for
  /// CLIs and run logs). The write is atomic — on any non-Ok status the
  /// previous file at \p Path, if any, is intact.
  SaveStatus trySave(const std::string &Path, std::string *Error = nullptr);

  /// Restores a model previously written by save() into this instance.
  /// The instance must have been constructed with the same configuration
  /// (architecture shapes are validated). All-or-nothing: on failure the
  /// current weights are untouched. Invalidates the serving plan cache;
  /// the supervised backends are restored from the file's sections when
  /// present (v3) and cleared otherwise.
  bool load(const std::string &Path, std::string *Error = nullptr);

  /// The serving-side slice of this instance's configuration, for
  /// standing up a ModelHost (serve/ModelHost.h) whose generations are
  /// architecture-compatible with models this instance save()s — the
  /// network daemon's construction path: train/save here, host + hot
  /// reload there.
  ServingModelConfig servingModelConfig() const;

  /// The batched, multi-threaded serving front-end over this instance's
  /// model (created on first use with default ServeConfig).
  AnnotationService &service();

  /// Rebuilds the serving front-end with \p Serve (pool size, cache size).
  AnnotationService &service(const ServeConfig &Serve);

  /// Annotates many programs at once through service(); results are
  /// parallel to \p Requests. Equivalent to annotate() per program but
  /// cached, batched, and multi-threaded.
  std::vector<AnnotationResult>
  annotateBatch(const std::vector<AnnotationRequest> &Requests);

  VectorizationEnv &env() { return *Env; }
  Code2Vec &embedder() { return *Embedder; }
  Policy &policy() { return *Pol; }
  PPORunner &runner() { return *Runner; }
  const TargetInfo &target() const { return Config.Target; }

  /// The backend registry (one Predictor per PredictMethod), shared with
  /// the serving front-end and usable with Evaluator::evaluateMethods.
  PredictorSet &backends() { return Backends; }

private:
  NeuroVectorizerConfig Config;
  RNG Rng;
  std::unique_ptr<VectorizationEnv> Env;
  std::unique_ptr<Code2Vec> Embedder;
  std::unique_ptr<Policy> Pol;
  std::unique_ptr<PPORunner> Runner;
  PredictorSet Backends;
  NNSBackend *NNS = nullptr;   ///< Owned by Backends.
  TreeBackend *Tree = nullptr; ///< Owned by Backends.
  std::unique_ptr<AnnotationService> Service;
};

} // namespace nv

#endif // NV_CORE_NEUROVECTORIZER_H
