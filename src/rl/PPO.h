//===- rl/PPO.h - Proximal Policy Optimization ------------------*- C++ -*-===//
//
// Part of the NeuroVectorizer reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Single-step (contextual bandit) PPO with the clipped surrogate
/// objective, a learned value baseline, and an entropy bonus — the
/// algorithm the paper drives through RLlib (§2.3, §4). Training is fully
/// end-to-end: the policy gradient w.r.t. the state flows back into the
/// code2vec embedding generator, so "the loop embedding is learned during
/// the end to end training with the RL agent".
///
//===----------------------------------------------------------------------===//

#ifndef NV_RL_PPO_H
#define NV_RL_PPO_H

#include "embedding/Code2Vec.h"
#include "nn/Optimizer.h"
#include "rl/Env.h"
#include "rl/Policy.h"
#include "support/Stats.h"
#include "support/Table.h"

#include <vector>

namespace nv {

/// PPO hyperparameters. Defaults mirror the paper's §4 setup (lr 5e-5,
/// batch 4000); the bench harnesses sweep these (Fig 5).
struct PPOConfig {
  double LearningRate = 5e-5;
  int BatchSize = 4000;
  int MiniBatchSize = 128; ///< SGD minibatch (RLlib: sgd_minibatch_size).
  int Epochs = 3;
  double ClipEps = 0.3;
  double ValueCoef = 0.5;
  /// Entropy bonus, annealed linearly to FinalEntropyCoef over the course
  /// of train(): exploration early, specialization late.
  double EntropyCoef = 0.05;
  double FinalEntropyCoef = 0.0;
  double MaxGradNorm = 40.0;
  bool NormalizeAdvantages = true;

  /// Throws std::invalid_argument on an unusable configuration (e.g.
  /// BatchSize <= 0, MiniBatchSize > BatchSize, ClipEps <= 0). Called by
  /// PPORunner on construction so misconfigurations fail loudly instead of
  /// silently misbehaving.
  void validate() const;
};

/// One collected transition. Public (not a PPORunner detail) so external
/// collectors — the parallel rollout workers in train/ — can fill batches.
struct Transition {
  size_t SampleIdx = 0;
  size_t SiteIdx = 0;
  ActionRecord Action;
  double Reward = 0.0;
  /// The legality mask the action was sampled under (empty = unmasked).
  /// Carried to update time so ratio/entropy terms use the same masked
  /// distribution — masks are static per site, so replays are exact.
  PlanMask Mask;
};

/// Training curves sampled per batch (the paper's Figs 5-6 plot reward
/// mean and total training loss vs training steps).
struct TrainStats {
  Series RewardMean{"reward_mean"};
  Series Loss{"total_loss"};
  double FinalRewardMean = 0.0;
  long long Steps = 0;
};

/// Orchestrates environment, embedding generator, policy, and optimizer.
class PPORunner {
public:
  /// Throws std::invalid_argument if \p Config fails validate().
  PPORunner(VectorizationEnv &Env, Code2Vec &Embedder, Policy &Pol,
            const PPOConfig &Config, uint64_t Seed);

  /// Trains for (at least) \p TotalSteps environment steps, i.e.
  /// compilations (the x-axis of Figs 5-6). Serial collection; the
  /// parallel path is train/Trainer, which fills batches with rollout
  /// workers and feeds them to trainOnBatch().
  TrainStats train(long long TotalSteps);

  /// Collects (at least) Config.BatchSize transitions serially with the
  /// runner's own RNG (the single-threaded rollout path).
  std::vector<Transition> collectBatch();

  /// Applies one PPO update to an externally collected batch: folds the
  /// batch's mean reward into the running reward EMA, then runs the
  /// clipped-surrogate minibatch epochs. Returns the mean total loss.
  double trainOnBatch(const std::vector<Transition> &Batch,
                      double EntropyCoef);

  /// Optional pool for the NN math: the encode and policy forwards, and
  /// the whole update (policy and embedding backward, clip, Adam). Safe
  /// for the determinism contract: every pooled step is bit-identical at
  /// any pool size, so weights and Adam moments do not depend on it.
  /// Default is serial (nullptr).
  void setMathPool(ThreadPool *Pool) { MathPool = Pool; }

  /// Greedy factors for a raw context bag (inference path).
  VectorPlan predict(const std::vector<PathContext> &Contexts);

  /// Greedy factors for every site of env sample \p Index.
  std::vector<VectorPlan> predictSample(size_t Index);

  VectorizationEnv &env() { return Env; }
  Policy &policy() { return Pol; }
  Code2Vec &embedder() { return Embedder; }
  const PPOConfig &config() const { return Config; }

  /// Every learnable parameter (policy first, then embedder) in the order
  /// the optimizer steps them — the canonical order for checkpointing.
  std::vector<Param *> trainableParams();

  /// Mutable internals exposed for train/TrainCheckpoint: a resumed run is
  /// bit-reproducible only if optimizer moments, RNG state, and the reward
  /// EMA all survive the round trip.
  Adam &optimizer() { return Optimizer; }
  RNG &rng() { return Rng; }
  EMA &rewardEMA() { return RewardEMA; }

private:
  double update(const std::vector<Transition> &Batch, double EntropyCoef);

  VectorizationEnv &Env;
  Code2Vec &Embedder;
  Policy &Pol;
  PPOConfig Config;
  Adam Optimizer;
  RNG Rng;
  EMA RewardEMA{0.1};
  ThreadPool *MathPool = nullptr;
  Matrix StatesBuf; ///< Reused encode output (allocation-free forwards).
  /// Reused widened-state buffer and digest scratch for policies built
  /// with legality features (see rl/StateFeatures.h); untouched otherwise.
  Matrix WideStatesBuf;
  Matrix NarrowGradBuf; ///< dStates minus the feature columns.
  std::vector<LegalityDigest> DigestBuf;
  /// update()'s minibatch context bags (copies reuse each bag's capacity).
  std::vector<std::vector<PathContext>> MiniContexts;
};

} // namespace nv

#endif // NV_RL_PPO_H
