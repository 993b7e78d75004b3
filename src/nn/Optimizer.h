//===- nn/Optimizer.h - SGD and Adam optimizers -----------------*- C++ -*-===//
//
// Part of the NeuroVectorizer reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Gradient-descent optimizers for Param sets. Adam is the default, as in
/// the paper's RLlib PPO configuration; plain SGD is kept for tests and
/// ablations. Both support global-norm gradient clipping (PPO stability).
///
/// Pool contract: clipGradNorm and Adam::step take an optional ThreadPool
/// and split their element-wise work across it in element ranges. No
/// element's arithmetic depends on the partition, and the one reduction
/// (the clip norm) keeps its serial order: one chain per parameter, the
/// chains summed in parameter order. Results are therefore bit-identical
/// with no pool and at any pool size.
///
//===----------------------------------------------------------------------===//

#ifndef NV_NN_OPTIMIZER_H
#define NV_NN_OPTIMIZER_H

#include "nn/Layers.h"

#include <vector>

namespace nv {

class ThreadPool;

/// Clips gradients of \p Params to a maximum global L2 norm; returns the
/// pre-clip norm. With \p Pool, the per-parameter norms and the scaling
/// run across it (bit-identical; see the file comment).
double clipGradNorm(const std::vector<Param *> &Params, double MaxNorm,
                    ThreadPool *Pool = nullptr);

/// Plain SGD: value -= lr * grad.
class SGD {
public:
  explicit SGD(double LearningRate) : LearningRate(LearningRate) {}

  void step(const std::vector<Param *> &Params);
  void setLearningRate(double LR) { LearningRate = LR; }

private:
  double LearningRate;
};

/// Adam (Kingma & Ba). State is keyed by parameter identity and allocated
/// lazily, so one optimizer instance can drive a whole model.
class Adam {
public:
  explicit Adam(double LearningRate, double Beta1 = 0.9,
                double Beta2 = 0.999, double Epsilon = 1e-8)
      : LearningRate(LearningRate), Beta1(Beta1), Beta2(Beta2),
        Epsilon(Epsilon) {}

  /// One Adam update of \p Params. Moments are looked up (and allocated
  /// on first use) serially; with \p Pool the element-wise update then
  /// runs across it in element ranges (bit-identical at any pool size).
  void step(const std::vector<Param *> &Params, ThreadPool *Pool = nullptr);
  void setLearningRate(double LR) { LearningRate = LR; }
  double learningRate() const { return LearningRate; }

  /// Number of step() calls so far (drives bias correction; checkpointed
  /// together with the moments so a resumed run corrects identically).
  long long stepCount() const { return StepCount; }

  /// Checkpointing: flattens first/second moments for \p Params, in order
  /// (per param: all of M, then all of V). Parameters never stepped yet
  /// export zeros.
  std::vector<double> exportMoments(const std::vector<Param *> &Params);

  /// Restores moments exported with the same parameter list and the saved
  /// step count. Returns false (leaving the optimizer untouched) if
  /// \p Blob does not match the total element count of \p Params.
  bool importMoments(const std::vector<Param *> &Params,
                     const std::vector<double> &Blob, long long Steps);

private:
  struct Moments {
    std::vector<double> M;
    std::vector<double> V;
  };
  double LearningRate;
  double Beta1, Beta2, Epsilon;
  long long StepCount = 0;
  std::vector<std::pair<const Param *, Moments>> State;
  std::vector<Moments *> StepMoments; ///< step()'s per-call lookup.

  Moments &momentsFor(const Param *P);
};

} // namespace nv

#endif // NV_NN_OPTIMIZER_H
