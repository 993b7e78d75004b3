//===- rl/Policy.h - PPO policy networks ------------------------*- C++ -*-===//
//
// Part of the NeuroVectorizer reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The agent networks. A shared FCNN trunk (default 64x64 tanh, §4) feeds
/// a value head and an action head in one of the paper's three action-space
/// flavours (Fig 6):
///
///  1. Discrete  — two categorical heads index the VF and IF arrays
///     ("the agent picks 2 integer numbers"). The paper found one network
///     predicting both factors beats two independent agents (§3.3); the
///     two-agent variant remains constructible for the ablation bench.
///  2. Continuous1 — one Gaussian number encodes the joint (VF, IF) index.
///  3. Continuous2 — two Gaussian numbers, one per factor.
///
//===----------------------------------------------------------------------===//

#ifndef NV_RL_POLICY_H
#define NV_RL_POLICY_H

#include "ir/Legality.h"
#include "nn/Layers.h"
#include "target/CostModel.h"
#include "target/TargetInfo.h"

#include <vector>

namespace nv {

/// Action-space flavours from Fig 6.
enum class ActionSpaceKind { Discrete, Continuous1, Continuous2 };

/// One sampled action with everything PPO needs to recompute ratios.
struct ActionRecord {
  int VFIdx = 0;
  int IFIdx = 0;
  double Raw[2] = {0.0, 0.0}; ///< Unrounded samples (continuous spaces).
  double LogProb = 0.0;
  double Value = 0.0; ///< Critic value at sampling time.
};

/// Policy + value network.
class Policy {
public:
  /// \p Heads selects which factors this network predicts: {NumVF, NumIF}
  /// for the joint agent, {NumVF} or {NumIF} for the two-agent ablation.
  /// Continuous kinds ignore \p Heads and emit 1 or 2 Gaussians.
  Policy(ActionSpaceKind Kind, int InputDim, std::vector<int> Hidden,
         int NumVF, int NumIF, RNG &Rng, bool JointHeads = true);

  ActionSpaceKind kind() const { return Kind; }
  int numVF() const { return NumVF; }
  int numIF() const { return NumIF; }
  /// Width of the state rows forward() expects. Larger than the embedder's
  /// codeDim() exactly when the model was built with legality features.
  int inputDim() const { return InputDim; }

  /// Runs the trunk + heads on a batch (B x InputDim); caches activations.
  /// Allocation-free once warm (member buffers + fused kernels); when
  /// \p Pool is given the GEMMs run row-panel-parallel with bit-identical
  /// results at any pool size. \p ForBackward = false skips the per-layer
  /// input caching (sampling/greedy inference; backward() then requires a
  /// ForBackward pass first).
  void forward(const Matrix &States, ThreadPool *Pool = nullptr,
               bool ForBackward = true);

  /// Samples an action for batch row \p Row from the last forward(). With
  /// a non-empty \p Mask, illegal actions are excluded: discrete heads get
  /// -inf logits (the VF head keeps only VFs with a legal IF, the IF head
  /// is conditioned on the sampled VF), continuous samples are projected
  /// to the nearest legal grid point after rounding (Raw and LogProb stay
  /// untouched — the projection is environment dynamics, not policy).
  ActionRecord sampleAction(int Row, RNG &Rng,
                            const PlanMask *Mask = nullptr);

  /// Greedy (mode) action for batch row \p Row (inference, §4: "inference
  /// ... requires a single step only"). Masking as in sampleAction().
  ActionRecord greedyAction(int Row, const PlanMask *Mask = nullptr);

  /// Log-probability of \p Action under the *current* forward() outputs.
  /// \p Mask must be the mask the action was sampled under (or null).
  double logProb(int Row, const ActionRecord &Action,
                 const PlanMask *Mask = nullptr) const;

  /// Policy entropy at batch row \p Row. Under a mask the IF head is
  /// conditioned on \p VFIdx (the sampled VF of this row's action).
  double entropy(int Row, const PlanMask *Mask = nullptr,
                 int VFIdx = 0) const;

  /// Critic value at batch row \p Row.
  double value(int Row) const;

  /// Backpropagates. \p dLogProb is dLoss/dlogpi per row, \p dValue is
  /// dLoss/dV per row, \p EntropyCoef adds -coef * dH/dparams. \p Actions
  /// must be the records whose logProb was differentiated. \p Masks, when
  /// given, holds one PlanMask per row (empty = unmasked) matching the
  /// masks the log-probs were computed under; masked logits receive zero
  /// gradient. Returns dLoss/dStates for end-to-end training of the
  /// embedding generator.
  Matrix backward(const std::vector<ActionRecord> &Actions,
                  const std::vector<double> &dLogProb,
                  const std::vector<double> &dValue, double EntropyCoef,
                  const std::vector<PlanMask> *Masks = nullptr);

  std::vector<Param *> params();

  /// Maps an ActionRecord to concrete factors given the action arrays.
  VectorPlan toPlan(const ActionRecord &Action, const TargetInfo &TI) const;

private:
  std::vector<double> headLogits(int Row, int Head) const;
  std::vector<double> maskedHeadLogits(int Row, int Head,
                                       const PlanMask *Mask,
                                       int VFIdx) const;
  int headOffset(int Head) const;
  int headSize(int Head) const;

  ActionSpaceKind Kind;
  int InputDim;
  int NumVF, NumIF;
  bool JointHeads;
  std::vector<int> HeadSizes; ///< Discrete: logit widths per head.

  MLP Trunk;
  LinearLayer ActionHead; ///< Logits (discrete) or means (continuous).
  LinearLayer ValueHead;
  Param LogStd; ///< (1 x K) state-independent log stddev (continuous).

  Matrix TrunkOut;  ///< Cached (B x H).
  Matrix HeadOut;   ///< Cached (B x logits/means).
  Matrix ValueOut;  ///< Cached (B x 1).
  Workspace Back;   ///< Backward scratch (head/value gradients).
};

} // namespace nv

#endif // NV_RL_POLICY_H
