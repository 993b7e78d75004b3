//===- rl/Policy.cpp - PPO policy networks --------------------------------===//

#include "rl/Policy.h"

#include "nn/Distributions.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace nv;

static int actionHeadWidth(ActionSpaceKind Kind,
                           const std::vector<int> &HeadSizes) {
  switch (Kind) {
  case ActionSpaceKind::Discrete: {
    int W = 0;
    for (int S : HeadSizes)
      W += S;
    return W;
  }
  case ActionSpaceKind::Continuous1:
    return 1;
  case ActionSpaceKind::Continuous2:
    return 2;
  }
  return 1;
}

static std::vector<int> makeTrunkSizes(int InputDim,
                                       const std::vector<int> &Hidden) {
  std::vector<int> Sizes = {InputDim};
  Sizes.insert(Sizes.end(), Hidden.begin(), Hidden.end());
  assert(Sizes.size() >= 2 && "policy needs at least one hidden layer");
  return Sizes;
}

Policy::Policy(ActionSpaceKind Kind, int InputDim, std::vector<int> Hidden,
               int NumVF, int NumIF, RNG &Rng, bool JointHeads)
    : Kind(Kind), InputDim(InputDim), NumVF(NumVF), NumIF(NumIF),
      JointHeads(JointHeads),
      HeadSizes(JointHeads ? std::vector<int>{NumVF, NumIF}
                           : std::vector<int>{NumVF}),
      Trunk(makeTrunkSizes(InputDim, Hidden), Activation::Tanh, Rng),
      ActionHead(Hidden.back(), actionHeadWidth(Kind, HeadSizes), Rng),
      ValueHead(Hidden.back(), 1, Rng),
      LogStd(1, actionHeadWidth(Kind, HeadSizes)) {
  // Continuous policies start with a healthy exploration stddev that
  // covers several action indices.
  LogStd.Value.fill(std::log(2.0));
  // Small initial head weights keep the initial policy near-uniform.
  ActionHead.W.Value *= 0.1;
}

int Policy::headOffset(int Head) const {
  int Offset = 0;
  for (int H = 0; H < Head; ++H)
    Offset += HeadSizes[H];
  return Offset;
}

int Policy::headSize(int Head) const { return HeadSizes[Head]; }

void Policy::forward(const Matrix &States, ThreadPool *Pool,
                     bool ForBackward) {
  // The trunk's last Linear has no built-in activation; fuse a tanh onto
  // it so heads see bounded features (standard RLlib FCNN behaviour).
  // backward() applies the matching derivative before Trunk.backward().
  Trunk.forwardInto(States, TrunkOut, Pool, /*ActivateLast=*/true,
                    ForBackward);
  ActionHead.forwardInto(TrunkOut, HeadOut, Activation::Identity, Pool,
                         ForBackward);
  ValueHead.forwardInto(TrunkOut, ValueOut, Activation::Identity, Pool,
                        ForBackward);
}

std::vector<double> Policy::headLogits(int Row, int Head) const {
  const int Offset = headOffset(Head);
  const int Size = headSize(Head);
  std::vector<double> Logits(Size);
  for (int I = 0; I < Size; ++I)
    Logits[I] = HeadOut.at(Row, Offset + I);
  return Logits;
}

/// Logit floor for illegal actions: exp(MaskedLogit - max) underflows to
/// exactly 0, so masked actions have probability 0 and contribute no
/// entropy or gradient (softmax helpers guard Probs > 0).
static constexpr double MaskedLogit = -1e30;

std::vector<double> Policy::maskedHeadLogits(int Row, int Head,
                                             const PlanMask *Mask,
                                             int VFIdx) const {
  std::vector<double> Logits = headLogits(Row, Head);
  if (!Mask || Mask->empty())
    return Logits;
  for (int I = 0; I < static_cast<int>(Logits.size()); ++I) {
    const bool Legal = Head == 0 ? Mask->vfLegal(I) : Mask->legal(VFIdx, I);
    if (!Legal)
      Logits[I] = MaskedLogit;
  }
  return Logits;
}

/// Nearest legal grid point for the continuous flavours: the rounded
/// sample is projected VF-first (closest legal VF row, ties toward the
/// safer lower index), then IF within that row.
static void projectToMask(int &VFIdx, int &IFIdx, const PlanMask &Mask) {
  if (Mask.empty() || Mask.legal(VFIdx, IFIdx))
    return;
  int BestVF = 0, BestDist = 1 << 30;
  for (int V = 0; V < Mask.NumVF; ++V) {
    if (!Mask.vfLegal(V))
      continue;
    const int Dist = std::abs(V - VFIdx);
    if (Dist < BestDist) {
      BestDist = Dist;
      BestVF = V;
    }
  }
  VFIdx = BestVF;
  int BestIF = 0;
  BestDist = 1 << 30;
  for (int I = 0; I < Mask.NumIF; ++I) {
    if (!Mask.legal(VFIdx, I))
      continue;
    const int Dist = std::abs(I - IFIdx);
    if (Dist < BestDist) {
      BestDist = Dist;
      BestIF = I;
    }
  }
  IFIdx = BestIF;
}

double Policy::value(int Row) const { return ValueOut.at(Row, 0); }

ActionRecord Policy::sampleAction(int Row, RNG &Rng, const PlanMask *Mask) {
  ActionRecord Rec;
  Rec.Value = value(Row);
  switch (Kind) {
  case ActionSpaceKind::Discrete: {
    Rec.VFIdx = sampleCategorical(maskedHeadLogits(Row, 0, Mask, 0), Rng);
    if (JointHeads)
      Rec.IFIdx = sampleCategorical(
          maskedHeadLogits(Row, 1, Mask, Rec.VFIdx), Rng);
    break;
  }
  case ActionSpaceKind::Continuous1: {
    Rec.Raw[0] = sampleGaussian(HeadOut.at(Row, 0), LogStd.Value.at(0, 0),
                                Rng);
    const int K = std::clamp<int>(
        static_cast<int>(std::lround(Rec.Raw[0])), 0, NumVF * NumIF - 1);
    Rec.VFIdx = K / NumIF;
    Rec.IFIdx = K % NumIF;
    if (Mask)
      projectToMask(Rec.VFIdx, Rec.IFIdx, *Mask);
    break;
  }
  case ActionSpaceKind::Continuous2: {
    Rec.Raw[0] = sampleGaussian(HeadOut.at(Row, 0), LogStd.Value.at(0, 0),
                                Rng);
    Rec.Raw[1] = sampleGaussian(HeadOut.at(Row, 1), LogStd.Value.at(0, 1),
                                Rng);
    Rec.VFIdx = std::clamp<int>(static_cast<int>(std::lround(Rec.Raw[0])),
                                0, NumVF - 1);
    Rec.IFIdx = std::clamp<int>(static_cast<int>(std::lround(Rec.Raw[1])),
                                0, NumIF - 1);
    if (Mask)
      projectToMask(Rec.VFIdx, Rec.IFIdx, *Mask);
    break;
  }
  }
  Rec.LogProb = logProb(Row, Rec, Mask);
  return Rec;
}

ActionRecord Policy::greedyAction(int Row, const PlanMask *Mask) {
  ActionRecord Rec;
  Rec.Value = value(Row);
  switch (Kind) {
  case ActionSpaceKind::Discrete:
    Rec.VFIdx = argmax(maskedHeadLogits(Row, 0, Mask, 0));
    if (JointHeads)
      Rec.IFIdx = argmax(maskedHeadLogits(Row, 1, Mask, Rec.VFIdx));
    break;
  case ActionSpaceKind::Continuous1: {
    Rec.Raw[0] = HeadOut.at(Row, 0);
    const int K = std::clamp<int>(
        static_cast<int>(std::lround(Rec.Raw[0])), 0, NumVF * NumIF - 1);
    Rec.VFIdx = K / NumIF;
    Rec.IFIdx = K % NumIF;
    if (Mask)
      projectToMask(Rec.VFIdx, Rec.IFIdx, *Mask);
    break;
  }
  case ActionSpaceKind::Continuous2:
    Rec.Raw[0] = HeadOut.at(Row, 0);
    Rec.Raw[1] = HeadOut.at(Row, 1);
    Rec.VFIdx = std::clamp<int>(static_cast<int>(std::lround(Rec.Raw[0])),
                                0, NumVF - 1);
    Rec.IFIdx = std::clamp<int>(static_cast<int>(std::lround(Rec.Raw[1])),
                                0, NumIF - 1);
    if (Mask)
      projectToMask(Rec.VFIdx, Rec.IFIdx, *Mask);
    break;
  }
  Rec.LogProb = logProb(Row, Rec, Mask);
  return Rec;
}

double Policy::logProb(int Row, const ActionRecord &Action,
                       const PlanMask *Mask) const {
  switch (Kind) {
  case ActionSpaceKind::Discrete: {
    double LP = logSoftmaxAt(maskedHeadLogits(Row, 0, Mask, 0),
                             Action.VFIdx);
    if (JointHeads)
      LP += logSoftmaxAt(maskedHeadLogits(Row, 1, Mask, Action.VFIdx),
                         Action.IFIdx);
    return LP;
  }
  case ActionSpaceKind::Continuous1:
    return gaussianLogProb(Action.Raw[0], HeadOut.at(Row, 0),
                           LogStd.Value.at(0, 0));
  case ActionSpaceKind::Continuous2:
    return gaussianLogProb(Action.Raw[0], HeadOut.at(Row, 0),
                           LogStd.Value.at(0, 0)) +
           gaussianLogProb(Action.Raw[1], HeadOut.at(Row, 1),
                           LogStd.Value.at(0, 1));
  }
  return 0.0;
}

double Policy::entropy(int Row, const PlanMask *Mask, int VFIdx) const {
  switch (Kind) {
  case ActionSpaceKind::Discrete: {
    double H = softmaxEntropy(maskedHeadLogits(Row, 0, Mask, 0));
    if (JointHeads)
      H += softmaxEntropy(maskedHeadLogits(Row, 1, Mask, VFIdx));
    return H;
  }
  case ActionSpaceKind::Continuous1:
    return gaussianEntropy(LogStd.Value.at(0, 0));
  case ActionSpaceKind::Continuous2:
    return gaussianEntropy(LogStd.Value.at(0, 0)) +
           gaussianEntropy(LogStd.Value.at(0, 1));
  }
  return 0.0;
}

Matrix Policy::backward(const std::vector<ActionRecord> &Actions,
                        const std::vector<double> &dLogProb,
                        const std::vector<double> &dValue,
                        double EntropyCoef,
                        const std::vector<PlanMask> *Masks,
                        ThreadPool *Pool) {
  const int Batch = TrunkOut.rows();
  assert(static_cast<int>(Actions.size()) == Batch &&
         static_cast<int>(dLogProb.size()) == Batch &&
         static_cast<int>(dValue.size()) == Batch &&
         "batch size mismatch in policy backward");
  assert((!Masks || static_cast<int>(Masks->size()) == Batch) &&
         "one mask per row required when masking");

  Matrix &dHead = Back.get(0, Batch, HeadOut.cols());
  Matrix &dVal = Back.get(1, Batch, 1);
  dHead.zero();
  dVal.zero();
  for (int Row = 0; Row < Batch; ++Row) {
    dVal.at(Row, 0) = dValue[Row];
    switch (Kind) {
    case ActionSpaceKind::Discrete: {
      const PlanMask *Mask =
          Masks && !(*Masks)[Row].empty() ? &(*Masks)[Row] : nullptr;
      const int NumHeads = static_cast<int>(HeadSizes.size());
      for (int Head = 0; Head < NumHeads; ++Head) {
        // Masked logits have probability exactly 0, so both the log-prob
        // and the entropy gradients below vanish on illegal entries.
        const std::vector<double> Logits =
            maskedHeadLogits(Row, Head, Mask, Actions[Row].VFIdx);
        const int Choice = Head == 0 ? Actions[Row].VFIdx
                                     : Actions[Row].IFIdx;
        const std::vector<double> LPGrad =
            categoricalLogProbGrad(Logits, Choice);
        // Entropy gradient: dH/dz_k = -p_k (log p_k + H).
        const std::vector<double> Probs = softmax(Logits);
        const double H = softmaxEntropy(Logits);
        const int Offset = headOffset(Head);
        for (int I = 0; I < headSize(Head); ++I) {
          double G = dLogProb[Row] * LPGrad[I];
          if (EntropyCoef != 0.0 && Probs[I] > 0.0)
            G += EntropyCoef * Probs[I] * (std::log(Probs[I]) + H);
          dHead.at(Row, Offset + I) += G;
        }
      }
      break;
    }
    case ActionSpaceKind::Continuous1:
    case ActionSpaceKind::Continuous2: {
      const int K = Kind == ActionSpaceKind::Continuous1 ? 1 : 2;
      for (int D = 0; D < K; ++D) {
        double dMean = 0.0, dLS = 0.0;
        gaussianLogProbGrad(Actions[Row].Raw[D], HeadOut.at(Row, D),
                            LogStd.Value.at(0, D), dMean, dLS);
        dHead.at(Row, D) += dLogProb[Row] * dMean;
        // Loss has -EntropyCoef * H and H = logstd + const.
        LogStd.Grad.at(0, D) += dLogProb[Row] * dLS - EntropyCoef;
      }
      break;
    }
    }
  }

  Matrix &dTrunkOut = Back.get(2, Batch, TrunkOut.cols());
  Matrix &dTrunkVal = Back.get(3, Batch, TrunkOut.cols());
  ActionHead.backwardInto(dHead, dTrunkOut, Pool);
  ValueHead.backwardInto(dVal, dTrunkVal, Pool);
  dTrunkOut += dTrunkVal;
  // tanh fused onto the trunk's last layer in forward().
  for (size_t I = 0; I < dTrunkOut.size(); ++I) {
    const double Y = TrunkOut.raw()[I];
    dTrunkOut.raw()[I] *= 1.0 - Y * Y;
  }
  return Trunk.backward(dTrunkOut, Pool);
}

std::vector<Param *> Policy::params() {
  std::vector<Param *> All = Trunk.params();
  for (Param *P : ActionHead.params())
    All.push_back(P);
  for (Param *P : ValueHead.params())
    All.push_back(P);
  if (Kind != ActionSpaceKind::Discrete)
    All.push_back(&LogStd);
  return All;
}

VectorPlan Policy::toPlan(const ActionRecord &Action,
                          const TargetInfo &TI) const {
  const std::vector<int> VFs = TI.vfActions();
  const std::vector<int> IFs = TI.ifActions();
  VectorPlan Plan;
  Plan.VF = VFs[std::clamp<int>(Action.VFIdx, 0,
                                static_cast<int>(VFs.size()) - 1)];
  Plan.IF = IFs[std::clamp<int>(Action.IFIdx, 0,
                                static_cast<int>(IFs.size()) - 1)];
  return Plan;
}
