//===- predictors/Backends.h - Concrete Predictor backends ------*- C++ -*-===//
//
// Part of the NeuroVectorizer reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The concrete Predictor implementations behind each PredictMethod:
///
///  - PolicyBackend     "rl"         greedy trained PPO policy (embedding)
///  - NNSBackend        "nns"        k-NN over the learned embedding
///  - TreeBackend       "tree"       CART over the learned embedding
///  - BaselineBackend   "baseline"   stock cost model, no pragma (source)
///  - RandomBackend     "random"     uniform factors, uncacheable (source)
///  - BruteForceBackend "bruteforce" exhaustive oracle search (source)
///
/// The supervised backends own their index/tree so the distillation
/// pipeline (train/Distill.h) can fit them in place and ModelSerializer
/// can persist them as v3 sections.
///
//===----------------------------------------------------------------------===//

#ifndef NV_PREDICTORS_BACKENDS_H
#define NV_PREDICTORS_BACKENDS_H

#include "embedding/PathContext.h"
#include "predictors/DecisionTree.h"
#include "predictors/NearestNeighbor.h"
#include "predictors/Predictor.h"
#include "support/RNG.h"

#include <mutex>
#include <utility>

namespace nv {

class Policy;

/// Greedy inference over the trained PPO policy (the paper's deployed
/// agent: "inference ... requires a single step only", §4).
class PolicyBackend : public Predictor {
public:
  /// Borrows \p Pol (the live trained model); it must outlive the backend.
  PolicyBackend(Policy &Pol, const TargetInfo &TI) : Pol(Pol), TI(TI) {}

  Kind kind() const override { return Kind::Embedding; }
  std::string name() const override { return "rl"; }
  std::vector<VectorPlan> plansForEmbeddings(const Matrix &States,
                                             ThreadPool *Pool) override;

private:
  Policy &Pol;
  TargetInfo TI;
};

/// k-NN over (embedding, oracle plan) pairs (§3.5, 2.65x in the paper).
class NNSBackend : public Predictor {
public:
  explicit NNSBackend(int K = 3) : Index(K) {}

  Kind kind() const override { return Kind::Embedding; }
  std::string name() const override { return "nns"; }
  bool ready() const override { return Index.size() > 0; }
  std::vector<VectorPlan> plansForEmbeddings(const Matrix &States,
                                             ThreadPool *Pool) override;

  /// The underlying index, for the distillation pipeline and persistence.
  NearestNeighborPredictor &index() { return Index; }
  const NearestNeighborPredictor &index() const { return Index; }

private:
  NearestNeighborPredictor Index;
};

/// CART over the learned embedding (§3.5, 2.47x in the paper).
class TreeBackend : public Predictor {
public:
  TreeBackend(const TargetInfo &TI,
              DecisionTreeConfig Config = DecisionTreeConfig())
      : TI(TI), Tree(Config) {}

  Kind kind() const override { return Kind::Embedding; }
  std::string name() const override { return "tree"; }
  bool ready() const override { return Tree.fitted(); }
  std::vector<VectorPlan> plansForEmbeddings(const Matrix &States,
                                             ThreadPool *Pool) override;

  /// The underlying tree, for the distillation pipeline and persistence.
  DecisionTree &tree() { return Tree; }
  const DecisionTree &tree() const { return Tree; }

private:
  TargetInfo TI;
  DecisionTree Tree;
};

/// Shared scratch-environment machinery of the source-kind backends: each
/// query builds a private environment over the query program, so calls are
/// thread-safe and never touch shared model state.
class SearchBackendBase : public Predictor {
public:
  SearchBackendBase(const TargetInfo &TI, const MachineConfig &Machine,
                    const PathContextConfig &Paths)
      : TI(TI), Machine(Machine), Paths(Paths) {}

  Kind kind() const override { return Kind::Source; }

protected:
  TargetInfo TI;
  MachineConfig Machine;
  PathContextConfig Paths;
};

/// The stock cost model's own decisions (no pragma injected).
class BaselineBackend : public SearchBackendBase {
public:
  using SearchBackendBase::SearchBackendBase;

  std::string name() const override { return "baseline"; }
  std::vector<VectorPlan> plansForSource(const std::string &Source) override;
};

/// Uniformly random factor assignment (the paper's sanity baseline:
/// "performed much worse than the baseline").
class RandomBackend : public SearchBackendBase {
public:
  RandomBackend(const TargetInfo &TI, const MachineConfig &Machine,
                const PathContextConfig &Paths, uint64_t Seed)
      : SearchBackendBase(TI, Machine, Paths), Rng(Seed) {}

  std::string name() const override { return "random"; }
  /// Random answers must never be cached: two requests for the same loop
  /// are two independent draws.
  bool cacheable() const override { return false; }
  std::vector<VectorPlan> plansForSource(const std::string &Source) override;

private:
  std::mutex Mutex; ///< plansForSource may run on several pool threads.
  RNG Rng;
};

/// Exhaustive (VF, IF) search — the oracle Fig 7 normalizes against and
/// the labeler of the distillation pipeline (§2.3).
class BruteForceBackend : public SearchBackendBase {
public:
  BruteForceBackend(const TargetInfo &TI, const MachineConfig &Machine,
                    const PathContextConfig &Paths, int Passes = 2)
      : SearchBackendBase(TI, Machine, Paths), Passes(Passes) {}

  std::string name() const override { return "bruteforce"; }
  std::vector<VectorPlan> plansForSource(const std::string &Source) override;

private:
  int Passes;
};

/// Registers the full backend set of Fig 3's swappable agent block
/// (§3.5) into \p Set: greedy inference over \p Pol, unfitted NNS and
/// tree backends, and the baseline, random and brute-force searches over
/// (\p TI, \p Machine, \p Paths); the random backend draws from a stream
/// derived from \p Seed. Returns the NNS and tree backends (owned by
/// \p Set), the slots distillation fits and ModelSerializer restores.
std::pair<NNSBackend *, TreeBackend *>
registerBackends(PredictorSet &Set, Policy &Pol, const TargetInfo &TI,
                 const MachineConfig &Machine, const PathContextConfig &Paths,
                 uint64_t Seed);

} // namespace nv

#endif // NV_PREDICTORS_BACKENDS_H
