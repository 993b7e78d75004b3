//===- predictors/Predictor.h - Unified inference backends ------*- C++ -*-===//
//
// Part of the NeuroVectorizer reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The common interface behind every prediction method of the framework
/// (§3.5): the end-to-end RL policy, the supervised methods that reuse the
/// learned embedding (nearest-neighbor search, decision tree), and the
/// non-learned baselines (stock cost model, random, brute-force oracle).
/// The paper's Fig 3 draws the "learning agent" as a swappable block; this
/// interface is that block, so the serving layer, the evaluator, and the
/// facade can all select a backend per request instead of hard-coding the
/// policy network.
///
/// Backends come in two kinds:
///
///  - Embedding: consume the Code2Vec code vector of each loop (RL, NNS,
///    decision tree). The caller computes embeddings once — batched,
///    through the shared encoder — and the backend maps rows to plans.
///  - Source: need the whole program text (baseline cost model, random,
///    brute-force search) because their answer is not a function of a
///    single loop's embedding.
///
//===----------------------------------------------------------------------===//

#ifndef NV_PREDICTORS_PREDICTOR_H
#define NV_PREDICTORS_PREDICTOR_H

#include "nn/Matrix.h"
#include "target/TargetInfo.h"

#include <array>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace nv {

class ThreadPool;

/// Prediction method selector (the "learning agent" block of Fig 3 is
/// swappable after end-to-end training, §3.5).
enum class PredictMethod {
  Baseline,     ///< Stock cost model (no pragma).
  RL,           ///< Trained PPO policy (greedy).
  NNS,          ///< Nearest neighbor over the learned embedding.
  DecisionTree, ///< CART over the learned embedding.
  Random,       ///< Uniformly random factors.
  BruteForce,   ///< Exhaustive search (oracle).
};

/// Number of PredictMethod values (per-method stats arrays, registries).
constexpr int NumPredictMethods = 6;

/// Stable lowercase name ("rl", "nns", "tree", ...) for CLIs, stats
/// tables, and bench JSON keys.
const char *methodName(PredictMethod Method);

/// Inverse of methodName; nullopt for unknown names.
std::optional<PredictMethod> methodFromName(const std::string &Name);

/// The joint (VF, IF) class id of \p Plan under \p TI's action arrays —
/// the label space the supervised backends are fitted on.
int planToClass(const VectorPlan &Plan, const TargetInfo &TI);

/// Inverse of planToClass (out-of-range classes clamp to the last VF row).
VectorPlan classToPlan(int Class, const TargetInfo &TI);

/// Size of the joint class space (|VF actions| * |IF actions|).
int numPlanClasses(const TargetInfo &TI);

/// One inference backend.
class Predictor {
public:
  /// What a backend consumes; decides which plansFor* entry point the
  /// caller must use.
  enum class Kind {
    Embedding, ///< Code vectors, one row per loop (batchable).
    Source,    ///< Whole program text (search / cost-model methods).
  };

  virtual ~Predictor();

  virtual Kind kind() const = 0;

  /// Stable lowercase identifier, matching methodName() of the method the
  /// backend implements.
  virtual std::string name() const = 0;

  /// False until the backend has been fitted (supervised methods before
  /// distillation). Serving an unready backend is a request error, not UB.
  virtual bool ready() const { return true; }

  /// Whether identical inputs always yield identical plans — the licence
  /// for the serving layer to cache results (false for random search).
  virtual bool cacheable() const { return true; }

  /// Embedding kind: one plan per row of \p States (B x CodeDim). \p Pool
  /// may parallelize the backend's own math; results must not depend on
  /// it. The base implementation asserts (wrong-kind call).
  virtual std::vector<VectorPlan> plansForEmbeddings(const Matrix &States,
                                                     ThreadPool *Pool);

  /// Source kind: one plan per vectorization site of \p Source, in site
  /// order. The base implementation asserts (wrong-kind call).
  virtual std::vector<VectorPlan> plansForSource(const std::string &Source);
};

/// The backend registry: one optional Predictor per PredictMethod. Owns
/// its backends; the serving layer and the evaluator borrow them.
class PredictorSet {
public:
  PredictorSet() = default;
  PredictorSet(PredictorSet &&) = default;
  PredictorSet &operator=(PredictorSet &&) = default;

  void set(PredictMethod Method, std::unique_ptr<Predictor> Backend) {
    Slots[static_cast<size_t>(Method)] = std::move(Backend);
  }

  /// The backend for \p Method, or null when none is registered.
  Predictor *get(PredictMethod Method) const {
    return Slots[static_cast<size_t>(Method)].get();
  }

  /// Number of registered backends.
  size_t size() const;

private:
  std::array<std::unique_ptr<Predictor>, NumPredictMethods> Slots;
};

} // namespace nv

#endif // NV_PREDICTORS_PREDICTOR_H
