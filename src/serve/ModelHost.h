//===- serve/ModelHost.h - RCU-published serving model set ------*- C++ -*-===//
//
// Part of the NeuroVectorizer reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The zero-downtime model-swap machinery behind the network daemon: a
/// ModelHost owns the *current generation* of the full serving model set
/// (Code2Vec embedder, greedy policy, and the whole Predictor backend
/// registry) behind one atomically published shared_ptr.
///
/// reload() builds a brand-new generation off to the side — fresh
/// embedder/policy/backends, the file's weights and sections loaded into
/// them through ModelSerializer::tryLoad — and only if every validation
/// passes flips the pointer (RCU style: readers never block, never see a
/// half-loaded model). A batch that acquired the old generation finishes
/// on it; its shared_ptr keeps the old model alive until the last
/// in-flight reader drops it. A corrupt or mismatched file leaves the
/// current generation serving and reports a LoadStatus the network layer
/// can map onto a protocol error.
///
/// Each generation carries a monotonically increasing Generation id. The
/// serving plan cache tags entries with the generation that computed them
/// (PlanCache epochs), so a flip lazily invalidates every stale plan
/// without blocking readers or touching the cache.
///
//===----------------------------------------------------------------------===//

#ifndef NV_SERVE_MODELHOST_H
#define NV_SERVE_MODELHOST_H

#include "embedding/Code2Vec.h"
#include "predictors/Predictor.h"
#include "rl/Policy.h"
#include "serve/ModelSerializer.h"
#include "support/RNG.h"
#include "target/TargetInfo.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

namespace nv {

class NNSBackend;
class TreeBackend;

/// Everything needed to construct an architecture-compatible model set
/// from scratch (the serving-side slice of NeuroVectorizerConfig;
/// NeuroVectorizer::servingModelConfig() produces a matching one).
struct ServingModelConfig {
  Code2VecConfig Embedding;
  ActionSpaceKind ActionSpace = ActionSpaceKind::Discrete;
  std::vector<int> Hidden = {64, 64};
  TargetInfo Target;
  MachineConfig Machine;
  uint64_t Seed = 1234;
  /// Build the policy over legality-feature-widened states (must match
  /// the flag the hosted model files were saved with — tryLoad validates).
  bool LegalityFeatures = false;
};

/// One immutable generation of the serving model: the embedder, the
/// policy, and the full backend registry wired over them. Immutable by
/// convention — after construction + load only const access happens
/// outside the service's model lock.
class ServingModel {
public:
  explicit ServingModel(const ServingModelConfig &Config);

  Code2Vec &embedder() const { return Embedder; }
  PredictorSet &backends() const { return Backends; }
  const ModelMeta &meta() const { return Meta; }
  uint64_t generation() const { return Generation; }
  const std::string &path() const { return Path; }

private:
  friend class ModelHost;

  RNG Rng; ///< Construction-time init stream (declared before users).
  /// The service's batch pipeline takes these non-const (forward passes
  /// cache activations); access is serialized by the service model lock.
  mutable Code2Vec Embedder;
  mutable Policy Pol;
  mutable PredictorSet Backends;
  NNSBackend *NNS = nullptr;   ///< Owned by Backends.
  TreeBackend *Tree = nullptr; ///< Owned by Backends.
  ModelMeta Meta;
  uint64_t Generation = 0;
  std::string Path; ///< Model file this generation was loaded from.
};

/// Atomic publisher of ServingModel generations.
class ModelHost {
public:
  /// Constructs generation 0: a freshly initialized (untrained) model set.
  /// Call reload() with a real model file before serving traffic.
  explicit ModelHost(const ServingModelConfig &Config);

  /// Loads \p Path into a brand-new model set and, only on full success,
  /// publishes it as the next generation. Returns the serializer's status
  /// (\p Error gets the human-readable cause); on anything but Ok the
  /// current generation is untouched and keeps serving. Safe to call
  /// concurrently with readers and with other reload() calls (those
  /// serialize on an internal mutex).
  LoadStatus reload(const std::string &Path, std::string *Error = nullptr);

  /// The current generation (never null). A reader holds the returned
  /// shared_ptr for as long as it uses the model; a concurrent reload
  /// cannot pull it away.
  std::shared_ptr<const ServingModel> current() const;

  /// Generation id of current() (starts at 0, +1 per successful reload).
  uint64_t generation() const { return Generation.load(); }

  const ServingModelConfig &config() const { return Config; }

private:
  ServingModelConfig Config;
  std::shared_ptr<const ServingModel> Current; ///< atomic_load/store only.
  std::atomic<uint64_t> Generation{0};
  std::mutex ReloadMutex; ///< Serializes writers; readers never take it.
};

} // namespace nv

#endif // NV_SERVE_MODELHOST_H
