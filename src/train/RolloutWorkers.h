//===- train/RolloutWorkers.h - Parallel batch collection -------*- C++ -*-===//
//
// Part of the NeuroVectorizer reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The training-side counterpart of serve/: N worker threads fill the PPO
/// batch in parallel, the way the paper scales rollout collection across
/// RLlib workers. Each worker owns a *replica* of the policy and embedding
/// networks (forward passes cache activations, so the master model cannot
/// be shared across threads); replica weights are synced from the master
/// before every collection.
///
/// Determinism contract: collect() output depends only on the master
/// weights, the base RNG state, and the active-sample count — never on the
/// worker count or thread scheduling. Three mechanisms guarantee this:
///
///  1. episode RNG streams derive from RNG::split(episodeIndex) off the
///     fixed base state, not from a shared sequential generator;
///  2. the episode plan (which program each episode rolls out, and where
///     its transitions land in the buffer) is computed serially up front;
///  3. workers claim episode indices through an atomic cursor but write
///     only into their episode's pre-assigned slots.
///
/// So 1-worker and 16-worker training produce bit-identical batches, and
/// therefore bit-identical final models (asserted in tests/TrainTest.cpp).
///
//===----------------------------------------------------------------------===//

#ifndef NV_TRAIN_ROLLOUTWORKERS_H
#define NV_TRAIN_ROLLOUTWORKERS_H

#include "embedding/Code2Vec.h"
#include "rl/Env.h"
#include "rl/Policy.h"
#include "support/ThreadPool.h"
#include "train/RolloutBuffer.h"

#include <memory>
#include <vector>

namespace nv {

/// Everything needed to construct a worker-local replica of the model pair
/// (architecture only; weights are synced from the master at collect time).
struct RolloutModelSpec {
  Code2VecConfig Embedding;
  ActionSpaceKind ActionSpace = ActionSpaceKind::Discrete;
  std::vector<int> Hidden = {64, 64};
  int NumVF = 0;
  int NumIF = 0;
};

/// Fixed pool of rollout workers over a shared (read-only) environment.
class RolloutWorkers {
public:
  /// \p NumWorkers is clamped to >= 1. The environment must outlive the
  /// workers; it may grow (curriculum stages appending programs) between
  /// collect() calls, but not during one.
  RolloutWorkers(const VectorizationEnv &Env, const RolloutModelSpec &Spec,
                 int NumWorkers);

  int numWorkers() const { return static_cast<int>(Replicas.size()); }

  /// Syncs replica weights from the master pair, then fills \p Out with at
  /// least \p MinTransitions transitions drawn from the first
  /// \p ActiveSamples environment programs. Episode e rolls out with the
  /// stream BaseRng.split(e); the caller advances its master RNG between
  /// batches so successive batches draw fresh streams.
  void collect(Code2Vec &MasterEmbedder, Policy &MasterPolicy,
               const RNG &BaseRng, size_t ActiveSamples, int MinTransitions,
               RolloutBuffer &Out);

private:
  /// Worker-local model pair. InitRng is declared first so it is alive for
  /// the member initializers; the random init it produces is immediately
  /// overwritten by the first weight sync.
  struct Replica {
    RNG InitRng;
    Code2Vec Embedder;
    Policy Pol;
    Matrix StatesBuf; ///< Reused encode output: episodes allocate nothing.

    explicit Replica(const RolloutModelSpec &Spec)
        : InitRng(1), Embedder(Spec.Embedding, InitRng),
          Pol(Spec.ActionSpace, Embedder.codeDim(), Spec.Hidden, Spec.NumVF,
              Spec.NumIF, InitRng) {}
  };

  /// Rolls out one episode: first draw picks the program, then one action
  /// per site, one env step, and the transitions land in \p Slots.
  void runEpisode(Replica &R, RNG Rng, size_t ActiveSamples,
                  Transition *Slots);

  const VectorizationEnv &Env;
  std::vector<std::unique_ptr<Replica>> Replicas;
  ThreadPool Pool;
};

} // namespace nv

#endif // NV_TRAIN_ROLLOUTWORKERS_H
