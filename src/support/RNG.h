//===- support/RNG.h - Deterministic random number generation --*- C++ -*-===//
//
// Part of the NeuroVectorizer reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small, fully deterministic random number generator used everywhere in
/// the framework (dataset generation, policy sampling, initialization).
/// Determinism matters here: the paper's experiments are re-generated by the
/// bench binaries and must produce stable tables across runs.
///
//===----------------------------------------------------------------------===//

#ifndef NV_SUPPORT_RNG_H
#define NV_SUPPORT_RNG_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace nv {

/// SplitMix64-seeded xoshiro256** generator.
///
/// Chosen over std::mt19937 because its output is identical across standard
/// library implementations, which keeps generated datasets and learned
/// policies bit-reproducible on any host.
class RNG {
public:
  explicit RNG(uint64_t Seed = 0x9E3779B97F4A7C15ull) { reseed(Seed); }

  /// Re-initializes the state from \p Seed via SplitMix64.
  void reseed(uint64_t Seed);

  /// Returns the next raw 64-bit value.
  uint64_t next();

  /// Returns a uniform integer in [0, Bound). \p Bound must be positive.
  uint64_t nextBounded(uint64_t Bound);

  /// Returns a uniform integer in [Lo, Hi] inclusive.
  int64_t nextInt(int64_t Lo, int64_t Hi);

  /// Returns a uniform double in [0, 1).
  double nextDouble();

  /// Returns a uniform float in [Lo, Hi).
  double nextUniform(double Lo, double Hi);

  /// Returns a standard normal sample (Box-Muller).
  double nextGaussian();

  /// Returns true with probability \p P.
  bool nextBernoulli(double P) { return nextDouble() < P; }

  /// Picks a uniformly random element of \p Items.
  template <typename T> const T &pick(const std::vector<T> &Items) {
    assert(!Items.empty() && "pick() on empty vector");
    return Items[nextBounded(Items.size())];
  }

  /// Samples an index from an (unnormalized, non-negative) weight vector.
  std::size_t sampleWeighted(const std::vector<double> &Weights);

  /// Fisher-Yates shuffle.
  template <typename T> void shuffle(std::vector<T> &Items) {
    if (Items.size() < 2)
      return;
    for (std::size_t I = Items.size() - 1; I > 0; --I)
      std::swap(Items[I], Items[nextBounded(I + 1)]);
  }

  /// Derives the independent stream \p StreamId from the *current* state
  /// without advancing it: the same (state, StreamId) pair always yields
  /// the same stream, and distinct ids yield decorrelated streams. This is
  /// how parallel rollout workers get reproducible per-episode generators —
  /// episode streams depend only on the master state and the episode index,
  /// never on how many workers consume them.
  RNG split(uint64_t StreamId) const;

  /// Complete generator state, for checkpointing. restore() of a snapshot()
  /// resumes the exact output sequence (including a buffered Box-Muller
  /// spare).
  struct Snapshot {
    uint64_t State[4] = {0, 0, 0, 0};
    bool HasSpareGaussian = false;
    double SpareGaussian = 0.0;
  };

  Snapshot snapshot() const;
  void restore(const Snapshot &S);

private:
  uint64_t State[4];
  bool HasSpareGaussian = false;
  double SpareGaussian = 0.0;
};

} // namespace nv

#endif // NV_SUPPORT_RNG_H
