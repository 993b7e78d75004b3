//===- support/RNG.cpp - Deterministic random number generation ----------===//

#include "support/RNG.h"

#include <cmath>

using namespace nv;

static uint64_t splitMix64(uint64_t &X) {
  X += 0x9E3779B97F4A7C15ull;
  uint64_t Z = X;
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
  return Z ^ (Z >> 31);
}

static uint64_t rotl(uint64_t X, int K) {
  return (X << K) | (X >> (64 - K));
}

void RNG::reseed(uint64_t Seed) {
  uint64_t S = Seed;
  for (uint64_t &Word : State)
    Word = splitMix64(S);
  HasSpareGaussian = false;
}

uint64_t RNG::next() {
  const uint64_t Result = rotl(State[1] * 5, 7) * 9;
  const uint64_t T = State[1] << 17;
  State[2] ^= State[0];
  State[3] ^= State[1];
  State[1] ^= State[2];
  State[0] ^= State[3];
  State[2] ^= T;
  State[3] = rotl(State[3], 45);
  return Result;
}

uint64_t RNG::nextBounded(uint64_t Bound) {
  assert(Bound > 0 && "nextBounded() requires a positive bound");
  // Rejection sampling to avoid modulo bias.
  const uint64_t Threshold = -Bound % Bound;
  for (;;) {
    uint64_t R = next();
    if (R >= Threshold)
      return R % Bound;
  }
}

int64_t RNG::nextInt(int64_t Lo, int64_t Hi) {
  assert(Lo <= Hi && "nextInt() requires Lo <= Hi");
  return Lo + static_cast<int64_t>(
                  nextBounded(static_cast<uint64_t>(Hi - Lo) + 1));
}

double RNG::nextDouble() {
  // 53 random mantissa bits.
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double RNG::nextUniform(double Lo, double Hi) {
  return Lo + (Hi - Lo) * nextDouble();
}

double RNG::nextGaussian() {
  if (HasSpareGaussian) {
    HasSpareGaussian = false;
    return SpareGaussian;
  }
  double U, V, S;
  do {
    U = nextUniform(-1.0, 1.0);
    V = nextUniform(-1.0, 1.0);
    S = U * U + V * V;
  } while (S >= 1.0 || S == 0.0);
  const double Scale = std::sqrt(-2.0 * std::log(S) / S);
  SpareGaussian = V * Scale;
  HasSpareGaussian = true;
  return U * Scale;
}

std::size_t RNG::sampleWeighted(const std::vector<double> &Weights) {
  assert(!Weights.empty() && "sampleWeighted() on empty weights");
  double Total = 0.0;
  for (double W : Weights) {
    assert(W >= 0.0 && "weights must be non-negative");
    Total += W;
  }
  if (Total <= 0.0)
    return nextBounded(Weights.size());
  double Target = nextDouble() * Total;
  for (std::size_t I = 0; I < Weights.size(); ++I) {
    Target -= Weights[I];
    if (Target < 0.0)
      return I;
  }
  return Weights.size() - 1;
}

RNG RNG::split(uint64_t StreamId) const {
  // Fold the stream id and all four state words through SplitMix64. Each
  // fold rekeys the chain, so nearby ids (0, 1, 2, ...) land in unrelated
  // seeds. Const: the parent state is read, never advanced.
  uint64_t X = StreamId ^ 0xD1B54A32D192ED03ull;
  uint64_t Seed = splitMix64(X);
  for (uint64_t Word : State) {
    X ^= Word;
    Seed ^= splitMix64(X);
  }
  return RNG(Seed);
}

RNG::Snapshot RNG::snapshot() const {
  Snapshot S;
  for (int I = 0; I < 4; ++I)
    S.State[I] = State[I];
  S.HasSpareGaussian = HasSpareGaussian;
  S.SpareGaussian = SpareGaussian;
  return S;
}

void RNG::restore(const Snapshot &S) {
  for (int I = 0; I < 4; ++I)
    State[I] = S.State[I];
  HasSpareGaussian = S.HasSpareGaussian;
  SpareGaussian = S.SpareGaussian;
}
