//===- nn/Optimizer.cpp - SGD and Adam optimizers --------------------------===//

#include "nn/Optimizer.h"

#include "support/ThreadPool.h"

#include <algorithm>
#include <cmath>

using namespace nv;

namespace {

/// Elements per task of the element-wise passes.
constexpr size_t ChunkElements = 4096;

/// Body(P, Begin, End) over every element range of \p Params: whole
/// parameters in order with no pool, else ChunkElements-sized ranges
/// across \p Pool.
template <typename Fn>
void forEachElementRange(const std::vector<Param *> &Params, ThreadPool *Pool,
                         const Fn &Body) {
  if (!Pool) {
    for (size_t P = 0; P < Params.size(); ++P)
      Body(P, size_t{0}, Params[P]->Value.size());
    return;
  }
  size_t Chunks = 0;
  for (const Param *P : Params)
    Chunks += (P->Value.size() + ChunkElements - 1) / ChunkElements;
  Pool->parallelFor(0, Chunks, [&](size_t Chunk) {
    size_t P = 0;
    for (;; ++P) {
      const size_t Here =
          (Params[P]->Value.size() + ChunkElements - 1) / ChunkElements;
      if (Chunk < Here)
        break;
      Chunk -= Here;
    }
    const size_t Begin = Chunk * ChunkElements;
    Body(P, Begin, std::min(Params[P]->Value.size(), Begin + ChunkElements));
  });
}

} // namespace

double nv::clipGradNorm(const std::vector<Param *> &Params, double MaxNorm,
                        ThreadPool *Pool) {
  // One squared-norm chain per parameter (in parallel), summed in
  // parameter order: the serial loop's arithmetic at any pool size.
  std::vector<double> Squares(Params.size());
  auto Square = [&](size_t P) { Squares[P] = Params[P]->Grad.squaredNorm(); };
  if (Pool)
    Pool->parallelFor(0, Params.size(), Square);
  else
    for (size_t P = 0; P < Params.size(); ++P)
      Square(P);
  double Total = 0.0;
  for (const double Sq : Squares)
    Total += Sq;
  const double Norm = std::sqrt(Total);
  if (Norm > MaxNorm && Norm > 0.0) {
    const double Scale = MaxNorm / Norm;
    forEachElementRange(Params, Pool, [&](size_t P, size_t Begin,
                                          size_t End) {
      double *G = Params[P]->Grad.raw().data();
      for (size_t I = Begin; I < End; ++I)
        G[I] *= Scale;
    });
  }
  return Norm;
}

void SGD::step(const std::vector<Param *> &Params) {
  for (Param *P : Params) {
    for (size_t I = 0; I < P->Value.size(); ++I)
      P->Value.raw()[I] -= LearningRate * P->Grad.raw()[I];
  }
}

Adam::Moments &Adam::momentsFor(const Param *P) {
  for (auto &[Key, M] : State)
    if (Key == P)
      return M;
  State.emplace_back(P, Moments{std::vector<double>(P->Value.size(), 0.0),
                                std::vector<double>(P->Value.size(), 0.0)});
  return State.back().second;
}

std::vector<double> Adam::exportMoments(const std::vector<Param *> &Params) {
  std::vector<double> Blob;
  for (const Param *P : Params) {
    const Moments &Mom = momentsFor(P);
    Blob.insert(Blob.end(), Mom.M.begin(), Mom.M.end());
    Blob.insert(Blob.end(), Mom.V.begin(), Mom.V.end());
  }
  return Blob;
}

bool Adam::importMoments(const std::vector<Param *> &Params,
                         const std::vector<double> &Blob, long long Steps) {
  size_t Total = 0;
  for (const Param *P : Params)
    Total += 2 * P->Value.size();
  if (Blob.size() != Total)
    return false;
  size_t Offset = 0;
  for (const Param *P : Params) {
    Moments &Mom = momentsFor(P);
    const size_t N = P->Value.size();
    Mom.M.assign(Blob.begin() + Offset, Blob.begin() + Offset + N);
    Mom.V.assign(Blob.begin() + Offset + N, Blob.begin() + Offset + 2 * N);
    Offset += 2 * N;
  }
  StepCount = Steps;
  return true;
}

void Adam::step(const std::vector<Param *> &Params, ThreadPool *Pool) {
  ++StepCount;
  const double BiasCorrection1 =
      1.0 - std::pow(Beta1, static_cast<double>(StepCount));
  const double BiasCorrection2 =
      1.0 - std::pow(Beta2, static_cast<double>(StepCount));
  // Resolve every parameter's moments before any update runs: a first
  // lookup grows State, which must not happen under the pool.
  for (const Param *P : Params)
    momentsFor(P);
  StepMoments.clear();
  for (const Param *P : Params)
    StepMoments.push_back(&momentsFor(P));

  forEachElementRange(Params, Pool, [&](size_t P, size_t Begin, size_t End) {
    double *Value = Params[P]->Value.raw().data();
    const double *Grad = Params[P]->Grad.raw().data();
    double *M = StepMoments[P]->M.data();
    double *V = StepMoments[P]->V.data();
    for (size_t I = Begin; I < End; ++I) {
      const double G = Grad[I];
      M[I] = Beta1 * M[I] + (1.0 - Beta1) * G;
      V[I] = Beta2 * V[I] + (1.0 - Beta2) * G * G;
      const double MHat = M[I] / BiasCorrection1;
      const double VHat = V[I] / BiasCorrection2;
      Value[I] -= LearningRate * MHat / (std::sqrt(VHat) + Epsilon);
    }
  });
}
