//===- embedding/Code2Vec.h - Attention code embedding ----------*- C++ -*-===//
//
// Part of the NeuroVectorizer reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The code embedding generator (paper §3.1): a code2vec-style network
/// that maps a bag of AST path contexts to a single fixed-length code
/// vector. Architecture, following Alon et al.:
///
///   x_i   = [tokenEmb[src]; pathEmb[path]; tokenEmb[dst]]
///   c_i   = tanh(W x_i + b)            (combined context vector)
///   alpha = softmax(c_i . a)           (attention over contexts)
///   v     = sum_i alpha_i c_i          (code vector)
///
/// Unlike the original (pretrained on Java), this encoder is trained
/// *end-to-end with the RL agent*: PPO's gradient w.r.t. the state vector
/// flows through the attention into the embedding tables.
///
/// encodeBatchInto is the hot path: it runs the affine+tanh step through
/// the fused blocked kernels (nn/Kernels.h), reuses the per-sample caches
/// across calls (zero steady-state allocation), and can spread samples of
/// a batch across a ThreadPool — deterministically, since samples are
/// independent and every reduction order is fixed.
///
/// The paper uses a 340-dimensional code vector; the default here is 64
/// so the bench harnesses train in seconds (configurable; the hyper-
/// parameter sweep bench exercises other sizes).
///
//===----------------------------------------------------------------------===//

#ifndef NV_EMBEDDING_CODE2VEC_H
#define NV_EMBEDDING_CODE2VEC_H

#include "embedding/PathContext.h"
#include "nn/Layers.h"

#include <vector>

namespace nv {

class ThreadPool;

/// Code2Vec hyperparameters.
struct Code2VecConfig {
  PathContextConfig Paths;
  int TokenDim = 16; ///< Token embedding width.
  int PathDim = 16;  ///< Path embedding width.
  int CodeDim = 64;  ///< Output code vector width (paper: 340).
};

/// The attention encoder.
class Code2Vec {
public:
  Code2Vec(const Code2VecConfig &Config, RNG &Rng);

  const Code2VecConfig &config() const { return Config; }
  int codeDim() const { return Config.CodeDim; }

  /// Encodes a batch of context bags into \p V (resized to batch x
  /// CodeDim) and caches everything needed for backward(). Allocation-free
  /// once warm; samples fan out across \p Pool when provided (results are
  /// bit-identical with or without a pool, at any pool size).
  void encodeBatchInto(const std::vector<std::vector<PathContext>> &Batch,
                       Matrix &V, ThreadPool *Pool = nullptr);

  /// Serving-side encode: consumes borrowed id-triple spans directly (no
  /// per-bag copy into the sample caches) and produces bit-identical code
  /// vectors to encodeBatchInto on the same bags. Forward-only: it does
  /// not retain the contexts, so backward() is invalid until the next
  /// encodeBatchInto (asserted).
  void encodeSpansInto(const std::vector<ContextSpan> &Batch, Matrix &V,
                       ThreadPool *Pool = nullptr);

  /// Allocating convenience wrapper around encodeBatchInto.
  Matrix encodeBatch(const std::vector<std::vector<PathContext>> &Batch);

  /// Convenience single-snippet encode (1 x CodeDim).
  Matrix encode(const std::vector<PathContext> &Contexts);

  /// Accumulates parameter gradients for the last encodeBatch() given the
  /// loss gradient \p dV (batch x CodeDim).
  void backward(const Matrix &dV);

  std::vector<Param *> params();

private:
  Code2VecConfig Config;

  Param TokenEmb; ///< (TokenVocab x TokenDim)
  Param PathEmb;  ///< (PathVocab x PathDim)
  Param W;        ///< (2*TokenDim + PathDim) x CodeDim
  Param B;        ///< (1 x CodeDim)
  Param Attn;     ///< (1 x CodeDim)

  /// Cached forward state per batch row. Reused across batches: growing a
  /// vector member reuses its allocation whenever the new size fits.
  struct SampleCache {
    std::vector<PathContext> Contexts;
    Matrix X;     ///< (n x inDim) concatenated embeddings.
    Matrix C;     ///< (n x CodeDim) tanh context vectors.
    std::vector<double> Alpha; ///< Attention weights (n).
  };
  std::vector<SampleCache> Cache;
  bool BackwardReady = false; ///< Set by encodeBatchInto only.
  Matrix BackdC; ///< Backward scratch (n x CodeDim).
  Matrix BackdX; ///< Backward scratch (n x inDim).

  void encodeSample(SampleCache &SC, ContextSpan Contexts, double *VRow,
                    ThreadPool *Pool);
};

} // namespace nv

#endif // NV_EMBEDDING_CODE2VEC_H
