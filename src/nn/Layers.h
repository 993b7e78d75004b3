//===- nn/Layers.h - NN layers and the MLP ----------------------*- C++ -*-===//
//
// Part of the NeuroVectorizer reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Linear and activation layers plus the fully-connected network (FCNN)
/// used by the paper's agent ("a 64x64 fully connected neural network",
/// §4). Layers cache their forward inputs and implement exact backward
/// passes; the test suite validates all gradients against finite
/// differences.
///
/// Two forward surfaces exist:
///  - the in-place API (forwardInto/backwardInto) writes into caller-owned
///    buffers through the blocked kernels in nn/Kernels.h, fuses bias and
///    activation into the GEMM epilogue, and performs no per-call heap
///    allocation once buffers are warm — this is the serving/training hot
///    path;
///  - the legacy allocating API (forward/backward) remains as a thin
///    wrapper for tests and small tools.
///
//===----------------------------------------------------------------------===//

#ifndef NV_NN_LAYERS_H
#define NV_NN_LAYERS_H

#include "nn/Kernels.h"
#include "nn/Matrix.h"
#include "nn/Workspace.h"

#include <memory>
#include <vector>

namespace nv {

class ThreadPool;

/// A learnable parameter with its gradient accumulator.
struct Param {
  Matrix Value;
  Matrix Grad;

  Param() = default;
  Param(int Rows, int Cols) : Value(Rows, Cols), Grad(Rows, Cols) {}

  void zeroGrad() { Grad.zero(); }
};

/// Affine layer: Y = act(X * W + b) with the activation fused into the
/// GEMM epilogue (Identity for a pure affine layer).
class LinearLayer {
public:
  LinearLayer(int In, int Out, RNG &Rng);

  /// In-place forward: writes act(X * W + b) into \p Y (resized; must not
  /// alias X). Allocation-free once warm. \p CacheInput copies X for a
  /// later backward(); inference paths pass false and skip the copy (the
  /// next backward then requires a cached forward first).
  void forwardInto(const Matrix &X, Matrix &Y,
                   Activation Fused = Activation::Identity,
                   ThreadPool *Pool = nullptr, bool CacheInput = true);

  /// In-place backward for the affine part only (a fused activation's
  /// derivative is the caller's job — MLP applies it from its saved
  /// activations before calling this). Accumulates W.Grad / B.Grad and
  /// writes dLoss/dX into \p dX (resized; must not alias dY).
  void backwardInto(const Matrix &dY, Matrix &dX, ThreadPool *Pool = nullptr);

  std::vector<Param *> params() { return {&W, &B}; }
  int inputSize() const { return W.Value.rows(); }
  int outputSize() const { return W.Value.cols(); }

  Param W; ///< (In x Out)
  Param B; ///< (1 x Out)

private:
  Matrix CachedX;
};

/// Supported activations live in nn/Kernels.h (enum class Activation) so
/// the fused GEMM epilogue can share them.

/// Element-wise activation layer (legacy standalone form; the MLP fuses
/// activations into its linear layers instead).
class ActivationLayer {
public:
  explicit ActivationLayer(Activation Kind) : Kind(Kind) {}

  Matrix forward(const Matrix &X);
  Matrix backward(const Matrix &dY);

private:
  Activation Kind;
  Matrix CachedY; ///< Activations (enough to compute both derivatives).
};

/// Fully connected network: Linear -> act -> ... -> Linear (no activation
/// after the last layer by default, so heads can attach raw logits/values;
/// forwardInto can fuse one onto the last layer for trunk-style use).
class MLP {
public:
  /// \p Sizes = {in, hidden..., out}; e.g. {340, 64, 64} gives the paper's
  /// 64x64 trunk over a 340-dim code2vec embedding.
  MLP(const std::vector<int> &Sizes, Activation Act, RNG &Rng);

  /// In-place forward through the fused kernels: writes the final layer's
  /// output into \p Out (resized; must not alias X). Hidden activations
  /// stay in the internal workspace for backward. \p ActivateLast applies
  /// the configured activation to the last layer too (the policy trunk
  /// wants bounded features; backward for that fused last activation is
  /// the caller's job, matching the legacy forward()+tanh pattern).
  /// \p ForBackward = false skips the per-layer input caching — the
  /// inference mode; backward() is only valid after a ForBackward pass.
  void forwardInto(const Matrix &X, Matrix &Out, ThreadPool *Pool = nullptr,
                   bool ActivateLast = false, bool ForBackward = true);

  Matrix forward(const Matrix &X);
  /// Backpropagates the last ForBackward forward; the layers' GEMMs fan
  /// out across \p Pool when given (bit-identical at any pool size).
  Matrix backward(const Matrix &dY, ThreadPool *Pool = nullptr);

  std::vector<Param *> params();
  int inputSize() const { return Linears.front()->inputSize(); }
  int outputSize() const { return Linears.back()->outputSize(); }

private:
  Activation Act;
  std::vector<std::unique_ptr<LinearLayer>> Linears;
  /// Activated hidden outputs from the last forward, one per hidden layer
  /// (workspace slots 0..L-2); backward reads them for the activation
  /// derivative.
  Workspace Hidden;
  std::vector<Matrix *> HiddenOut;
  Workspace BackScratch; ///< Ping-pong buffers for backward.
};

} // namespace nv

#endif // NV_NN_LAYERS_H
