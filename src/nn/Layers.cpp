//===- nn/Layers.cpp - NN layers and the MLP -------------------------------===//

#include "nn/Layers.h"

#include <cassert>
#include <cmath>

using namespace nv;

LinearLayer::LinearLayer(int In, int Out, RNG &Rng)
    : W(In, Out), B(1, Out) {
  W.Value.initXavier(Rng);
  // Biases start at zero.
}

void LinearLayer::forwardInto(const Matrix &X, Matrix &Y, Activation Fused,
                              ThreadPool *Pool, bool CacheInput) {
  assert(X.cols() == W.Value.rows() && "input width mismatch");
  assert(&X != &Y && "forwardInto must not alias input and output");
  if (CacheInput)
    CachedX = X; // Copy-assign reuses CachedX's allocation once warm.
  gemmInto(Y, X, W.Value, &B.Value, Fused, Pool);
}

void LinearLayer::backwardInto(const Matrix &dY, Matrix &dX,
                               ThreadPool *Pool) {
  assert(dY.cols() == W.Value.cols() && "gradient width mismatch");
  assert(CachedX.rows() == dY.rows() && "forward/backward batch mismatch");
  assert(&dY != &dX && "backwardInto must not alias input and output");
  gemmTAInto(W.Grad, CachedX, dY, /*Accumulate=*/true, Pool);
  sumRowsInto(B.Grad, dY, /*Accumulate=*/true);
  gemmTBInto(dX, dY, W.Value, Pool);
}

Matrix ActivationLayer::forward(const Matrix &X) {
  Matrix Y = X;
  applyActivation(Y, Kind);
  CachedY = Y;
  return Y;
}

Matrix ActivationLayer::backward(const Matrix &dY) {
  assert(dY.rows() == CachedY.rows() && dY.cols() == CachedY.cols() &&
         "forward/backward shape mismatch");
  Matrix dX = dY;
  switch (Kind) {
  case Activation::Tanh:
    for (size_t I = 0; I < dX.size(); ++I) {
      const double Y = CachedY.raw()[I];
      dX.raw()[I] *= 1.0 - Y * Y;
    }
    break;
  case Activation::ReLU:
    for (size_t I = 0; I < dX.size(); ++I)
      if (CachedY.raw()[I] <= 0.0)
        dX.raw()[I] = 0.0;
    break;
  case Activation::Identity:
    break;
  }
  return dX;
}

MLP::MLP(const std::vector<int> &Sizes, Activation Act, RNG &Rng)
    : Act(Act) {
  assert(Sizes.size() >= 2 && "MLP needs at least input and output sizes");
  for (size_t I = 0; I + 1 < Sizes.size(); ++I)
    Linears.push_back(
        std::make_unique<LinearLayer>(Sizes[I], Sizes[I + 1], Rng));
  HiddenOut.assign(Linears.size() > 0 ? Linears.size() - 1 : 0, nullptr);
}

void MLP::forwardInto(const Matrix &X, Matrix &Out, ThreadPool *Pool,
                      bool ActivateLast, bool ForBackward) {
  assert(&X != &Out && "forwardInto must not alias input and output");
  const Matrix *Cur = &X;
  for (size_t I = 0; I + 1 < Linears.size(); ++I) {
    Matrix &H = Hidden.get(I, Cur->rows(), Linears[I]->outputSize());
    Linears[I]->forwardInto(*Cur, H, Act, Pool, ForBackward);
    HiddenOut[I] = &H;
    Cur = &H;
  }
  Linears.back()->forwardInto(*Cur, Out,
                              ActivateLast ? Act : Activation::Identity,
                              Pool, ForBackward);
}

Matrix MLP::forward(const Matrix &X) {
  Matrix Out;
  forwardInto(X, Out);
  return Out;
}

Matrix MLP::backward(const Matrix &dY, ThreadPool *Pool) {
  // Ping-pong between two scratch buffers; the hidden-activation
  // derivative is applied from the saved activated outputs before each
  // hidden layer's affine backward (the fused-forward counterpart of the
  // old standalone ActivationLayer::backward).
  const Matrix *Cur = &dY;
  for (size_t I = Linears.size(); I-- > 0;) {
    if (I + 1 < Linears.size()) {
      // Entering hidden layer I+1's input gradient; first undo layer I's
      // fused activation using its activated output.
      const Matrix &H = *HiddenOut[I];
      Matrix &Scaled = BackScratch.get(2, Cur->rows(), Cur->cols());
      const std::vector<double> &HRaw = H.raw();
      const std::vector<double> &CurRaw = Cur->raw();
      std::vector<double> &OutRaw = Scaled.raw();
      switch (Act) {
      case Activation::Tanh:
        for (size_t E = 0; E < OutRaw.size(); ++E)
          OutRaw[E] = CurRaw[E] * (1.0 - HRaw[E] * HRaw[E]);
        break;
      case Activation::ReLU:
        for (size_t E = 0; E < OutRaw.size(); ++E)
          OutRaw[E] = HRaw[E] > 0.0 ? CurRaw[E] : 0.0;
        break;
      case Activation::Identity:
        for (size_t E = 0; E < OutRaw.size(); ++E)
          OutRaw[E] = CurRaw[E];
        break;
      }
      Matrix &Next = BackScratch.get(I % 2, Scaled.rows(),
                                     Linears[I]->inputSize());
      Linears[I]->backwardInto(Scaled, Next, Pool);
      Cur = &Next;
    } else {
      Matrix &Next = BackScratch.get(I % 2, Cur->rows(),
                                     Linears[I]->inputSize());
      Linears[I]->backwardInto(*Cur, Next, Pool);
      Cur = &Next;
    }
  }
  return *Cur;
}

std::vector<Param *> MLP::params() {
  std::vector<Param *> All;
  for (auto &L : Linears)
    for (Param *P : L->params())
      All.push_back(P);
  return All;
}
