//===- tests/NNTest.cpp - Matrix/layers/optimizer/distribution tests ------===//

#include "nn/Distributions.h"
#include "nn/Kernels.h"
#include "nn/Layers.h"
#include "nn/Matrix.h"
#include "nn/Optimizer.h"
#include "nn/Workspace.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>

using namespace nv;

namespace {

Matrix randomMatrix(int Rows, int Cols, RNG &Rng) {
  Matrix M(Rows, Cols);
  M.initGaussian(Rng, 1.0);
  return M;
}

void expectNear(const Matrix &A, const Matrix &B, double Tol,
                const char *What) {
  ASSERT_EQ(A.rows(), B.rows()) << What;
  ASSERT_EQ(A.cols(), B.cols()) << What;
  for (int I = 0; I < A.rows(); ++I)
    for (int J = 0; J < A.cols(); ++J)
      EXPECT_NEAR(A.at(I, J), B.at(I, J), Tol)
          << What << " at (" << I << "," << J << ")";
}

TEST(Matrix, BasicOps) {
  Matrix A(2, 3, 1.0);
  Matrix B(2, 3, 2.0);
  A += B;
  EXPECT_DOUBLE_EQ(A.at(1, 2), 3.0);
  A *= 2.0;
  EXPECT_DOUBLE_EQ(A.at(0, 0), 6.0);
  A -= B;
  EXPECT_DOUBLE_EQ(A.at(0, 1), 4.0);
}

TEST(Matrix, Matmul) {
  Matrix A(2, 3);
  Matrix B(3, 2);
  int K = 0;
  for (int I = 0; I < 2; ++I)
    for (int J = 0; J < 3; ++J)
      A.at(I, J) = ++K;
  K = 0;
  for (int I = 0; I < 3; ++I)
    for (int J = 0; J < 2; ++J)
      B.at(I, J) = ++K;
  Matrix C = matmul(A, B);
  EXPECT_DOUBLE_EQ(C.at(0, 0), 22.0);
  EXPECT_DOUBLE_EQ(C.at(0, 1), 28.0);
  EXPECT_DOUBLE_EQ(C.at(1, 0), 49.0);
  EXPECT_DOUBLE_EQ(C.at(1, 1), 64.0);
}

TEST(Matrix, TransposedMultiplies) {
  RNG R(5);
  Matrix A(4, 3), B(4, 2), C(1, 3);
  A.initGaussian(R, 1.0);
  B.initGaussian(R, 1.0);
  C.initGaussian(R, 1.0);
  // A^T B == matmul of explicit transpose.
  Matrix TA = matmulTA(A, B);
  for (int I = 0; I < 3; ++I)
    for (int J = 0; J < 2; ++J) {
      double Want = 0;
      for (int K = 0; K < 4; ++K)
        Want += A.at(K, I) * B.at(K, J);
      EXPECT_NEAR(TA.at(I, J), Want, 1e-12);
    }
  // A C^T.
  Matrix TB = matmulTB(A, C); // (4x3) * (1x3)^T = 4x1.
  for (int I = 0; I < 4; ++I) {
    double Want = 0;
    for (int K = 0; K < 3; ++K)
      Want += A.at(I, K) * C.at(0, K);
    EXPECT_NEAR(TB.at(I, 0), Want, 1e-12);
  }
}

TEST(Matrix, SumRowsAndBroadcast) {
  Matrix A(2, 2);
  A.at(0, 0) = 1;
  A.at(0, 1) = 2;
  A.at(1, 0) = 3;
  A.at(1, 1) = 4;
  Matrix S = sumRows(A);
  EXPECT_DOUBLE_EQ(S.at(0, 0), 4.0);
  EXPECT_DOUBLE_EQ(S.at(0, 1), 6.0);
  Matrix B = addRowBroadcast(A, S);
  EXPECT_DOUBLE_EQ(B.at(1, 0), 7.0);
}

TEST(Kernels, GemmMatchesNaiveReference) {
  RNG Rng(31);
  // Shapes straddle the MR=4 row-panel and NB=64 column-block boundaries
  // on purpose (exact, one-under, one-over in each dimension).
  const int Shapes[][3] = {{1, 1, 1},    {3, 5, 2},    {4, 48, 63},
                           {5, 7, 65},   {17, 40, 64}, {64, 64, 64},
                           {130, 33, 97}};
  for (const auto &S : Shapes) {
    const int M = S[0], K = S[1], N = S[2];
    Matrix A = randomMatrix(M, K, Rng);
    Matrix B = randomMatrix(K, N, Rng);
    Matrix C;
    gemmInto(C, A, B);
    expectNear(C, matmul(A, B), 1e-12, "gemmInto");

    Matrix TA = randomMatrix(K, M, Rng); // (R x M) with R = K.
    Matrix TB = randomMatrix(K, N, Rng);
    Matrix CTA;
    gemmTAInto(CTA, TA, TB);
    expectNear(CTA, matmulTA(TA, TB), 1e-12, "gemmTAInto");

    Matrix BT = randomMatrix(N, K, Rng);
    Matrix CTB;
    gemmTBInto(CTB, A, BT);
    expectNear(CTB, matmulTB(A, BT), 1e-12, "gemmTBInto");
  }
}

TEST(Kernels, GemmTAAccumulates) {
  RNG Rng(32);
  Matrix A = randomMatrix(9, 6, Rng), B = randomMatrix(9, 5, Rng);
  Matrix C(6, 5, 1.5);
  gemmTAInto(C, A, B, /*Accumulate=*/true);
  Matrix Want = matmulTA(A, B);
  for (int I = 0; I < 6; ++I)
    for (int J = 0; J < 5; ++J)
      EXPECT_NEAR(C.at(I, J), Want.at(I, J) + 1.5, 1e-12);
}

TEST(Kernels, FusedBiasActivationMatchesSeparateOps) {
  RNG Rng(33);
  Matrix X = randomMatrix(10, 13, Rng);
  Matrix W = randomMatrix(13, 50, Rng);
  Matrix Bias = randomMatrix(1, 50, Rng);

  Matrix Want = addRowBroadcast(matmul(X, W), Bias);
  Matrix Fused;
  gemmInto(Fused, X, W, &Bias, Activation::Identity);
  expectNear(Fused, Want, 1e-12, "fused bias");

  applyActivation(Want, Activation::Tanh);
  gemmInto(Fused, X, W, &Bias, Activation::Tanh);
  expectNear(Fused, Want, 1e-12, "fused bias+tanh");

  Matrix WantRelu = addRowBroadcast(matmul(X, W), Bias);
  applyActivation(WantRelu, Activation::ReLU);
  gemmInto(Fused, X, W, &Bias, Activation::ReLU);
  expectNear(Fused, WantRelu, 1e-12, "fused bias+relu");
}

TEST(Kernels, BitIdenticalAcrossPoolSizes) {
  // The determinism contract of the blocked kernels: every output
  // element's reduction order is fixed, so thread count never changes a
  // single bit. (PR 2's training determinism guarantee rests on this.)
  RNG Rng(34);
  Matrix A = randomMatrix(101, 37, Rng);
  Matrix B = randomMatrix(37, 53, Rng);
  Matrix Bias = randomMatrix(1, 53, Rng);
  // gemmTA computes A^T * B: the operands must agree on ROWS (the
  // contraction dimension), unlike plain gemm's cols-vs-rows.
  Matrix BTall = randomMatrix(101, 53, Rng);

  Matrix Serial;
  gemmInto(Serial, A, B, &Bias, Activation::Tanh, nullptr);
  for (int Threads : {1, 2, 4}) {
    ThreadPool Pool(Threads);
    Matrix Pooled;
    gemmInto(Pooled, A, B, &Bias, Activation::Tanh, &Pool);
    EXPECT_EQ(Serial.raw(), Pooled.raw()) << Threads << " threads";

    Matrix TASerial, TAPooled;
    gemmTAInto(TASerial, A, BTall);
    gemmTAInto(TAPooled, A, BTall, /*Accumulate=*/false, &Pool);
    EXPECT_EQ(TASerial.raw(), TAPooled.raw()) << Threads << " threads";

    Matrix BT = randomMatrix(53, 37, Rng);
    Matrix TBSerial, TBPooled;
    gemmTBInto(TBSerial, A, BT);
    gemmTBInto(TBPooled, A, BT, &Pool);
    EXPECT_EQ(TBSerial.raw(), TBPooled.raw()) << Threads << " threads";
  }
}

TEST(Kernels, WorkspaceReusesSlots) {
  Workspace WS;
  Matrix &A = WS.get(0, 8, 8);
  const double *Data = A.rowPtr(0);
  Matrix &B = WS.get(0, 4, 4); // Smaller shape: same allocation.
  EXPECT_EQ(&A, &B);
  EXPECT_EQ(B.rowPtr(0), Data);
  Matrix &C = WS.get(7, 2, 2); // Growing the table keeps references valid.
  (void)C;
  EXPECT_EQ(WS.get(0, 4, 4).rowPtr(0), Data);
}

TEST(Layers, ForwardIntoMatchesLegacyForward) {
  RNG R1(41), R2(41);
  MLP NetA({6, 9, 5, 3}, Activation::Tanh, R1);
  MLP NetB({6, 9, 5, 3}, Activation::Tanh, R2); // Same init stream.
  RNG RX(5);
  Matrix X = randomMatrix(7, 6, RX);

  Matrix Legacy = NetA.forward(X);
  Matrix InPlace;
  NetB.forwardInto(X, InPlace);
  EXPECT_EQ(Legacy.raw(), InPlace.raw());

  // Pooled forward is bit-identical too, and so is a repeat on the warm
  // buffers.
  ThreadPool Pool(2);
  Matrix Pooled;
  NetB.forwardInto(X, Pooled, &Pool);
  EXPECT_EQ(Legacy.raw(), Pooled.raw());
  NetB.forwardInto(X, Pooled, &Pool);
  EXPECT_EQ(Legacy.raw(), Pooled.raw());
}

/// Finite-difference gradient check of an MLP through a linear loss.
TEST(Layers, MLPGradientsMatchFiniteDifferences) {
  RNG R(11);
  MLP Net({5, 7, 4}, Activation::Tanh, R);
  Matrix X(3, 5);
  X.initGaussian(R, 1.0);
  Matrix G(3, 4);
  G.initGaussian(R, 1.0);

  auto LossOf = [&]() {
    Matrix Y = Net.forward(X);
    double L = 0;
    for (size_t I = 0; I < Y.size(); ++I)
      L += Y.raw()[I] * G.raw()[I];
    return L;
  };

  for (Param *P : Net.params())
    P->zeroGrad();
  (void)Net.forward(X);
  Matrix dX = Net.backward(G);

  const double Eps = 1e-6;
  double MaxRel = 0.0;
  for (Param *P : Net.params()) {
    for (size_t I = 0; I < P->Value.size(); I += 3) {
      const double Old = P->Value.raw()[I];
      P->Value.raw()[I] = Old + Eps;
      const double L1 = LossOf();
      P->Value.raw()[I] = Old - Eps;
      const double L2 = LossOf();
      P->Value.raw()[I] = Old;
      const double Num = (L1 - L2) / (2 * Eps);
      const double Ana = P->Grad.raw()[I];
      if (std::fabs(Num) + std::fabs(Ana) > 1e-10)
        MaxRel = std::max(MaxRel, std::fabs(Num - Ana) /
                                      (std::fabs(Num) + std::fabs(Ana)));
    }
  }
  EXPECT_LT(MaxRel, 1e-6);

  // Input gradient too.
  for (int Row = 0; Row < 3; ++Row)
    for (int Col = 0; Col < 5; ++Col) {
      const double Old = X.at(Row, Col);
      X.at(Row, Col) = Old + Eps;
      const double L1 = LossOf();
      X.at(Row, Col) = Old - Eps;
      const double L2 = LossOf();
      X.at(Row, Col) = Old;
      EXPECT_NEAR(dX.at(Row, Col), (L1 - L2) / (2 * Eps), 1e-5);
    }
}

TEST(Layers, ReLUBlocksNegativeGradient) {
  RNG R(3);
  ActivationLayer A(Activation::ReLU);
  Matrix X(1, 2);
  X.at(0, 0) = -1.0;
  X.at(0, 1) = 2.0;
  Matrix Y = A.forward(X);
  EXPECT_DOUBLE_EQ(Y.at(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(Y.at(0, 1), 2.0);
  Matrix G(1, 2, 1.0);
  Matrix dX = A.backward(G);
  EXPECT_DOUBLE_EQ(dX.at(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(dX.at(0, 1), 1.0);
}

TEST(Optimizer, SGDMinimizesQuadratic) {
  Param P(1, 1);
  P.Value.at(0, 0) = 5.0;
  SGD Opt(0.1);
  for (int I = 0; I < 200; ++I) {
    P.zeroGrad();
    P.Grad.at(0, 0) = 2.0 * P.Value.at(0, 0); // d/dx x^2.
    Opt.step({&P});
  }
  EXPECT_NEAR(P.Value.at(0, 0), 0.0, 1e-6);
}

TEST(Optimizer, AdamMinimizesQuadratic) {
  Param P(1, 2);
  P.Value.at(0, 0) = 4.0;
  P.Value.at(0, 1) = -3.0;
  Adam Opt(0.1);
  for (int I = 0; I < 500; ++I) {
    P.zeroGrad();
    P.Grad.at(0, 0) = 2.0 * (P.Value.at(0, 0) - 1.0);
    P.Grad.at(0, 1) = 2.0 * (P.Value.at(0, 1) + 2.0);
    Opt.step({&P});
  }
  EXPECT_NEAR(P.Value.at(0, 0), 1.0, 1e-3);
  EXPECT_NEAR(P.Value.at(0, 1), -2.0, 1e-3);
}

TEST(Optimizer, GradClipScalesDown) {
  Param P(1, 2);
  P.Grad.at(0, 0) = 3.0;
  P.Grad.at(0, 1) = 4.0; // Norm 5.
  const double Norm = clipGradNorm({&P}, 1.0);
  EXPECT_NEAR(Norm, 5.0, 1e-12);
  EXPECT_NEAR(P.Grad.at(0, 0), 0.6, 1e-12);
  EXPECT_NEAR(P.Grad.at(0, 1), 0.8, 1e-12);
}

TEST(Optimizer, ClipAndAdamBitIdenticalAtAnyPoolSize) {
  // clipGradNorm and Adam::step split their element-wise work across the
  // pool; values, gradients, moments and the returned norms must equal the
  // plain serial loops bit for bit. Params span several element ranges
  // (a 4096 x 16 table) and none; some steps clip and some do not.
  const std::vector<std::pair<int, int>> Shapes = {
      {4096, 16}, {300, 64}, {48, 64}, {1, 64}, {1, 1}};
  auto makeParams = [&] {
    std::vector<std::unique_ptr<Param>> Params;
    RNG Init(41);
    for (const auto &[Rows, Cols] : Shapes) {
      Params.push_back(std::make_unique<Param>(Rows, Cols));
      Params.back()->Value.initGaussian(Init, 1.0);
    }
    return Params;
  };
  auto setGrads = [](std::vector<Param *> &Params, int Step) {
    RNG Fill(50 + Step);
    // Norms near 200 clip at MaxNorm 40; near 2 they do not.
    const double Std = Step % 2 == 0 ? 0.5 : 0.005;
    for (Param *P : Params)
      P->Grad.initGaussian(Fill, Std);
  };
  const double MaxNorm = 40.0, LR = 1e-3, B1 = 0.9, B2 = 0.999, Eps = 1e-8;
  constexpr int Steps = 4;

  // Reference: the serial loops.
  auto RefOwned = makeParams();
  std::vector<Param *> Ref;
  for (auto &P : RefOwned)
    Ref.push_back(P.get());
  std::vector<std::vector<double>> M, V;
  for (Param *P : Ref) {
    M.emplace_back(P->Value.size(), 0.0);
    V.emplace_back(P->Value.size(), 0.0);
  }
  std::vector<double> RefNorms;
  for (int Step = 1; Step <= Steps; ++Step) {
    setGrads(Ref, Step);
    double Total = 0.0;
    for (const Param *P : Ref)
      Total += P->Grad.squaredNorm();
    const double Norm = std::sqrt(Total);
    RefNorms.push_back(Norm);
    if (Norm > MaxNorm)
      for (Param *P : Ref)
        P->Grad *= MaxNorm / Norm;
    const double BC1 = 1.0 - std::pow(B1, static_cast<double>(Step));
    const double BC2 = 1.0 - std::pow(B2, static_cast<double>(Step));
    for (size_t K = 0; K < Ref.size(); ++K)
      for (size_t I = 0; I < Ref[K]->Value.size(); ++I) {
        const double G = Ref[K]->Grad.raw()[I];
        M[K][I] = B1 * M[K][I] + (1.0 - B1) * G;
        V[K][I] = B2 * V[K][I] + (1.0 - B2) * G * G;
        const double MHat = M[K][I] / BC1;
        const double VHat = V[K][I] / BC2;
        Ref[K]->Value.raw()[I] -= LR * MHat / (std::sqrt(VHat) + Eps);
      }
  }
  std::vector<double> RefMoments;
  for (size_t K = 0; K < Ref.size(); ++K) {
    RefMoments.insert(RefMoments.end(), M[K].begin(), M[K].end());
    RefMoments.insert(RefMoments.end(), V[K].begin(), V[K].end());
  }

  for (int Threads : {0, 1, 4}) {
    std::unique_ptr<ThreadPool> Pool;
    if (Threads > 0)
      Pool = std::make_unique<ThreadPool>(Threads);
    auto Owned = makeParams();
    std::vector<Param *> Params;
    for (auto &P : Owned)
      Params.push_back(P.get());
    Adam Opt(LR, B1, B2, Eps);
    for (int Step = 1; Step <= Steps; ++Step) {
      setGrads(Params, Step);
      EXPECT_EQ(clipGradNorm(Params, MaxNorm, Pool.get()),
                RefNorms[Step - 1])
          << "norm at step " << Step << ", " << Threads << " threads";
      Opt.step(Params, Pool.get());
    }
    for (size_t K = 0; K < Params.size(); ++K) {
      EXPECT_EQ(Params[K]->Value.raw(), Ref[K]->Value.raw())
          << "param " << K << ", " << Threads << " threads";
      EXPECT_EQ(Params[K]->Grad.raw(), Ref[K]->Grad.raw())
          << "clipped gradient " << K << ", " << Threads << " threads";
    }
    EXPECT_EQ(Opt.exportMoments(Params), RefMoments)
        << Threads << " threads";
  }
}

TEST(Distributions, SoftmaxNormalizes) {
  std::vector<double> Probs = softmax({1.0, 2.0, 3.0});
  double Sum = 0;
  for (double P : Probs)
    Sum += P;
  EXPECT_NEAR(Sum, 1.0, 1e-12);
  EXPECT_GT(Probs[2], Probs[1]);
  EXPECT_GT(Probs[1], Probs[0]);
}

TEST(Distributions, SoftmaxStableForHugeLogits) {
  std::vector<double> Probs = softmax({1000.0, 1001.0});
  EXPECT_NEAR(Probs[0] + Probs[1], 1.0, 1e-12);
  EXPECT_FALSE(std::isnan(Probs[0]));
}

TEST(Distributions, LogSoftmaxMatchesSoftmax) {
  std::vector<double> Logits = {0.3, -1.2, 2.0, 0.0};
  std::vector<double> Probs = softmax(Logits);
  for (int I = 0; I < 4; ++I)
    EXPECT_NEAR(logSoftmaxAt(Logits, I), std::log(Probs[I]), 1e-12);
}

TEST(Distributions, EntropyMaxAtUniform) {
  EXPECT_NEAR(softmaxEntropy({1.0, 1.0, 1.0, 1.0}), std::log(4.0), 1e-12);
  EXPECT_LT(softmaxEntropy({10.0, 0.0, 0.0, 0.0}), 0.1);
}

TEST(Distributions, CategoricalSamplingFollowsProbs) {
  RNG R(19);
  std::vector<double> Logits = {0.0, std::log(3.0)}; // probs 1/4, 3/4.
  int Ones = 0;
  for (int I = 0; I < 8000; ++I)
    Ones += sampleCategorical(Logits, R);
  EXPECT_NEAR(Ones / 8000.0, 0.75, 0.03);
}

TEST(Distributions, CategoricalGradIsOneHotMinusProbs) {
  std::vector<double> Logits = {0.5, -0.5, 1.5};
  std::vector<double> Probs = softmax(Logits);
  std::vector<double> Grad = categoricalLogProbGrad(Logits, 1);
  EXPECT_NEAR(Grad[0], -Probs[0], 1e-12);
  EXPECT_NEAR(Grad[1], 1.0 - Probs[1], 1e-12);
  EXPECT_NEAR(Grad[2], -Probs[2], 1e-12);
}

TEST(Distributions, GaussianLogProbAndGrad) {
  const double LP = gaussianLogProb(0.0, 0.0, 0.0);
  EXPECT_NEAR(LP, -0.5 * std::log(2.0 * M_PI), 1e-12);
  // Finite-difference check of the gradients.
  const double X = 0.7, Mean = 0.2, LogStd = -0.3, Eps = 1e-6;
  double dMean, dLogStd;
  gaussianLogProbGrad(X, Mean, LogStd, dMean, dLogStd);
  EXPECT_NEAR(dMean,
              (gaussianLogProb(X, Mean + Eps, LogStd) -
               gaussianLogProb(X, Mean - Eps, LogStd)) /
                  (2 * Eps),
              1e-6);
  EXPECT_NEAR(dLogStd,
              (gaussianLogProb(X, Mean, LogStd + Eps) -
               gaussianLogProb(X, Mean, LogStd - Eps)) /
                  (2 * Eps),
              1e-6);
}

} // namespace

//===----------------------------------------------------------------------===//
// Kernel ISA dispatch + cross-tier equivalence (docs/kernels.md contract)
//===----------------------------------------------------------------------===//

namespace {

/// Restores the dispatched tier on scope exit so ISA-switching tests
/// cannot leak a clamped tier into later tests.
struct IsaGuard {
  KernelIsa Saved;
  IsaGuard() : Saved(kernelIsa()) {}
  ~IsaGuard() { setKernelIsa(Saved); }
};

/// Every tier this binary + machine can actually run (always >= {Scalar}).
std::vector<KernelIsa> availableIsas() {
  std::vector<KernelIsa> Tiers = {KernelIsa::Scalar};
  if (detectKernelIsa() >= KernelIsa::Avx2)
    Tiers.push_back(KernelIsa::Avx2);
  if (detectKernelIsa() >= KernelIsa::Avx512)
    Tiers.push_back(KernelIsa::Avx512);
  return Tiers;
}

} // namespace

TEST(KernelIsa, SetClampsToDetected) {
  IsaGuard Guard;
  // Requests above the detected tier clamp down; Scalar always applies.
  EXPECT_LE(setKernelIsa(KernelIsa::Avx512), detectKernelIsa());
  EXPECT_EQ(setKernelIsa(KernelIsa::Scalar), KernelIsa::Scalar);
  EXPECT_EQ(kernelIsa(), KernelIsa::Scalar);
  EXPECT_STREQ(kernelIsaName(KernelIsa::Scalar), "scalar");
  EXPECT_STREQ(kernelIsaName(KernelIsa::Avx2), "avx2");
  EXPECT_STREQ(kernelIsaName(KernelIsa::Avx512), "avx512");
}

TEST(KernelIsa, GemmBitIdenticalAcrossTiers) {
  // The strong half of the contract: gemmInto and gemmTAInto promise
  // bit-identical results on every tier (each output element is one
  // ascending-k FMA chain regardless of vector width). The shapes cross
  // the 4/8/16-column vector boundaries and their scalar tails.
  IsaGuard Guard;
  RNG Rng(71);
  const int Shapes[][3] = {{1, 1, 1},   {3, 5, 2},    {4, 32, 15},
                           {2, 8, 9},   {5, 7, 65},   {17, 40, 64},
                           {64, 64, 64}, {130, 33, 97}};
  const Activation Acts[] = {Activation::Identity, Activation::ReLU,
                             Activation::Tanh};
  for (const auto &S : Shapes) {
    const int M = S[0], K = S[1], N = S[2];
    Matrix A = randomMatrix(M, K, Rng);
    Matrix B = randomMatrix(K, N, Rng);
    Matrix Bias = randomMatrix(1, N, Rng);
    Matrix TA = randomMatrix(K, M, Rng);

    for (Activation Act : Acts) {
      setKernelIsa(KernelIsa::Scalar);
      Matrix Ref;
      gemmInto(Ref, A, B, &Bias, Act);
      for (KernelIsa Isa : availableIsas()) {
        setKernelIsa(Isa);
        Matrix C;
        gemmInto(C, A, B, &Bias, Act);
        EXPECT_EQ(Ref.raw(), C.raw())
            << kernelIsaName(Isa) << " " << M << "x" << K << "x" << N;
      }
    }

    setKernelIsa(KernelIsa::Scalar);
    Matrix TARef, TAAccRef(M, N, 0.25);
    gemmTAInto(TARef, TA, B);
    gemmTAInto(TAAccRef, TA, B, /*Accumulate=*/true);
    for (KernelIsa Isa : availableIsas()) {
      setKernelIsa(Isa);
      Matrix C, CAcc(M, N, 0.25);
      gemmTAInto(C, TA, B);
      gemmTAInto(CAcc, TA, B, /*Accumulate=*/true);
      EXPECT_EQ(TARef.raw(), C.raw()) << kernelIsaName(Isa);
      EXPECT_EQ(TAAccRef.raw(), CAcc.raw()) << kernelIsaName(Isa);
    }
  }
}

TEST(KernelIsa, GemmTBDeterministicPerTier) {
  // The weak half: gemmTBInto vectorizes over k with per-lane partial
  // sums, so tiers agree only within rounding — but each tier is
  // deterministic and pool-size-invariant on its own.
  IsaGuard Guard;
  RNG Rng(72);
  Matrix A = randomMatrix(23, 37, Rng);
  Matrix B = randomMatrix(19, 37, Rng);

  setKernelIsa(KernelIsa::Scalar);
  Matrix Ref;
  gemmTBInto(Ref, A, B);
  for (KernelIsa Isa : availableIsas()) {
    setKernelIsa(Isa);
    Matrix C1, C2;
    gemmTBInto(C1, A, B);
    gemmTBInto(C2, A, B);
    EXPECT_EQ(C1.raw(), C2.raw()) << kernelIsaName(Isa) << " reruns";
    ThreadPool Pool(3);
    Matrix Pooled;
    gemmTBInto(Pooled, A, B, &Pool);
    EXPECT_EQ(C1.raw(), Pooled.raw()) << kernelIsaName(Isa) << " pooled";
    expectNear(Ref, C1, 1e-11, kernelIsaName(Isa));
  }
}

TEST(KernelIsa, EnvOverrideNamesParse) {
  // setKernelIsa mirrors the NV_KERNEL_ISA parsing (same clamp); the env
  // knob itself is read once at startup, so here we only pin the clamp
  // semantics the knob relies on.
  IsaGuard Guard;
  const KernelIsa Detected = detectKernelIsa();
  EXPECT_EQ(setKernelIsa(Detected), Detected);
  EXPECT_EQ(setKernelIsa(KernelIsa::Avx512),
            std::min(KernelIsa::Avx512, Detected));
}
