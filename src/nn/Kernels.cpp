//===- nn/Kernels.cpp - Kernel dispatch + scalar fallback tier -------------===//
//
// The public GEMM entry points resolve an ISA tier once (CPUID clamped by
// NV_KERNEL_ISA / setKernelIsa) and fan row panels out to that tier's raw
// microkernels; the bias + activation epilogue runs here, in portable
// code, identically for every tier. The scalar tier below is the fallback
// and the bit-reference: it chains std::fma per output element in
// ascending k, which is exactly what one SIMD lane of the AVX tiers
// computes (docs/kernels.md).
//
//===----------------------------------------------------------------------===//

#include "nn/Kernels.h"

#include "nn/KernelsArch.h"
#include "nn/VecMath.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <cstdlib>
#include <cstring>

using namespace nv;
using namespace nv::detail;

//===----------------------------------------------------------------------===//
// ISA detection and dispatch state
//===----------------------------------------------------------------------===//

const char *nv::kernelIsaName(KernelIsa Isa) {
  switch (Isa) {
  case KernelIsa::Scalar:
    return "scalar";
  case KernelIsa::Avx2:
    return "avx2";
  case KernelIsa::Avx512:
    return "avx512";
  }
  return "scalar";
}

KernelIsa nv::detectKernelIsa() {
#if defined(NV_HAVE_AVX512_KERNELS) && defined(__GNUC__)
  if (__builtin_cpu_supports("avx512f"))
    return KernelIsa::Avx512;
#endif
#if defined(NV_HAVE_AVX2_KERNELS) && defined(__GNUC__)
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma"))
    return KernelIsa::Avx2;
#endif
  return KernelIsa::Scalar;
}

namespace {

KernelIsa parseIsaName(const char *Name, KernelIsa Fallback) {
  if (!Name || !*Name)
    return Fallback;
  if (std::strcmp(Name, "scalar") == 0)
    return KernelIsa::Scalar;
  if (std::strcmp(Name, "avx2") == 0)
    return KernelIsa::Avx2;
  if (std::strcmp(Name, "avx512") == 0)
    return KernelIsa::Avx512;
  return Fallback; // Unknown names keep the detected tier.
}

/// Resolved once: detection clamped by the NV_KERNEL_ISA environment knob.
KernelIsa initialIsa() {
  const KernelIsa Detected = detectKernelIsa();
  const KernelIsa Requested =
      parseIsaName(std::getenv("NV_KERNEL_ISA"), Detected);
  return std::min(Requested, Detected);
}

/// Active tier. Relaxed atomics: setKernelIsa is a test hook, not a
/// synchronization point; kernel calls racing a switch get one tier or
/// the other, both of which compute the contract-identical result for
/// gemmInto/gemmTAInto.
std::atomic<int> ActiveIsa{-1};

KernelIsa activeIsa() {
  int V = ActiveIsa.load(std::memory_order_relaxed);
  if (V < 0) {
    V = static_cast<int>(initialIsa());
    ActiveIsa.store(V, std::memory_order_relaxed);
  }
  return static_cast<KernelIsa>(V);
}

} // namespace

KernelIsa nv::kernelIsa() { return activeIsa(); }

KernelIsa nv::setKernelIsa(KernelIsa Requested) {
  const KernelIsa Applied = std::min(Requested, detectKernelIsa());
  ActiveIsa.store(static_cast<int>(Applied), std::memory_order_relaxed);
  return Applied;
}

//===----------------------------------------------------------------------===//
// Shared epilogue (portable; every tier funnels through this)
//===----------------------------------------------------------------------===//

void nv::applyActivation(Matrix &Y, Activation Act) {
  switch (Act) {
  case Activation::Tanh:
    vecTanh(Y.raw().data(), Y.raw().size());
    break;
  case Activation::ReLU:
    for (double &V : Y.raw())
      V = V > 0.0 ? V : 0.0;
    break;
  case Activation::Identity:
    break;
  }
}

/// Bias + activation over one raw output row. One implementation for all
/// tiers: the tanh sweep always spans the whole row (never an NB block),
/// so its input and extent are independent of blocking, partition, and
/// ISA — within one build the epilogue cannot introduce cross-tier
/// divergence (vecTanh's own bits depend on the build; see nn/VecMath.h).
void nv::detail::epilogueRow(double *CRow, const double *Bias, int N,
                             Activation Act) {
  if (Bias)
    for (int J = 0; J < N; ++J)
      CRow[J] += Bias[J];
  switch (Act) {
  case Activation::Tanh:
    vecTanh(CRow, static_cast<size_t>(N));
    break;
  case Activation::ReLU:
    for (int J = 0; J < N; ++J)
      CRow[J] = CRow[J] > 0.0 ? CRow[J] : 0.0;
    break;
  case Activation::Identity:
    break;
  }
}

namespace {

//===----------------------------------------------------------------------===//
// Scalar tier: blocked loops with per-element std::fma chains
//===----------------------------------------------------------------------===//

/// Column-block width of the scalar accumulator tile (stays in L1).
constexpr int NB = 64;

void gemmRowsScalar(Matrix &C, const Matrix &A, const Matrix &B,
                    int RowBegin, int RowEnd) {
  const int K = A.cols(), N = B.cols();
  double Acc[KernelMR][NB];
  for (int I0 = RowBegin; I0 < RowEnd; I0 += KernelMR) {
    const int MCur = std::min(KernelMR, RowEnd - I0);
    for (int J0 = 0; J0 < N; J0 += NB) {
      const int NCur = std::min(NB, N - J0);
      for (int R = 0; R < MCur; ++R)
        for (int J = 0; J < NCur; ++J)
          Acc[R][J] = 0.0;
      for (int Kk = 0; Kk < K; ++Kk) {
        const double *BRow = B.rowPtr(Kk) + J0;
        for (int R = 0; R < MCur; ++R) {
          const double V = A.rowPtr(I0 + R)[Kk];
          for (int J = 0; J < NCur; ++J)
            Acc[R][J] = std::fma(V, BRow[J], Acc[R][J]);
        }
      }
      for (int R = 0; R < MCur; ++R) {
        double *CRow = C.rowPtr(I0 + R) + J0;
        for (int J = 0; J < NCur; ++J)
          CRow[J] = Acc[R][J];
      }
    }
  }
}

void gemmTARowsScalar(Matrix &C, const Matrix &A, const Matrix &B,
                      bool Accumulate, int RowBegin, int RowEnd) {
  const int R = A.rows(), N = B.cols();
  double Acc[KernelMR][NB];
  for (int I0 = RowBegin; I0 < RowEnd; I0 += KernelMR) {
    const int MCur = std::min(KernelMR, RowEnd - I0);
    for (int J0 = 0; J0 < N; J0 += NB) {
      const int NCur = std::min(NB, N - J0);
      for (int Rr = 0; Rr < MCur; ++Rr)
        for (int J = 0; J < NCur; ++J)
          Acc[Rr][J] = 0.0;
      // Output rows are columns I0..I0+MCur of A; the needed A values sit
      // contiguously in each A row.
      for (int Kk = 0; Kk < R; ++Kk) {
        const double *AVals = A.rowPtr(Kk) + I0;
        const double *BRow = B.rowPtr(Kk) + J0;
        for (int Rr = 0; Rr < MCur; ++Rr) {
          const double V = AVals[Rr];
          for (int J = 0; J < NCur; ++J)
            Acc[Rr][J] = std::fma(V, BRow[J], Acc[Rr][J]);
        }
      }
      for (int Rr = 0; Rr < MCur; ++Rr) {
        double *CRow = C.rowPtr(I0 + Rr) + J0;
        if (Accumulate)
          for (int J = 0; J < NCur; ++J)
            CRow[J] += Acc[Rr][J];
        else
          for (int J = 0; J < NCur; ++J)
            CRow[J] = Acc[Rr][J];
      }
    }
  }
}

void gemmTBRowsScalar(Matrix &C, const Matrix &A, const Matrix &B,
                      int RowBegin, int RowEnd) {
  const int K = A.cols(), N = B.rows();
  // Dot-product kernel: four B rows stream against one A row, so each A
  // load feeds four accumulators.
  for (int I = RowBegin; I < RowEnd; ++I) {
    const double *ARow = A.rowPtr(I);
    double *CRow = C.rowPtr(I);
    int J = 0;
    for (; J + 4 <= N; J += 4) {
      const double *B0 = B.rowPtr(J + 0);
      const double *B1 = B.rowPtr(J + 1);
      const double *B2 = B.rowPtr(J + 2);
      const double *B3 = B.rowPtr(J + 3);
      double S0 = 0.0, S1 = 0.0, S2 = 0.0, S3 = 0.0;
      for (int Kk = 0; Kk < K; ++Kk) {
        const double V = ARow[Kk];
        S0 = std::fma(V, B0[Kk], S0);
        S1 = std::fma(V, B1[Kk], S1);
        S2 = std::fma(V, B2[Kk], S2);
        S3 = std::fma(V, B3[Kk], S3);
      }
      CRow[J + 0] = S0;
      CRow[J + 1] = S1;
      CRow[J + 2] = S2;
      CRow[J + 3] = S3;
    }
    for (; J < N; ++J) {
      const double *BRow = B.rowPtr(J);
      double Sum = 0.0;
      for (int Kk = 0; Kk < K; ++Kk)
        Sum = std::fma(ARow[Kk], BRow[Kk], Sum);
      CRow[J] = Sum;
    }
  }
}

//===----------------------------------------------------------------------===//
// Tier table
//===----------------------------------------------------------------------===//

struct PanelTable {
  GemmRowsFn Gemm;
  GemmTARowsFn TA;
  GemmTBRowsFn TB;
};

constexpr PanelTable ScalarTable = {gemmRowsScalar, gemmTARowsScalar,
                                    gemmTBRowsScalar};

const PanelTable &tableFor(KernelIsa Isa) {
#ifdef NV_HAVE_AVX512_KERNELS
  static constexpr PanelTable Avx512Table = {gemmRowsAvx512, gemmTARowsAvx512,
                                             gemmTBRowsAvx512};
  if (Isa == KernelIsa::Avx512)
    return Avx512Table;
#endif
#ifdef NV_HAVE_AVX2_KERNELS
  static constexpr PanelTable Avx2Table = {gemmRowsAvx2, gemmTARowsAvx2,
                                           gemmTBRowsAvx2};
  if (Isa >= KernelIsa::Avx2)
    return Avx2Table;
#endif
  (void)Isa;
  return ScalarTable;
}

} // namespace

//===----------------------------------------------------------------------===//
// Public entry points
//===----------------------------------------------------------------------===//

void nv::gemmInto(Matrix &C, const Matrix &A, const Matrix &B,
                  const Matrix *BiasRow, Activation Act, ThreadPool *Pool) {
  assert(A.cols() == B.rows() && "gemmInto shape mismatch");
  assert(!BiasRow ||
         (BiasRow->rows() == 1 && BiasRow->cols() == B.cols()) &&
             "bias must be 1 x B.cols()");
  const int M = A.rows(), K = A.cols(), N = B.cols();
  C.resize(M, N);
  const double *Bias = BiasRow ? BiasRow->rowPtr(0) : nullptr;
  const PanelTable &T = tableFor(activeIsa());

  auto Panel = [&](int RowBegin, int RowEnd) {
    T.Gemm(C, A, B, RowBegin, RowEnd);
    for (int I = RowBegin; I < RowEnd; ++I)
      epilogueRow(C.rowPtr(I), Bias, N, Act);
  };
  forEachKernelRowPanel(Pool, M, static_cast<long long>(M) * K * N, Panel);
}

void nv::gemmTAInto(Matrix &C, const Matrix &A, const Matrix &B,
                    bool Accumulate, ThreadPool *Pool) {
  assert(A.rows() == B.rows() && "gemmTAInto shape mismatch");
  const int R = A.rows(), M = A.cols(), N = B.cols();
  if (Accumulate)
    assert(C.rows() == M && C.cols() == N && "accumulate shape mismatch");
  else
    C.resize(M, N);
  const PanelTable &T = tableFor(activeIsa());

  auto Panel = [&](int RowBegin, int RowEnd) {
    T.TA(C, A, B, Accumulate, RowBegin, RowEnd);
  };
  forEachKernelRowPanel(Pool, M, static_cast<long long>(M) * R * N, Panel);
}

void nv::gemmTBInto(Matrix &C, const Matrix &A, const Matrix &B,
                    ThreadPool *Pool) {
  assert(A.cols() == B.cols() && "gemmTBInto shape mismatch");
  const int M = A.rows(), K = A.cols(), N = B.rows();
  C.resize(M, N);
  const PanelTable &T = tableFor(activeIsa());

  auto Panel = [&](int RowBegin, int RowEnd) {
    T.TB(C, A, B, RowBegin, RowEnd);
  };
  forEachKernelRowPanel(Pool, M, static_cast<long long>(M) * K * N, Panel);
}

void nv::sumRowsInto(Matrix &Out, const Matrix &A, bool Accumulate) {
  if (Accumulate)
    assert(Out.rows() == 1 && Out.cols() == A.cols() &&
           "accumulate shape mismatch");
  else {
    Out.resize(1, A.cols());
    Out.zero();
  }
  double *Row = Out.rowPtr(0);
  for (int I = 0; I < A.rows(); ++I) {
    const double *ARow = A.rowPtr(I);
    for (int J = 0; J < A.cols(); ++J)
      Row[J] += ARow[J];
  }
}
