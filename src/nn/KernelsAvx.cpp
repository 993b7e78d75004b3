//===- nn/KernelsAvx.cpp - AVX2/FMA fp64 microkernels ---------------------===//
//
// Explicit AVX2 register-blocked microkernels (this TU is compiled
// -mavx2 -mfma; everything else in the library stays portable — dispatch
// happens at runtime in nn/Kernels.cpp).
//
// Bit-identity: in gemmRows/gemmTARows every vector lane owns one output
// element and chains _mm256_fmadd_pd in ascending k — the same
// one-rounding-per-step sequence the scalar tier's std::fma chain
// performs — so these kernels return bit-identical matrices to the scalar
// tier (asserted in tests/NNTest.cpp). gemmTBRows vectorizes over k with
// per-lane partial sums instead (the dot-product layout has no profitable
// column vectorization), so it matches other tiers only within rounding;
// it is still deterministic and pool-size-invariant for a fixed tier.
//
//===----------------------------------------------------------------------===//

#include "nn/KernelsArch.h"

// Compiled out entirely (empty TU) unless CMake applied -mavx2 -mfma to
// this file; nn/Kernels.cpp only references these symbols when it gets the
// matching NV_HAVE_AVX2_KERNELS define, so NV_NATIVE_KERNELS=OFF builds
// need no link-time stubs.
#if defined(__AVX2__) && defined(__FMA__)

#include <algorithm>
#include <cmath>
#include <immintrin.h>

using namespace nv;
using namespace nv::detail;

namespace {

/// 4-row x 8-column register microkernel: 8 accumulator ymm (one lane per
/// output element), two B loads and R broadcasts per k step.
template <int R>
inline void microGemm8(const double *const *APtr, const Matrix &B, int K,
                       int J, double *const *CPtr) {
  __m256d AccLo[R], AccHi[R];
  for (int Rr = 0; Rr < R; ++Rr) {
    AccLo[Rr] = _mm256_setzero_pd();
    AccHi[Rr] = _mm256_setzero_pd();
  }
  for (int Kk = 0; Kk < K; ++Kk) {
    const double *BRow = B.rowPtr(Kk) + J;
    const __m256d B0 = _mm256_loadu_pd(BRow);
    const __m256d B1 = _mm256_loadu_pd(BRow + 4);
    for (int Rr = 0; Rr < R; ++Rr) {
      const __m256d V = _mm256_set1_pd(APtr[Rr][Kk]);
      AccLo[Rr] = _mm256_fmadd_pd(V, B0, AccLo[Rr]);
      AccHi[Rr] = _mm256_fmadd_pd(V, B1, AccHi[Rr]);
    }
  }
  for (int Rr = 0; Rr < R; ++Rr) {
    _mm256_storeu_pd(CPtr[Rr] + J, AccLo[Rr]);
    _mm256_storeu_pd(CPtr[Rr] + J + 4, AccHi[Rr]);
  }
}

/// 4-column edge microkernel (one ymm per row).
template <int R>
inline void microGemm4(const double *const *APtr, const Matrix &B, int K,
                       int J, double *const *CPtr) {
  __m256d Acc[R];
  for (int Rr = 0; Rr < R; ++Rr)
    Acc[Rr] = _mm256_setzero_pd();
  for (int Kk = 0; Kk < K; ++Kk) {
    const __m256d B0 = _mm256_loadu_pd(B.rowPtr(Kk) + J);
    for (int Rr = 0; Rr < R; ++Rr)
      Acc[Rr] = _mm256_fmadd_pd(_mm256_set1_pd(APtr[Rr][Kk]), B0, Acc[Rr]);
  }
  for (int Rr = 0; Rr < R; ++Rr)
    _mm256_storeu_pd(CPtr[Rr] + J, Acc[Rr]);
}

template <int R>
void gemmRowsImpl(const double *const *APtr, const Matrix &B, int K, int N,
                  double *const *CPtr) {
  int J = 0;
  for (; J + 8 <= N; J += 8)
    microGemm8<R>(APtr, B, K, J, CPtr);
  for (; J + 4 <= N; J += 4)
    microGemm4<R>(APtr, B, K, J, CPtr);
  for (; J < N; ++J)
    for (int Rr = 0; Rr < R; ++Rr) {
      double Acc = 0.0;
      for (int Kk = 0; Kk < K; ++Kk)
        Acc = std::fma(APtr[Rr][Kk], B.rowPtr(Kk)[J], Acc);
      CPtr[Rr][J] = Acc;
    }
}

/// Transposed-A flavour: the R per-k multiplicands sit contiguously in
/// each A row (A.rowPtr(k) + I0), everything else matches microGemm8/4.
template <int R>
void gemmTARowsImpl(const Matrix &A, int I0, const Matrix &B, int N,
                    double *const *CPtr, bool Accumulate) {
  const int KRows = A.rows();
  int J = 0;
  for (; J + 8 <= N; J += 8) {
    __m256d AccLo[R], AccHi[R];
    for (int Rr = 0; Rr < R; ++Rr) {
      AccLo[Rr] = _mm256_setzero_pd();
      AccHi[Rr] = _mm256_setzero_pd();
    }
    for (int Kk = 0; Kk < KRows; ++Kk) {
      const double *AVals = A.rowPtr(Kk) + I0;
      const double *BRow = B.rowPtr(Kk) + J;
      const __m256d B0 = _mm256_loadu_pd(BRow);
      const __m256d B1 = _mm256_loadu_pd(BRow + 4);
      for (int Rr = 0; Rr < R; ++Rr) {
        const __m256d V = _mm256_set1_pd(AVals[Rr]);
        AccLo[Rr] = _mm256_fmadd_pd(V, B0, AccLo[Rr]);
        AccHi[Rr] = _mm256_fmadd_pd(V, B1, AccHi[Rr]);
      }
    }
    for (int Rr = 0; Rr < R; ++Rr) {
      if (Accumulate) {
        AccLo[Rr] = _mm256_add_pd(_mm256_loadu_pd(CPtr[Rr] + J), AccLo[Rr]);
        AccHi[Rr] =
            _mm256_add_pd(_mm256_loadu_pd(CPtr[Rr] + J + 4), AccHi[Rr]);
      }
      _mm256_storeu_pd(CPtr[Rr] + J, AccLo[Rr]);
      _mm256_storeu_pd(CPtr[Rr] + J + 4, AccHi[Rr]);
    }
  }
  for (; J + 4 <= N; J += 4) {
    __m256d Acc[R];
    for (int Rr = 0; Rr < R; ++Rr)
      Acc[Rr] = _mm256_setzero_pd();
    for (int Kk = 0; Kk < KRows; ++Kk) {
      const double *AVals = A.rowPtr(Kk) + I0;
      const __m256d B0 = _mm256_loadu_pd(B.rowPtr(Kk) + J);
      for (int Rr = 0; Rr < R; ++Rr)
        Acc[Rr] = _mm256_fmadd_pd(_mm256_set1_pd(AVals[Rr]), B0, Acc[Rr]);
    }
    for (int Rr = 0; Rr < R; ++Rr) {
      if (Accumulate)
        Acc[Rr] = _mm256_add_pd(_mm256_loadu_pd(CPtr[Rr] + J), Acc[Rr]);
      _mm256_storeu_pd(CPtr[Rr] + J, Acc[Rr]);
    }
  }
  for (; J < N; ++J)
    for (int Rr = 0; Rr < R; ++Rr) {
      double Acc = 0.0;
      for (int Kk = 0; Kk < KRows; ++Kk)
        Acc = std::fma(A.rowPtr(Kk)[I0 + Rr], B.rowPtr(Kk)[J], Acc);
      if (Accumulate)
        CPtr[Rr][J] += Acc;
      else
        CPtr[Rr][J] = Acc;
    }
}

/// Fixed-order horizontal sum: (l0+l2) + (l1+l3).
inline double hsum(__m256d V) {
  const __m128d Lo = _mm256_castpd256_pd128(V);
  const __m128d Hi = _mm256_extractf128_pd(V, 1);
  const __m128d Sum = _mm_add_pd(Lo, Hi);
  return _mm_cvtsd_f64(_mm_add_sd(Sum, _mm_unpackhi_pd(Sum, Sum)));
}

} // namespace

void nv::detail::gemmRowsAvx2(Matrix &C, const Matrix &A, const Matrix &B,
                              int RowBegin, int RowEnd) {
  const int K = A.cols(), N = B.cols();
  for (int I0 = RowBegin; I0 < RowEnd; I0 += KernelMR) {
    const int MCur = std::min(KernelMR, RowEnd - I0);
    const double *APtr[KernelMR];
    double *CPtr[KernelMR];
    for (int Rr = 0; Rr < MCur; ++Rr) {
      APtr[Rr] = A.rowPtr(I0 + Rr);
      CPtr[Rr] = C.rowPtr(I0 + Rr);
    }
    switch (MCur) {
    case 4:
      gemmRowsImpl<4>(APtr, B, K, N, CPtr);
      break;
    case 3:
      gemmRowsImpl<3>(APtr, B, K, N, CPtr);
      break;
    case 2:
      gemmRowsImpl<2>(APtr, B, K, N, CPtr);
      break;
    default:
      gemmRowsImpl<1>(APtr, B, K, N, CPtr);
      break;
    }
  }
}

void nv::detail::gemmTARowsAvx2(Matrix &C, const Matrix &A, const Matrix &B,
                                bool Accumulate, int RowBegin, int RowEnd) {
  const int N = B.cols();
  for (int I0 = RowBegin; I0 < RowEnd; I0 += KernelMR) {
    const int MCur = std::min(KernelMR, RowEnd - I0);
    double *CPtr[KernelMR];
    for (int Rr = 0; Rr < MCur; ++Rr)
      CPtr[Rr] = C.rowPtr(I0 + Rr);
    switch (MCur) {
    case 4:
      gemmTARowsImpl<4>(A, I0, B, N, CPtr, Accumulate);
      break;
    case 3:
      gemmTARowsImpl<3>(A, I0, B, N, CPtr, Accumulate);
      break;
    case 2:
      gemmTARowsImpl<2>(A, I0, B, N, CPtr, Accumulate);
      break;
    default:
      gemmTARowsImpl<1>(A, I0, B, N, CPtr, Accumulate);
      break;
    }
  }
}

void nv::detail::gemmTBRowsAvx2(Matrix &C, const Matrix &A, const Matrix &B,
                                int RowBegin, int RowEnd) {
  const int K = A.cols(), N = B.rows();
  for (int I = RowBegin; I < RowEnd; ++I) {
    const double *ARow = A.rowPtr(I);
    double *CRow = C.rowPtr(I);
    int J = 0;
    for (; J + 4 <= N; J += 4) {
      const double *B0 = B.rowPtr(J + 0);
      const double *B1 = B.rowPtr(J + 1);
      const double *B2 = B.rowPtr(J + 2);
      const double *B3 = B.rowPtr(J + 3);
      __m256d S0 = _mm256_setzero_pd(), S1 = _mm256_setzero_pd();
      __m256d S2 = _mm256_setzero_pd(), S3 = _mm256_setzero_pd();
      int Kk = 0;
      for (; Kk + 4 <= K; Kk += 4) {
        const __m256d V = _mm256_loadu_pd(ARow + Kk);
        S0 = _mm256_fmadd_pd(V, _mm256_loadu_pd(B0 + Kk), S0);
        S1 = _mm256_fmadd_pd(V, _mm256_loadu_pd(B1 + Kk), S1);
        S2 = _mm256_fmadd_pd(V, _mm256_loadu_pd(B2 + Kk), S2);
        S3 = _mm256_fmadd_pd(V, _mm256_loadu_pd(B3 + Kk), S3);
      }
      double T0 = hsum(S0), T1 = hsum(S1), T2 = hsum(S2), T3 = hsum(S3);
      for (; Kk < K; ++Kk) {
        const double V = ARow[Kk];
        T0 = std::fma(V, B0[Kk], T0);
        T1 = std::fma(V, B1[Kk], T1);
        T2 = std::fma(V, B2[Kk], T2);
        T3 = std::fma(V, B3[Kk], T3);
      }
      CRow[J + 0] = T0;
      CRow[J + 1] = T1;
      CRow[J + 2] = T2;
      CRow[J + 3] = T3;
    }
    for (; J < N; ++J) {
      const double *BRow = B.rowPtr(J);
      __m256d S = _mm256_setzero_pd();
      int Kk = 0;
      for (; Kk + 4 <= K; Kk += 4)
        S = _mm256_fmadd_pd(_mm256_loadu_pd(ARow + Kk),
                            _mm256_loadu_pd(BRow + Kk), S);
      double Sum = hsum(S);
      for (; Kk < K; ++Kk)
        Sum = std::fma(ARow[Kk], BRow[Kk], Sum);
      CRow[J] = Sum;
    }
  }
}

#endif // __AVX2__ && __FMA__
