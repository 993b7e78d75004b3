//===- nn/KernelsArch.h - Per-ISA microkernel internals ---------*- C++ -*-===//
//
// Part of the NeuroVectorizer reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Internal interface between the kernel dispatcher (nn/Kernels.cpp) and
/// the ISA-specific translation units (nn/KernelsAvx.cpp built -mavx2
/// -mfma, nn/KernelsAvx512.cpp built -mavx512f). Not part of the public
/// kernel API.
///
/// Every function here computes *raw* output rows — no bias, no
/// activation. The dispatcher owns the epilogue (bias add + activation),
/// which is the same code for every tier, so within one build the
/// epilogue cannot split the cross-ISA bit-identity contract
/// (docs/kernels.md).
///
/// Row-range semantics match the dispatcher's panel fan-out: a function
/// is handed [RowBegin, RowEnd) of the *output* and must touch nothing
/// outside it, so panels can run concurrently on a pool.
///
/// The AVX symbols are only compiled (and only referenced) when CMake
/// defines NV_HAVE_AVX2_KERNELS / NV_HAVE_AVX512_KERNELS — builds with
/// NV_NATIVE_KERNELS=OFF, or toolchains without the flags, fall back to
/// the scalar tier with no link-time dependency on these TUs.
///
//===----------------------------------------------------------------------===//

#ifndef NV_NN_KERNELSARCH_H
#define NV_NN_KERNELSARCH_H

#include "nn/Kernels.h"
#include "nn/Matrix.h"

namespace nv {

class ThreadPool;

namespace detail {

/// Row-panel height shared by every tier. Panel boundaries are fixed
/// multiples of MR regardless of pool size; each output element's
/// reduction is internal to its panel.
constexpr int KernelMR = 4;

/// Problems below this many multiply-adds are not worth fanning out.
constexpr long long KernelMinParallelWork = 1 << 15;

/// C rows [RowBegin, RowEnd) = (A * B) rows, raw.
using GemmRowsFn = void (*)(Matrix &C, const Matrix &A, const Matrix &B,
                            int RowBegin, int RowEnd);

/// C rows [RowBegin, RowEnd) (+)= (A^T * B) rows, raw. The output row
/// index is a column of A.
using GemmTARowsFn = void (*)(Matrix &C, const Matrix &A, const Matrix &B,
                              bool Accumulate, int RowBegin, int RowEnd);

/// C rows [RowBegin, RowEnd) = (A * B^T) rows, raw.
using GemmTBRowsFn = void (*)(Matrix &C, const Matrix &A, const Matrix &B,
                              int RowBegin, int RowEnd);

#ifdef NV_HAVE_AVX2_KERNELS
void gemmRowsAvx2(Matrix &C, const Matrix &A, const Matrix &B, int RowBegin,
                  int RowEnd);
void gemmTARowsAvx2(Matrix &C, const Matrix &A, const Matrix &B,
                    bool Accumulate, int RowBegin, int RowEnd);
void gemmTBRowsAvx2(Matrix &C, const Matrix &A, const Matrix &B,
                    int RowBegin, int RowEnd);
#endif

#ifdef NV_HAVE_AVX512_KERNELS
void gemmRowsAvx512(Matrix &C, const Matrix &A, const Matrix &B,
                    int RowBegin, int RowEnd);
void gemmTARowsAvx512(Matrix &C, const Matrix &A, const Matrix &B,
                      bool Accumulate, int RowBegin, int RowEnd);
void gemmTBRowsAvx512(Matrix &C, const Matrix &A, const Matrix &B,
                      int RowBegin, int RowEnd);
#endif

/// Bias + activation over one raw output row — the single shared epilogue
/// every tier funnels through. Defined in Kernels.cpp.
void epilogueRow(double *CRow, const double *Bias, int N, Activation Act);

/// Runs \p Panel(RowBegin, RowEnd) over [0, M) in KernelMR-row panels,
/// across \p Pool when \p Work justifies it. Panel boundaries depend only
/// on \p M, so the partition (and the result) is independent of pool size.
template <typename PanelFn>
inline void forEachKernelRowPanel(ThreadPool *Pool, int M, long long Work,
                                  const PanelFn &Panel);

} // namespace detail
} // namespace nv

#include "support/ThreadPool.h"

#include <algorithm>

template <typename PanelFn>
inline void nv::detail::forEachKernelRowPanel(ThreadPool *Pool, int M,
                                              long long Work,
                                              const PanelFn &Panel) {
  const int NumPanels = (M + KernelMR - 1) / KernelMR;
  if (!Pool || NumPanels < 2 || Work < KernelMinParallelWork) {
    Panel(0, M);
    return;
  }
  Pool->parallelFor(0, static_cast<size_t>(NumPanels), [&](size_t P) {
    const int Begin = static_cast<int>(P) * KernelMR;
    Panel(Begin, std::min(M, Begin + KernelMR));
  });
}

#endif // NV_NN_KERNELSARCH_H
