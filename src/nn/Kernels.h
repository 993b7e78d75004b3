//===- nn/Kernels.h - Blocked, in-place NN math kernels ---------*- C++ -*-===//
//
// Part of the NeuroVectorizer reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The NN hot-path kernels: cache-blocked GEMM variants that write into
/// caller-owned matrices (no per-call temporaries), with a fused
/// bias + activation epilogue and optional row-panel parallelism over a
/// ThreadPool.
///
/// The GEMM inner loops are explicit SIMD microkernels (AVX2/FMA and
/// AVX-512 translation units, see nn/KernelsAvx*.cpp) selected once at
/// runtime by CPUID, with a portable scalar fallback. The `NV_KERNEL_ISA`
/// environment knob (`scalar` / `avx2` / `avx512`) clamps the dispatch
/// down for testing, and setKernelIsa() does the same in-process (the ISA
/// equivalence tests iterate every tier in one binary). Full design notes:
/// docs/kernels.md.
///
/// Determinism contract (docs/kernels.md has the long form):
///  - gemmInto / gemmTAInto: every output element is one ascending-k chain
///    of *fused* multiply-adds (hardware FMA in the SIMD tiers, std::fma
///    in the scalar tier), and vector lanes span output columns — so each
///    element's reduction order is independent of the row-panel partition
///    AND of the dispatched ISA. Results are bit-identical at any pool
///    size and across scalar/AVX2/AVX-512, and the training subsystem's
///    "bit-identical across worker counts" guarantee survives both kernel
///    parallelism and ISA dispatch.
///  - gemmTBInto: the dot-product layout vectorizes over k with per-lane
///    partial sums, so it is deterministic and pool-size-invariant *per
///    ISA tier* but NOT bit-identical across tiers (it matches within
///    rounding; the backward pass never mixes tiers within a run).
///  - The fused activation epilogue is shared code across every tier
///    (vecTanh spans whole output rows), so it does not split the contract
///    *within one build*. Across builds it does: vecTanh is libmvec when
///    built with NV_NATIVE_KERNELS=ON (for the build host's ISA) and scalar
///    libm otherwise, and the two disagree in the last bits (nn/VecMath.h).
///    So gemmInto(..., Tanh) output depends on the build host and on
///    NV_NATIVE_KERNELS; ROADMAP.md item 3 tracks a portable tanh.
///
/// The kernels also match the naive reference implementations in
/// nn/Matrix.h element for element up to FMA rounding (asserted in
/// tests/NNTest.cpp).
///
//===----------------------------------------------------------------------===//

#ifndef NV_NN_KERNELS_H
#define NV_NN_KERNELS_H

#include "nn/Matrix.h"

namespace nv {

class ThreadPool;

/// Instruction-set tiers the GEMM microkernels are built for. Ordering is
/// meaningful: a higher tier strictly extends the lower ones, and dispatch
/// clamps requests down to what the binary + CPU support.
enum class KernelIsa { Scalar = 0, Avx2 = 1, Avx512 = 2 };

/// Stable lowercase name ("scalar" / "avx2" / "avx512") for logs, statsz,
/// and the NV_KERNEL_ISA knob.
const char *kernelIsaName(KernelIsa Isa);

/// The widest tier this binary was built with AND this machine executes
/// (CPUID). Independent of any override.
KernelIsa detectKernelIsa();

/// The tier the kernels currently dispatch to: detectKernelIsa() clamped
/// by NV_KERNEL_ISA (read once, first use) and by setKernelIsa().
KernelIsa kernelIsa();

/// Clamps dispatch to min(\p Requested, detectKernelIsa()) and returns
/// the tier actually applied. Intended for tests (the ISA matrix switches
/// tiers in-process); not thread-safe against concurrent kernel calls.
KernelIsa setKernelIsa(KernelIsa Requested);

/// Supported activation functions (fusable into the GEMM epilogue).
enum class Activation { Tanh, ReLU, Identity };

/// Applies \p Act element-wise in place.
void applyActivation(Matrix &Y, Activation Act);

/// C = act(A * B + bias): the fused linear-layer forward. \p BiasRow may
/// be null (no bias) and must be 1 x B.cols() otherwise. C is resized to
/// A.rows() x B.cols(); it must not alias A or B. When \p Pool is non-null
/// and the problem is big enough, row panels of C run across the pool.
void gemmInto(Matrix &C, const Matrix &A, const Matrix &B,
              const Matrix *BiasRow = nullptr,
              Activation Act = Activation::Identity,
              ThreadPool *Pool = nullptr);

/// C (+)= A^T * B with A (R x M), B (R x N), C (M x N). \p Accumulate
/// selects += (gradient accumulation) vs overwrite. C must not alias.
/// Accumulating adds each element's finished chain to C in one add, so it
/// equals computing A^T * B into a scratch and adding that, bit for bit.
void gemmTAInto(Matrix &C, const Matrix &A, const Matrix &B,
                bool Accumulate = false, ThreadPool *Pool = nullptr);

/// C = A * B^T with A (M x K), B (N x K), C (M x N). C must not alias.
void gemmTBInto(Matrix &C, const Matrix &A, const Matrix &B,
                ThreadPool *Pool = nullptr);

/// Out (+)= column-wise sums of A; Out is resized to 1 x A.cols() when not
/// accumulating (and must already be 1 x A.cols() when it is).
void sumRowsInto(Matrix &Out, const Matrix &A, bool Accumulate = false);

} // namespace nv

#endif // NV_NN_KERNELS_H
