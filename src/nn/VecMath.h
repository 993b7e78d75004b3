//===- nn/VecMath.h - Vectorized element-wise math --------------*- C++ -*-===//
//
// Part of the NeuroVectorizer reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// SIMD element-wise transcendentals for the kernel epilogues. tanh over
/// the context/trunk activations is the single largest non-GEMM cost of a
/// batched forward (~60% pre-vectorization on one core), so this one
/// function gets its own translation unit built with the flags that let
/// the compiler emit libmvec vector calls (see CMakeLists.txt). On
/// toolchains without vector math, and with NV_NATIVE_KERNELS=OFF, it
/// degrades to the scalar libm loop: same API, but *not* the same bits.
/// libmvec's tanh differs from scalar std::tanh in the last bits on over
/// a third of inputs (381,776 of 1M draws from N(0, 1) on an AVX-512
/// host, gcc 12.2), and libmvec's AVX2 and AVX-512 variants differ from
/// each other.
///
/// Determinism: the vector/scalar split inside vecTanh depends only on
/// \p N, never on threading or the kernel tier, so the blocked kernels
/// stay bit-identical across pool sizes and tiers *within one build*.
/// Across build hosts and NV_NATIVE_KERNELS settings the tanh bits move
/// (ROADMAP.md item 3 tracks a portable, bit-exact tanh).
///
//===----------------------------------------------------------------------===//

#ifndef NV_NN_VECMATH_H
#define NV_NN_VECMATH_H

#include <cstddef>

namespace nv {

/// X[i] = tanh(X[i]) for i in [0, N).
void vecTanh(double *X, size_t N);

} // namespace nv

#endif // NV_NN_VECMATH_H
