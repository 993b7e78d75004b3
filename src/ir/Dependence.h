//===- ir/Dependence.h - Memory dependence analysis -------------*- C++ -*-===//
//
// Part of the NeuroVectorizer reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Loop-carried memory dependence analysis for innermost loops. Computes
/// the maximum safe vectorization factor: the paper notes that "predicates
/// and memory dependency can hinder reaching high VF and IF" and that the
/// compiler ignores infeasible pragmas — this analysis is what the
/// simulated compiler uses to clamp the agent's requested factors.
///
//===----------------------------------------------------------------------===//

#ifndef NV_IR_DEPENDENCE_H
#define NV_IR_DEPENDENCE_H

#include "ir/VecIR.h"

#include <string>
#include <vector>

namespace nv {

/// Returns the largest power-of-two VF (<= \p HWMaxVF) that is legal for a
/// loop with memory accesses \p Accesses along \p InnerVar. Returns 1 when
/// any store is non-affine or a dependence cannot be disproven. Only
/// store<->access pairs are tested: reads can never hazard against other
/// reads, so e.g. a read-only gather stays fully vectorizable. The
/// induction variable takes the values \p Lo + k * \p Step for k in
/// [0, \p Trip) (\p Trip == -1 when unknown): distances are computed in
/// iteration space, and weak-zero SIV conflicts outside the trip range are
/// refuted.
int computeMaxSafeVF(const std::vector<MemAccess> &Accesses,
                     const std::string &InnerVar, int HWMaxVF, long long Lo,
                     long long Step, long long Trip);

/// Rounds \p X down to a power of two (minimum 1).
int floorPow2(long long X);

} // namespace nv

#endif // NV_IR_DEPENDENCE_H
