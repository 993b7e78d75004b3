//===- rl/StateFeatures.h - Policy input pass-through -----------*- C++ -*-===//
//
// Part of the NeuroVectorizer reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The policy reads the code2vec embedding of a loop and nothing else
/// (Fig 3), so encoded states go to Policy::forward as they are.
/// widenStates() is a pass-through kept with its old signature only
/// because nvbench/Replay.cpp calls it; it goes with the next benchmark
/// change. Library code does not call it.
///
//===----------------------------------------------------------------------===//

#ifndef NV_RL_STATEFEATURES_H
#define NV_RL_STATEFEATURES_H

#include "ir/Legality.h"
#include "nn/Matrix.h"
#include "target/TargetInfo.h"

#include <cassert>

namespace nv {

/// Returns \p States, which must already be \p WantCols wide. The
/// digest, target and buffer arguments are ignored.
inline const Matrix &widenStates(const Matrix &States, int WantCols,
                                 const LegalityDigest *, size_t,
                                 const TargetInfo &, Matrix &) {
  assert(WantCols == States.cols() &&
         "the policy input is the code embedding alone");
  (void)WantCols;
  return States;
}

} // namespace nv

#endif // NV_RL_STATEFEATURES_H
