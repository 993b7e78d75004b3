//===- ir/VecIR.h - Vectorization IR for innermost loops --------*- C++ -*-===//
//
// Part of the NeuroVectorizer reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-iteration instruction IR that an innermost loop body lowers to.
/// Both the LLVM-like baseline cost model (src/target) and the machine
/// simulator (src/sim) consume this representation: the cost model applies
/// linear per-instruction cost tables to it (exactly the class of model the
/// paper criticizes), while the simulator schedules it cycle-by-cycle.
///
//===----------------------------------------------------------------------===//

#ifndef NV_IR_VECIR_H
#define NV_IR_VECIR_H

#include "lang/AST.h"
#include "lang/Type.h"

#include <string>
#include <vector>

namespace nv {

/// Affine form of an index expression: `Const + sum(Coeff_k * Var_k)` over
/// loop induction variables. Non-affine indices (e.g. indirect `a[b[i]]`)
/// set IsAffine = false.
struct AffineIndex {
  bool IsAffine = true;
  long long Const = 0;
  /// (loop variable, coefficient) terms; variables appear at most once.
  std::vector<std::pair<std::string, long long>> Terms;

  /// Coefficient of \p Var (0 if absent).
  long long coeffOf(const std::string &Var) const {
    for (const auto &[Name, Coeff] : Terms)
      if (Name == Var)
        return Coeff;
    return 0;
  }
};

/// One memory access of the loop body.
struct MemAccess {
  std::string Array;
  ScalarType ElemTy = ScalarType::Int;
  bool IsStore = false;
  bool IsAffine = true;  ///< False => gather/scatter (indirect index).
  /// Flattened element index as an affine function of the loop variables
  /// (row-major flattening using the array's declared dimensions).
  AffineIndex Flat;
  /// Stride in *elements* with respect to the innermost loop variable
  /// (0 = invariant, 1 = contiguous, >1 = strided); meaningless when
  /// !IsAffine.
  long long InnerStride = 0;
  /// Total declared elements of the array (for footprint estimates).
  long long ArrayElements = 0;
};

/// Vector IR opcodes.
enum class VROp {
  Load,
  Store,
  Add,
  Sub,
  Mul,
  Div,
  Rem,
  Shl,
  Shr,
  And,
  Or,
  Xor,
  Neg,
  Not,
  Cmp,
  Select,
  Cast,
  Min,
  Max,
  Abs,
  Sqrt,
};

/// One per-iteration instruction. Operands reference earlier instructions
/// by index; -1 denotes a loop-invariant value or constant (free: lives in
/// a register across the loop).
struct VecInst {
  VROp Op = VROp::Add;
  ScalarType Ty = ScalarType::Int; ///< Result (or stored value) type.
  ScalarType SrcTy = ScalarType::Int; ///< Source type for Cast.
  int Operands[3] = {-1, -1, -1};
  int AccessIdx = -1;       ///< Index into LoopSummary::Accesses (mem ops).
  bool Predicated = false;  ///< Executed under an if/ternary mask.
  bool ReductionUpdate = false; ///< Part of a loop-carried reduction chain.
};

/// Loop-carried reduction kinds.
enum class ReductionKind { None, Sum, Product, Min, Max };

/// Reduction summary of a loop (at most one reduction variable tracked;
/// additional ones only deepen the same modeling).
struct ReductionInfo {
  ReductionKind Kind = ReductionKind::None;
  ScalarType Ty = ScalarType::Int;
  std::string Var;
};

/// Everything the cost model / simulator needs to know about one innermost
/// loop. Produced by lowerLoop() in ir/Lowering.h.
struct LoopSummary {
  const ForStmt *Loop = nullptr;

  std::vector<VecInst> Body;       ///< Per-iteration instructions.
  std::vector<MemAccess> Accesses; ///< Parallel table for mem ops.
  ReductionInfo Reduction;
  bool HasPredicate = false;   ///< Body contains if/ternary control.
  bool HasUnknownCall = false; ///< Calls we cannot vectorize.
  /// Loop-carried scalar recurrence that is not a recognized reduction
  /// (e.g. `crc = f(crc)`): serializes iterations entirely — unrolling
  /// cannot break the chain, unlike reduction accumulators.
  bool HasScalarCycle = false;

  /// Largest legal VF from memory dependence analysis (power of two).
  int MaxSafeVF = 1;

  /// Iteration domain of the innermost loop, resolved with the same
  /// runtime binding as RuntimeTrip: the induction variable takes the
  /// values InnerVarLo + k * InnerStep for k in [0, RuntimeTrip). The
  /// legality analysis normalizes affine indices to iteration space with
  /// these (so `i += 2` loops are not pessimized by var-space distances).
  long long InnerVarLo = 0;
  long long InnerStep = 1;

  /// Compile-time-known trip count; -1 when the bound is symbolic
  /// ("unknown loop bounds" in the paper's benchmark taxonomy).
  long long CompileTrip = -1;
  /// Actual trip count the simulator runs (symbolic bounds resolved via
  /// global initializers).
  long long RuntimeTrip = 0;
  /// Product of the enclosing loops' runtime trip counts (1 if not nested).
  long long OuterIterations = 1;

  ScalarType NarrowestType = ScalarType::Double;
  ScalarType WidestType = ScalarType::Char;
  int Depth = 1;
  /// Estimated simultaneously-live vector values (register pressure).
  int LiveValues = 0;

  /// Number of instructions of a given opcode (convenience for tests).
  int countOp(VROp Op) const {
    int N = 0;
    for (const VecInst &I : Body)
      if (I.Op == Op)
        ++N;
    return N;
  }
};

} // namespace nv

#endif // NV_IR_VECIR_H
