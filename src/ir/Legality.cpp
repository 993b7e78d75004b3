//===- ir/Legality.cpp - Loop legality analysis ---------------------------===//

#include "ir/Legality.h"

#include "ir/Dependence.h"

#include <algorithm>
#include <cstdlib>
#include <numeric>
#include <sstream>

using namespace nv;

const char *nv::accessClassName(AccessClass C) {
  switch (C) {
  case AccessClass::Uniform:
    return "uniform";
  case AccessClass::Consecutive:
    return "consecutive";
  case AccessClass::Strided:
    return "strided";
  case AccessClass::Gather:
    return "gather";
  }
  return "?";
}

const char *nv::depKindName(DepKind K) {
  switch (K) {
  case DepKind::Flow:
    return "flow";
  case DepKind::Anti:
    return "anti";
  case DepKind::Output:
    return "output";
  }
  return "?";
}

AccessClass nv::classifyAccess(const MemAccess &Access, long long InnerStep) {
  if (!Access.IsAffine)
    return AccessClass::Gather;
  const long long IterStride = Access.InnerStride * InnerStep;
  if (IterStride == 0)
    return AccessClass::Uniform;
  if (IterStride == 1)
    return AccessClass::Consecutive;
  return AccessClass::Strided;
}

/// Returns the term list of \p Index without \p InnerVar, sorted by name.
static std::vector<std::pair<std::string, long long>>
invariantTerms(const AffineIndex &Index, const std::string &InnerVar) {
  std::vector<std::pair<std::string, long long>> Terms;
  for (const auto &Term : Index.Terms)
    if (Term.first != InnerVar)
      Terms.push_back(Term);
  std::sort(Terms.begin(), Terms.end());
  return Terms;
}

bool nv::testAccessPair(const MemAccess &Store, const MemAccess &Other,
                        int SrcIdx, int DstIdx, const std::string &InnerVar,
                        const IterationDomain &Domain,
                        DependenceEdge &Out) {
  if (Store.Array != Other.Array)
    return false; // Distinct arrays never alias in LoopLang (no pointers).

  Out = DependenceEdge();
  Out.Src = SrcIdx;
  Out.Dst = DstIdx;
  Out.Kind = Other.IsStore ? DepKind::Output : DepKind::Flow;

  if (!Store.IsAffine || !Other.IsAffine) {
    Out.Unknown = true;
    Out.BindsVF = true;
    return true;
  }

  // Outer-variable terms must match to compare constants; otherwise the
  // addresses differ by an unknown loop-invariant amount and we give up
  // (conservative, like LLVM's RuntimeChecks-off behaviour).
  if (invariantTerms(Store.Flat, InnerVar) !=
      invariantTerms(Other.Flat, InnerVar)) {
    Out.Unknown = true;
    Out.BindsVF = true;
    return true;
  }

  // Normalize to iteration space: with i = Lo + Step*k the address is
  // (Const + Coeff*Lo) + (Coeff*Step)*k over k in [0, Trip).
  const long long A = Store.Flat.coeffOf(InnerVar) * Domain.Step;
  const long long B = Other.Flat.coeffOf(InnerVar) * Domain.Step;
  const long long CS =
      Store.Flat.Const + Store.Flat.coeffOf(InnerVar) * Domain.Lo;
  const long long CO =
      Other.Flat.Const + Other.Flat.coeffOf(InnerVar) * Domain.Lo;
  const long long Trip = Domain.Trip;

  if (A == 0 && B == 0) {
    // ZIV: both invariant along the inner loop. The same cell touched
    // every iteration is a serial distance-1 chain; distinct cells never
    // alias.
    if (CS != CO)
      return false;
    Out.HasDistance = true;
    Out.Distance = 1;
    Out.BindsVF = true;
    return true;
  }

  if (A == B) {
    // Strong SIV: constant distance D = (CS - CO) / A in iterations.
    const long long Diff = CS - CO;
    if (Diff % A != 0)
      return false; // Addresses interleave without colliding.
    const long long D = Diff / A;
    if (Trip >= 0 && std::llabs(D) >= Trip)
      return false; // The sink iteration is outside the loop.
    if (D == 0) {
      if (SrcIdx == DstIdx)
        return false; // An access trivially aliases itself in-iteration.
      Out.Direction = DepDirection::Eq;
      Out.HasDistance = true;
      Out.Distance = 0;
      return true; // Loop-independent: reported, never binding.
    }
    Out.HasDistance = true;
    Out.Distance = D;
    if (D > 0) {
      Out.BindsVF = true;
      return true;
    }
    // Store in a *later* iteration than the conflicting access: an anti
    // dependence for loads (chunk loads precede chunk stores, so safe).
    // For store-store pairs the mirrored enumeration binds the positive
    // direction, so this direction stays informational.
    Out.Kind = Other.IsStore ? DepKind::Output : DepKind::Anti;
    Out.Direction = DepDirection::Gt;
    return true;
  }

  if (A == 0 || B == 0) {
    // Weak-zero SIV: one access is invariant, the other sweeps. There is
    // a single conflicting iteration k*; refute it against the trip range
    // (this is what rescues `a[i] = ...` against a read of `a[C]` with
    // C outside the iteration space).
    const long long Sweep = A != 0 ? A : B;
    const long long Num = A != 0 ? (CO - CS) : (CS - CO);
    if (Num % Sweep != 0)
      return false;
    const long long K = Num / Sweep;
    if (K < 0 || (Trip >= 0 && K >= Trip))
      return false;
    if (A != 0) {
      // The store sweeps and hits the invariant cell at k*; the invariant
      // access repeats every iteration, so any iteration after k*
      // observes the store.
      if (Trip < 0 || K + 1 < Trip) {
        Out.BindsVF = true;
        return true;
      }
      if (SrcIdx == DstIdx || K == 0)
        return false;
      Out.Kind = Other.IsStore ? DepKind::Output : DepKind::Anti;
      Out.Direction = DepDirection::Gt;
      return true;
    }
    // The store is invariant (writes every iteration); the sweeping
    // access touches that cell at k*. Every store before k* conflicts.
    if (K > 0) {
      Out.BindsVF = true;
      return true;
    }
    if (SrcIdx == DstIdx || Other.IsStore)
      return false; // Mirrored enumeration covers the store-store case.
    Out.Kind = DepKind::Anti;
    Out.Direction = DepDirection::Gt;
    return true;
  }

  if (A == -B) {
    // Weak-crossing SIV: conflicts satisfy k1 + k2 = T.
    const long long Sum = CO - CS;
    if (Sum % A != 0)
      return false;
    const long long T = Sum / A;
    if (T < 0 || (Trip >= 0 && T > 2 * (Trip - 1)))
      return false;
    if (T == 0) {
      if (SrcIdx == DstIdx)
        return false;
      Out.Direction = DepDirection::Eq;
      Out.HasDistance = true;
      Out.Distance = 0;
      return true;
    }
    Out.BindsVF = true; // Distances vary across the crossing; assume 1.
    return true;
  }

  // MIV/GCD fallback: a conflict A*k1 + CS = B*k2 + CO has integer
  // solutions only when gcd(A, B) divides the constant difference.
  const long long G = std::gcd(std::llabs(A), std::llabs(B));
  if (G != 0 && (CO - CS) % G != 0)
    return false;
  Out.Unknown = true;
  Out.BindsVF = true;
  return true;
}

namespace {

/// Dependence sweep over all store<->access pairs (including self-pairs:
/// an invariant store serializes against itself).
struct DepSweep {
  std::vector<DependenceEdge> Edges;
  long long MinBindingDistance = 0; ///< 0 = no binding constant distance.
  bool HasUnknown = false;
  int MaxSafeVF = 1;

  void run(const std::vector<MemAccess> &Accesses,
           const std::string &InnerVar, const IterationDomain &Domain,
           int HWMaxVF) {
    long long Bound = HWMaxVF;
    for (size_t S = 0; S < Accesses.size(); ++S) {
      const MemAccess &Store = Accesses[S];
      if (!Store.IsStore)
        continue;
      // A non-affine store pairs as Unknown with everything, including
      // itself, so scatters bind VF to 1 without a special case.
      for (size_t O = 0; O < Accesses.size(); ++O) {
        DependenceEdge Edge;
        if (!testAccessPair(Store, Accesses[O], static_cast<int>(S),
                            static_cast<int>(O), InnerVar, Domain, Edge))
          continue;
        if (Edge.Src == Edge.Dst && !Edge.BindsVF)
          continue; // Trivial self facts are noise.
        if (Edge.BindsVF) {
          const long long D =
              Edge.HasDistance && Edge.Distance > 0 ? Edge.Distance : 1;
          Bound = std::min(Bound, D);
          if (Edge.HasDistance && Edge.Distance > 0 &&
              (MinBindingDistance == 0 || D < MinBindingDistance))
            MinBindingDistance = D;
        }
        HasUnknown |= Edge.Unknown;
        Edges.push_back(Edge);
      }
    }
    MaxSafeVF = floorPow2(std::min<long long>(Bound, HWMaxVF));
  }
};

} // namespace

VectorPlan nv::legalizePlan(int MaxSafeVF, VectorPlan Requested,
                            const TargetInfo &TI) {
  VectorPlan Plan;
  Plan.VF = floorPow2(std::clamp(Requested.VF, 1, TI.MaxVF));
  Plan.IF = floorPow2(std::clamp(Requested.IF, 1, TI.MaxIF));
  // The compiler ignores infeasible widths (dependences, calls, ...).
  Plan.VF = std::min(Plan.VF, MaxSafeVF);
  return Plan;
}

bool LegalitySummary::isLegal(VectorPlan Plan, const TargetInfo &TI) const {
  const std::vector<int> VFs = TI.vfActions();
  const std::vector<int> IFs = TI.ifActions();
  int VFIdx = -1, IFIdx = -1;
  for (size_t I = 0; I < VFs.size(); ++I)
    if (VFs[I] == Plan.VF)
      VFIdx = static_cast<int>(I);
  for (size_t I = 0; I < IFs.size(); ++I)
    if (IFs[I] == Plan.IF)
      IFIdx = static_cast<int>(I);
  if (VFIdx < 0 || IFIdx < 0)
    return false;
  return Mask.legal(VFIdx, IFIdx);
}

VectorPlan LegalitySummary::clamp(VectorPlan Requested,
                                  const TargetInfo &TI) const {
  return legalizePlan(MaxSafeVF, Requested, TI);
}

std::string LegalitySummary::explain(VectorPlan Plan,
                                     const TargetInfo &TI) const {
  std::ostringstream OS;
  const VectorPlan Clamped = clamp(Plan, TI);
  if (Plan.VF < 1 || Plan.VF > TI.MaxVF || floorPow2(Plan.VF) != Plan.VF) {
    OS << "VF " << Plan.VF << " is not a power of two within [1, "
       << TI.MaxVF << "]";
    return OS.str();
  }
  if (Plan.IF < 1 || Plan.IF > TI.MaxIF || floorPow2(Plan.IF) != Plan.IF) {
    OS << "IF " << Plan.IF << " is not a power of two within [1, "
       << TI.MaxIF << "]";
    return OS.str();
  }
  if (Clamped == Plan)
    return "legal";
  OS << "VF " << Plan.VF << " exceeds max safe VF " << MaxSafeVF;
  if (HasUnknownCall)
    OS << " (call in loop body)";
  else if (HasScalarCycle)
    OS << " (loop-carried scalar recurrence)";
  else if (MinDependenceDistance > 0)
    OS << " (dependence distance " << MinDependenceDistance << ")";
  else if (HasUnknownDep)
    OS << " (unprovable dependence)";
  return OS.str();
}

LegalityDigest LegalitySummary::digest() const {
  LegalityDigest D;
  D.MaskBits = Mask.Bits;
  D.MaxSafeVF = MaxSafeVF;
  for (AccessClass C : Classes)
    ++D.ClassCount[static_cast<int>(C)];
  return D;
}

LegalitySummary nv::analyzeLegality(const LoopSummary &Loop,
                                    const TargetInfo &TI) {
  LegalitySummary L;
  L.HasReduction = Loop.Reduction.Kind != ReductionKind::None;
  L.HasPredicate = Loop.HasPredicate;
  L.HasUnknownCall = Loop.HasUnknownCall;
  L.HasScalarCycle = Loop.HasScalarCycle;
  L.IfConvertible = !Loop.HasUnknownCall && !Loop.HasScalarCycle;

  L.Classes.reserve(Loop.Accesses.size());
  for (const MemAccess &Access : Loop.Accesses)
    L.Classes.push_back(classifyAccess(Access, Loop.InnerStep));

  IterationDomain Domain;
  Domain.Lo = Loop.InnerVarLo;
  Domain.Step = Loop.InnerStep == 0 ? 1 : Loop.InnerStep;
  Domain.Trip = Loop.RuntimeTrip > 0 ? Loop.RuntimeTrip : -1;

  DepSweep Sweep;
  Sweep.run(Loop.Accesses, Loop.Loop ? Loop.Loop->IndexVar : std::string(),
            Domain, TI.MaxVF);
  L.Edges = std::move(Sweep.Edges);
  L.MinDependenceDistance = Sweep.MinBindingDistance;
  L.HasUnknownDep = Sweep.HasUnknown;
  L.MaxSafeVF = Sweep.MaxSafeVF;
  if (Loop.HasUnknownCall || Loop.HasScalarCycle)
    L.MaxSafeVF = 1;

  const std::vector<int> VFs = TI.vfActions();
  const std::vector<int> IFs = TI.ifActions();
  L.Mask.Bits = 0;
  L.Mask.NumVF = static_cast<int8_t>(VFs.size());
  L.Mask.NumIF = static_cast<int8_t>(IFs.size());
  for (size_t V = 0; V < VFs.size(); ++V) {
    if (VFs[V] > L.MaxSafeVF)
      continue;
    // Interleaving is plain unrolling: every IF is legal at a legal VF.
    for (size_t I = 0; I < IFs.size(); ++I)
      L.Mask.set(static_cast<int>(V), static_cast<int>(I));
  }
  return L;
}
