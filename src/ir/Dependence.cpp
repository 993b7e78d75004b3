//===- ir/Dependence.cpp - Memory dependence analysis ---------------------===//

#include "ir/Dependence.h"

#include "ir/Legality.h"

#include <algorithm>

using namespace nv;

int nv::floorPow2(long long X) {
  if (X <= 1)
    return 1;
  int P = 1;
  while (2LL * P <= X && P < (1 << 29))
    P *= 2;
  return P;
}

int nv::computeMaxSafeVF(const std::vector<MemAccess> &Accesses,
                         const std::string &InnerVar, int HWMaxVF,
                         long long Lo, long long Step, long long Trip) {
  IterationDomain Domain;
  Domain.Lo = Lo;
  Domain.Step = Step != 0 ? Step : 1;
  Domain.Trip = Trip > 0 ? Trip : -1;

  long long Bound = HWMaxVF;
  for (size_t S = 0; S < Accesses.size(); ++S) {
    if (!Accesses[S].IsStore)
      continue;
    for (size_t O = 0; O < Accesses.size(); ++O) {
      DependenceEdge Edge;
      if (!testAccessPair(Accesses[S], Accesses[O], static_cast<int>(S),
                          static_cast<int>(O), InnerVar, Domain, Edge))
        continue;
      if (!Edge.BindsVF)
        continue;
      Bound = std::min(Bound, Edge.HasDistance && Edge.Distance > 0
                                  ? Edge.Distance
                                  : 1);
    }
  }
  return floorPow2(std::min<long long>(Bound, HWMaxVF));
}
