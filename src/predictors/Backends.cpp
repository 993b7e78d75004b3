//===- predictors/Backends.cpp - Concrete Predictor backends ---------------===//

#include "predictors/Backends.h"

#include "predictors/Search.h"
#include "rl/Env.h"
#include "rl/Policy.h"
#include "sim/Compiler.h"

#include <cassert>

using namespace nv;

std::vector<VectorPlan> PolicyBackend::plansForEmbeddings(const Matrix &States,
                                                          ThreadPool *Pool) {
  Pol.forward(States, Pool, /*ForBackward=*/false);
  std::vector<VectorPlan> Plans(States.rows());
  for (int Row = 0; Row < States.rows(); ++Row)
    Plans[Row] = Pol.toPlan(Pol.greedyAction(Row), TI);
  return Plans;
}

std::vector<VectorPlan> NNSBackend::plansForEmbeddings(const Matrix &States,
                                                       ThreadPool *Pool) {
  assert(ready() && "NNS backend queried before distillation");
  // The whole batch goes through the index as one GEMM against the
  // example matrix — no per-row embedding copies, no linear scalar scan.
  std::vector<VectorPlan> Plans;
  Index.predictBatch(States, Plans, Pool);
  return Plans;
}

std::vector<VectorPlan> TreeBackend::plansForEmbeddings(const Matrix &States,
                                                        ThreadPool *) {
  assert(ready() && "tree backend queried before distillation");
  std::vector<VectorPlan> Plans(States.rows());
  std::vector<double> Row(States.cols());
  for (int R = 0; R < States.rows(); ++R) {
    Row.assign(States.rowPtr(R), States.rowPtr(R) + States.cols());
    Plans[R] = classToPlan(Tree.predict(Row), TI);
  }
  return Plans;
}

namespace {

/// A one-program scratch environment over the query source. Every
/// source-kind call gets its own, so the backends are thread-safe and the
/// analysis caching of the shared environments is never perturbed.
VectorizationEnv scratchEnv(const TargetInfo &TI, const MachineConfig &MC,
                            const PathContextConfig &Paths,
                            const std::string &Source) {
  VectorizationEnv Env(SimCompiler(TI, MC), Paths);
  const bool Added = Env.addProgram("query", Source);
  assert(Added && "source-kind backend requires a program with loops");
  (void)Added;
  return Env;
}

} // namespace

std::vector<VectorPlan>
BaselineBackend::plansForSource(const std::string &Source) {
  VectorizationEnv Env = scratchEnv(TI, Machine, Paths, Source);
  CompileResult R = Env.compiler().compileBaseline(
      const_cast<Program &>(*Env.sample(0).Prog));
  std::vector<VectorPlan> Plans;
  for (const CompiledLoop &L : R.Loops)
    Plans.push_back(L.Effective);
  return Plans;
}

std::vector<VectorPlan>
RandomBackend::plansForSource(const std::string &Source) {
  VectorizationEnv Env = scratchEnv(TI, Machine, Paths, Source);
  std::lock_guard<std::mutex> Lock(Mutex);
  return randomPlans(Env, 0, Rng);
}

std::vector<VectorPlan>
BruteForceBackend::plansForSource(const std::string &Source) {
  VectorizationEnv Env = scratchEnv(TI, Machine, Paths, Source);
  return bruteForceSearch(Env, 0, Passes).Plans;
}

std::pair<NNSBackend *, TreeBackend *>
nv::registerBackends(PredictorSet &Set, Policy &Pol, const TargetInfo &TI,
                     const MachineConfig &Machine,
                     const PathContextConfig &Paths, uint64_t Seed) {
  Set.set(PredictMethod::RL, std::make_unique<PolicyBackend>(Pol, TI));
  auto NNS = std::make_unique<NNSBackend>(/*K=*/3);
  auto Tree = std::make_unique<TreeBackend>(TI);
  auto Supervised = std::make_pair(NNS.get(), Tree.get());
  Set.set(PredictMethod::NNS, std::move(NNS));
  Set.set(PredictMethod::DecisionTree, std::move(Tree));
  Set.set(PredictMethod::Baseline,
          std::make_unique<BaselineBackend>(TI, Machine, Paths));
  Set.set(PredictMethod::Random,
          std::make_unique<RandomBackend>(TI, Machine, Paths,
                                          Seed ^ 0x5EED5EEDull));
  Set.set(PredictMethod::BruteForce,
          std::make_unique<BruteForceBackend>(TI, Machine, Paths));
  return Supervised;
}
