//===- train/Evaluator.cpp - Held-out policy evaluation --------------------===//

#include "train/Evaluator.h"

#include "lang/PrettyPrinter.h"
#include "support/Stats.h"

#include <algorithm>

using namespace nv;

double MethodReport::overallFor(PredictMethod Method) const {
  for (size_t I = 0; I < Methods.size(); ++I)
    if (Methods[I] == Method)
      return Overall[I];
  return 1.0;
}

Table MethodReport::speedupTable() const {
  std::vector<std::string> Header = {"suite", "programs"};
  for (PredictMethod M : Methods)
    Header.push_back(methodName(M));
  Table T(Header);
  for (const SuiteRow &S : Suites) {
    std::vector<std::string> Row = {S.Name, std::to_string(S.Programs)};
    for (double Speedup : S.GeomeanSpeedup)
      Row.push_back(Table::fmt(Speedup));
    T.addRow(Row);
  }
  if (Suites.size() > 1) {
    std::vector<std::string> Row = {"all programs",
                                    std::to_string(NumPrograms)};
    for (double Speedup : Overall)
      Row.push_back(Table::fmt(Speedup));
    T.addRow(Row);
  }
  return T;
}

Table EvalReport::summaryTable() const {
  Table T({"suite", "programs", "mean reward", "geomean speedup",
           "min speedup"});
  for (const EvalSuite &S : Suites)
    T.addRow({S.Name, std::to_string(S.Programs.size()),
              Table::fmt(S.MeanReward, 3), Table::fmt(S.GeomeanSpeedup, 3),
              Table::fmt(S.MinSpeedup, 3)});
  return T;
}

Table EvalReport::programTable() const {
  Table T({"suite", "program", "reward", "speedup"});
  for (const EvalSuite &S : Suites)
    for (const EvalProgram &P : S.Programs)
      T.addRow({S.Name, P.Name, Table::fmt(P.Reward, 3),
                Table::fmt(P.Speedup, 3)});
  return T;
}

size_t Evaluator::addSuite(const std::string &Name,
                           const std::vector<NamedProgram> &Programs) {
  auto Suite = std::make_unique<SuiteEnv>(Name, Compiler, Paths);
  size_t Accepted = 0;
  for (const NamedProgram &P : Programs)
    Accepted += Suite->Env.addProgram(P.Name, P.Source) ? 1 : 0;
  Suites.push_back(std::move(Suite));
  return Accepted;
}

EvalReport Evaluator::evaluate(Code2Vec &Embedder, Policy &Pol) const {
  EvalReport Report;
  double RewardTotal = 0.0;
  Matrix States; // Encode output, reused across samples.

  for (const auto &Suite : Suites) {
    EvalSuite Out;
    Out.Name = Suite->Name;
    std::vector<double> Speedups;

    for (size_t I = 0; I < Suite->Env.size(); ++I) {
      const EnvSample &Sample = Suite->Env.sample(I);
      Embedder.encodeBatchInto(Sample.Contexts, States);
      Pol.forward(States, nullptr, /*ForBackward=*/false);
      std::vector<VectorPlan> Plans;
      Plans.reserve(Sample.Sites.size());
      for (size_t S = 0; S < Sample.Sites.size(); ++S)
        Plans.push_back(Pol.toPlan(
            Pol.greedyAction(static_cast<int>(S),
                             &Suite->Env.actionMask(I, S)),
            Suite->Env.compiler().target()));

      // One simulation yields both metrics (Env::step would re-run the
      // identical plans just to derive the reward from the same cycles).
      bool TimedOut = false;
      const double Cycles = Suite->Env.compiler().runPrecompiled(
          Sample.Pre, Plans, TimedOut);
      const double TBase = Sample.BaselineCycles;
      EvalProgram P;
      P.Name = Sample.Name;
      P.Reward = TimedOut ? VectorizationEnv::TimeoutPenalty
                          : std::max((TBase - Cycles) / TBase,
                                     VectorizationEnv::TimeoutPenalty);
      P.Speedup = Cycles > 0.0 ? TBase / Cycles : 0.0;
      Out.MeanReward += P.Reward;
      RewardTotal += P.Reward;
      Speedups.push_back(P.Speedup);
      Out.Programs.push_back(std::move(P));
    }

    if (!Out.Programs.empty()) {
      Out.MeanReward /= static_cast<double>(Out.Programs.size());
      Out.GeomeanSpeedup = geomean(Speedups);
      Out.MinSpeedup = minOf(Speedups);
    }
    Report.NumPrograms += Out.Programs.size();
    Report.Suites.push_back(std::move(Out));
  }

  if (Report.NumPrograms > 0)
    Report.MeanReward = RewardTotal / static_cast<double>(Report.NumPrograms);
  return Report;
}

MethodReport Evaluator::evaluateMethods(
    Code2Vec &Embedder, PredictorSet &Backends,
    const std::vector<PredictMethod> &Methods) const {
  MethodReport Report;
  Report.Methods = Methods;
  // Per-method speedups across every program (for the overall geomean).
  std::vector<std::vector<double>> AllSpeedups(Methods.size());
  Matrix States; // Encode output, reused across samples.

  for (const auto &Suite : Suites) {
    MethodReport::SuiteRow Row;
    Row.Name = Suite->Name;
    Row.Programs = Suite->Env.size();
    std::vector<std::vector<double>> SuiteSpeedups(Methods.size());

    for (size_t I = 0; I < Suite->Env.size(); ++I) {
      const EnvSample &Sample = Suite->Env.sample(I);
      const double TBase = Sample.BaselineCycles;
      // The embedding is method-independent: encode once per sample (and
      // only when some embedding-kind method actually runs), not once per
      // method.
      bool Encoded = false;

      for (size_t M = 0; M < Methods.size(); ++M) {
        Predictor *P = Backends.get(Methods[M]);
        if (!P || !P->ready())
          continue;
        std::vector<VectorPlan> Plans;
        if (P->kind() == Predictor::Kind::Embedding) {
          if (!Encoded) {
            Embedder.encodeBatchInto(Sample.Contexts, States);
            Encoded = true;
          }
          Plans = P->plansForEmbeddings(States, nullptr);
        } else {
          // Source-kind backends re-analyze the program themselves; the
          // sample's AST prints back to an equivalent source.
          Plans = P->plansForSource(printProgram(*Sample.Prog));
        }
        const double Cycles = Suite->Env.cyclesWith(I, Plans);
        const double Speedup = Cycles > 0.0 ? TBase / Cycles : 0.0;
        SuiteSpeedups[M].push_back(Speedup);
        AllSpeedups[M].push_back(Speedup);
      }
    }

    for (size_t M = 0; M < Methods.size(); ++M)
      Row.GeomeanSpeedup.push_back(
          SuiteSpeedups[M].empty() ? 1.0 : geomean(SuiteSpeedups[M]));
    Report.NumPrograms += Row.Programs;
    Report.Suites.push_back(std::move(Row));
  }

  for (size_t M = 0; M < Methods.size(); ++M)
    Report.Overall.push_back(
        AllSpeedups[M].empty() ? 1.0 : geomean(AllSpeedups[M]));
  return Report;
}
