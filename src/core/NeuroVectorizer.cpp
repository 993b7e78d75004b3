//===- core/NeuroVectorizer.cpp - Public framework API ---------------------===//

#include "core/NeuroVectorizer.h"

#include "dataset/Suites.h"
#include "ir/Lowering.h"
#include "lang/Parser.h"
#include "lang/PrettyPrinter.h"
#include "serve/ModelSerializer.h"
#include "support/Telemetry.h"

#include <cassert>
#include <tuple>

using namespace nv;

NeuroVectorizer::NeuroVectorizer(const NeuroVectorizerConfig &Config)
    : Config(Config), Rng(Config.Seed) {
  Env = std::make_unique<VectorizationEnv>(
      SimCompiler(Config.Target, Config.Machine), Config.Embedding.Paths);
  Embedder = std::make_unique<Code2Vec>(Config.Embedding, Rng);
  const int NumVF = static_cast<int>(Config.Target.vfActions().size());
  const int NumIF = static_cast<int>(Config.Target.ifActions().size());
  Pol = std::make_unique<Policy>(Config.ActionSpace, Embedder->codeDim(),
                                 Config.Hidden, NumVF, NumIF, Rng);
  Runner = std::make_unique<PPORunner>(*Env, *Embedder, *Pol, Config.PPO,
                                       Config.Seed ^ 0xABCDEF);

  // The full backend set of Fig 3's swappable agent block (§3.5). The
  // supervised backends start unfitted; fitSupervised() or a v3 load()
  // makes them ready.
  std::tie(NNS, Tree) =
      registerBackends(Backends, *Pol, Config.Target, Config.Machine,
                       Config.Embedding.Paths, Config.Seed);
}

bool NeuroVectorizer::addTrainingProgram(const std::string &Name,
                                         const std::string &Source) {
  return Env->addProgram(Name, Source);
}

TrainStats NeuroVectorizer::train(long long Steps) {
  assert(Env->size() > 0 && "no training programs added");
  TrainStats Stats = Runner->train(Steps);
  // Same invalidation as trainParallel()/load(): cached plans and fitted
  // supervised backends were derived from the pre-training weights.
  if (Service)
    Service->clearCache();
  NNS->index().clear();
  Tree->tree().clear();
  return Stats;
}

RolloutModelSpec NeuroVectorizer::rolloutSpec() const {
  RolloutModelSpec Spec;
  Spec.Embedding = Config.Embedding;
  Spec.ActionSpace = Config.ActionSpace;
  Spec.Hidden = Config.Hidden;
  Spec.NumVF = static_cast<int>(Config.Target.vfActions().size());
  Spec.NumIF = static_cast<int>(Config.Target.ifActions().size());
  return Spec;
}

TrainReport NeuroVectorizer::trainParallel(const TrainerConfig &TrainConfig) {
  Trainer T(*Runner, rolloutSpec(), TrainConfig);
  // Held-out by construction: the Fig 7 evaluation benchmarks are never in
  // the training distribution (curriculum stages draw from the generator
  // and the vectorizer test suite).
  T.addEvalSuite("benchmarks", evaluationBenchmarks());
  TrainReport Report = T.run();
  // Same invalidation as load(): the serving cache and the supervised
  // backends were derived from the pre-training weights.
  if (Service)
    Service->clearCache();
  NNS->index().clear();
  Tree->tree().clear();
  return Report;
}

DistillReport NeuroVectorizer::fitSupervised(size_t MaxSamples) {
  DistillConfig Distill;
  Distill.MaxSamples = MaxSamples;
  return fitSupervised(Distill);
}

DistillReport NeuroVectorizer::fitSupervised(const DistillConfig &Distill) {
  DistillReport Report = distill(*Env, *Embedder, Config.Target,
                                 NNS->index(), Tree->tree(), Distill);
  // Plans cached from a previous fit answer for the nns/tree keys; the
  // backends just changed, so those entries are stale.
  if (Service)
    Service->clearCache();
  return Report;
}

bool NeuroVectorizer::supervisedReady() const {
  return NNS->ready() && Tree->ready();
}

std::vector<VectorPlan>
NeuroVectorizer::plansFor(const std::string &Source, PredictMethod Method) {
  // The single-program facade path records into the same registry the
  // serving front-end uses, so ad-hoc and batched traffic land in one
  // latency picture.
  static ShardedHistogram &PlansUs =
      Telemetry::metrics().histogram("core.plans_us");
  const uint64_t Start = nowMicros();
  struct RecordOnExit {
    ShardedHistogram &H;
    uint64_t Start;
    ~RecordOnExit() { H.record(nowMicros() - Start); }
  } Record{PlansUs, Start};

  Predictor *P = Backends.get(Method);
  assert(P && "no backend registered for method");

  if (P->kind() == Predictor::Kind::Source) {
    // Source-kind backends see the program themselves; their plans still
    // pass the same legality clamp the serving boundary applies.
    std::vector<VectorPlan> Plans = P->plansForSource(Source);
    std::optional<Program> Parsed = parseSource(Source);
    assert(Parsed && "plansFor() requires a valid program");
    clearAllPragmas(*Parsed);
    std::vector<LoopSite> Sites = extractLoops(*Parsed);
    const std::vector<LoopSummary> Summaries =
        lowerAllLoops(*Parsed, Sites, Config.Target.MaxVF);
    for (size_t S = 0; S < Plans.size() && S < Summaries.size(); ++S)
      Plans[S] = legalizePlan(analyzeLegality(Summaries[S], Config.Target)
                                  .MaxSafeVF,
                              Plans[S], Config.Target);
    return Plans;
  }

  assert(P->ready() && "call fitSupervised() first");
  std::string Error;
  std::optional<Program> Parsed = parseSource(Source, &Error);
  assert(Parsed && "plansFor() requires a valid program");
  clearAllPragmas(*Parsed);
  std::vector<LoopSite> Sites = extractLoops(*Parsed);

  // Per-site legality: the clamp every embedding-kind prediction passes
  // through (so the plans handed back are the plans the compiler would
  // actually honor).
  std::vector<LoopSummary> Summaries =
      lowerAllLoops(*Parsed, Sites, Config.Target.MaxVF);
  std::vector<LegalitySummary> Legality;
  Legality.reserve(Summaries.size());
  for (const LoopSummary &Summary : Summaries)
    Legality.push_back(analyzeLegality(Summary, Config.Target));

  std::vector<std::vector<PathContext>> Contexts;
  Contexts.reserve(Sites.size());
  for (const LoopSite &Site : Sites) {
    // Mirror the environment's extraction setting: predicting from the
    // other loop body would hand the model embeddings it never trained on
    // (the same train/serve skew AnnotationService guards against).
    const Stmt &ContextRoot =
        Env->innerContextOnly() ? static_cast<const Stmt &>(*Site.Inner)
                                : static_cast<const Stmt &>(*Site.Outer);
    Contexts.push_back(extractPathContexts(ContextRoot, Config.Embedding.Paths));
  }
  const Matrix States = Embedder->encodeBatch(Contexts);
  std::vector<VectorPlan> Plans = P->plansForEmbeddings(States, nullptr);
  for (size_t S = 0; S < Plans.size() && S < Legality.size(); ++S)
    Plans[S] = Legality[S].clamp(Plans[S], Config.Target);
  return Plans;
}

std::string NeuroVectorizer::annotate(const std::string &Source,
                                      PredictMethod Method) {
  static ShardedHistogram &AnnotateUs =
      Telemetry::metrics().histogram("core.annotate_us");
  const uint64_t Start = nowMicros();
  struct RecordOnExit {
    ShardedHistogram &H;
    uint64_t Start;
    ~RecordOnExit() { H.record(nowMicros() - Start); }
  } Record{AnnotateUs, Start};

  std::string Error;
  std::optional<Program> Parsed = parseSource(Source, &Error);
  assert(Parsed && "annotate() requires a valid program");
  clearAllPragmas(*Parsed);
  std::vector<LoopSite> Sites = extractLoops(*Parsed);
  std::vector<VectorPlan> Plans = plansFor(Source, Method);
  assert(Plans.size() == Sites.size());
  for (size_t S = 0; S < Sites.size(); ++S)
    injectPragma(Sites[S], {Plans[S].VF, Plans[S].IF});
  return printProgram(*Parsed);
}

double NeuroVectorizer::cyclesFor(const std::string &Source,
                                  PredictMethod Method) {
  VectorizationEnv Scratch(SimCompiler(Config.Target, Config.Machine),
                           Config.Embedding.Paths);
  const bool Added = Scratch.addProgram("query", Source);
  assert(Added && "program with loops expected");
  (void)Added;
  if (Method == PredictMethod::Baseline)
    return Scratch.sample(0).BaselineCycles;
  std::vector<VectorPlan> Plans = plansFor(Source, Method);
  return Scratch.cyclesWith(0, Plans);
}

double NeuroVectorizer::speedupOverBaseline(const std::string &Source,
                                            PredictMethod Method) {
  const double Base = cyclesFor(Source, PredictMethod::Baseline);
  const double Mine = cyclesFor(Source, Method);
  return Base / Mine;
}

bool NeuroVectorizer::save(const std::string &Path, std::string *Error) {
  return trySave(Path, Error) == SaveStatus::Ok;
}

SaveStatus NeuroVectorizer::trySave(const std::string &Path,
                                    std::string *Error) {
  // The file carries the extraction setting the model was trained with so
  // a loading deployment reproduces the training-side embeddings, plus
  // whatever supervised backends have been distilled from these weights.
  ModelMeta Meta;
  Meta.InnerContextOnly = Env->innerContextOnly();
  SupervisedBundle Bundle;
  Bundle.NNS = &NNS->index();
  Bundle.Tree = &Tree->tree();
  return ModelSerializer::trySave(Path, *Embedder, *Pol, Meta, Bundle,
                                  Error);
}

bool NeuroVectorizer::load(const std::string &Path, std::string *Error) {
  ModelMeta Meta;
  SupervisedBundle Bundle;
  Bundle.NNS = &NNS->index();
  Bundle.Tree = &Tree->tree();
  if (!ModelSerializer::load(Path, *Embedder, *Pol, &Meta, &Bundle, Error))
    return false;
  // The loaded model dictates how loops must be embedded from now on:
  // predictions, serving, and training all follow it (the env re-extracts
  // the contexts of any programs it already holds, so a warm-start
  // train() after load() sees the right flavour too).
  Env->setInnerContextOnly(Meta.InnerContextOnly);
  // The plan cache was derived from the old weights. The supervised
  // backends were either restored from the file's own sections (distilled
  // from exactly these weights) or cleared by the serializer.
  if (Service) {
    Service->setContextExtraction(Meta.InnerContextOnly);
    Service->clearCache();
  }
  return true;
}

AnnotationService &NeuroVectorizer::service(const ServeConfig &Serve) {
  // The facade owns the consistency guarantee: whatever the caller set,
  // the service extracts contexts the way this instance's model does.
  ServeConfig Cfg = Serve;
  Cfg.InnerContextOnly = Env->innerContextOnly();
  Service = std::make_unique<AnnotationService>(
      *Embedder, Backends, Config.Embedding.Paths, Config.Target, Cfg);
  return *Service;
}

AnnotationService &NeuroVectorizer::service() {
  if (!Service)
    return service(ServeConfig());
  return *Service;
}

ServingModelConfig NeuroVectorizer::servingModelConfig() const {
  ServingModelConfig Cfg;
  Cfg.Embedding = Config.Embedding;
  Cfg.ActionSpace = Config.ActionSpace;
  Cfg.Hidden = Config.Hidden;
  Cfg.Target = Config.Target;
  Cfg.Machine = Config.Machine;
  Cfg.Seed = Config.Seed;
  return Cfg;
}

std::vector<AnnotationResult> NeuroVectorizer::annotateBatch(
    const std::vector<AnnotationRequest> &Requests) {
  return service().annotateBatch(Requests);
}
