//===- serve/ModelHost.cpp - RCU-published serving model set --------------===//

#include "serve/ModelHost.h"

#include "predictors/Backends.h"
#include "support/FaultInjection.h"

using namespace nv;

ServingModel::ServingModel(const ServingModelConfig &Config)
    : Rng(Config.Seed), Embedder(Config.Embedding, Rng),
      Pol(Config.ActionSpace,
          Embedder.codeDim() +
              (Config.LegalityFeatures ? NumLegalityFeatures : 0),
          Config.Hidden,
          static_cast<int>(Config.Target.vfActions().size()),
          static_cast<int>(Config.Target.ifActions().size()), Rng) {
  Meta.LegalityFeatures = Config.LegalityFeatures;
  // The same registry NeuroVectorizer wires up: every PredictMethod is
  // servable from a hosted model, and the supervised slots are the
  // destinations tryLoad restores v3 sections into.
  Backends.set(PredictMethod::RL,
               std::make_unique<PolicyBackend>(Pol, Config.Target));
  auto NNSOwned = std::make_unique<NNSBackend>(/*K=*/3);
  NNS = NNSOwned.get();
  Backends.set(PredictMethod::NNS, std::move(NNSOwned));
  auto TreeOwned = std::make_unique<TreeBackend>(Config.Target);
  Tree = TreeOwned.get();
  Backends.set(PredictMethod::DecisionTree, std::move(TreeOwned));
  Backends.set(PredictMethod::Baseline,
               std::make_unique<BaselineBackend>(
                   Config.Target, Config.Machine, Config.Embedding.Paths));
  Backends.set(PredictMethod::Random,
               std::make_unique<RandomBackend>(Config.Target, Config.Machine,
                                               Config.Embedding.Paths,
                                               Config.Seed ^ 0x5EED5EEDull));
  Backends.set(PredictMethod::BruteForce,
               std::make_unique<BruteForceBackend>(
                   Config.Target, Config.Machine, Config.Embedding.Paths));
}

ModelHost::ModelHost(const ServingModelConfig &Config) : Config(Config) {
  auto Initial = std::make_shared<ServingModel>(Config);
  Initial->Generation = 0;
  std::atomic_store(&Current,
                    std::shared_ptr<const ServingModel>(std::move(Initial)));
}

std::shared_ptr<const ServingModel> ModelHost::current() const {
  return std::atomic_load(&Current);
}

LoadStatus ModelHost::reload(const std::string &Path, std::string *Error) {
  // Chaos hook: the suite proves a failed reload leaves the published
  // generation serving (and the daemon maps the failure to a clean
  // RELOAD_FAILED) without needing an actually-corrupt model file.
  static fault::FaultPoint &FP = fault::point("model.reload");
  if (fault::fired(FP)) {
    if (Error)
      *Error = "fault injected: model.reload";
    return LoadStatus::OpenFailed;
  }
  // Build + validate entirely off to the side. Readers keep serving the
  // published generation; only the final pointer flip is visible to them.
  auto Fresh = std::make_shared<ServingModel>(Config);
  SupervisedBundle Bundle;
  Bundle.NNS = &Fresh->NNS->index();
  Bundle.Tree = &Fresh->Tree->tree();
  const LoadStatus Status = ModelSerializer::tryLoad(
      Path, Fresh->Embedder, Fresh->Pol, &Fresh->Meta, &Bundle, Error);
  if (Status != LoadStatus::Ok)
    return Status;
  Fresh->Path = Path;

  // Writers serialize so generation ids are dense and monotonic even
  // under concurrent reloads; the store itself is the RCU flip.
  std::lock_guard<std::mutex> Lock(ReloadMutex);
  Fresh->Generation = Generation.load() + 1;
  std::atomic_store(&Current,
                    std::shared_ptr<const ServingModel>(std::move(Fresh)));
  Generation.fetch_add(1);
  return LoadStatus::Ok;
}
