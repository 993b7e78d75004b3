//===- serve/AnnotationService.cpp - Batched annotation serving ------------===//

#include "serve/AnnotationService.h"

#include "embedding/ContextBuffer.h"
#include "ir/Lowering.h"
#include "lang/LoopExtractor.h"
#include "lang/Parser.h"
#include "lang/PrettyPrinter.h"
#include "predictors/Backends.h"
#include "rl/StateFeatures.h"
#include "serve/ModelHost.h"
#include "support/StringUtils.h"
#include "support/Telemetry.h"

#include <cassert>

using namespace nv;

namespace {

/// Rounds \p Value up to the next power of two (min 1).
size_t roundUpPow2(size_t Value) {
  size_t P = 1;
  while (P < Value)
    P <<= 1;
  return P;
}

/// The next rung down the degradation ladder: learned methods degrade
/// toward the stock cost model. Baseline is the last model-backed rung —
/// it returns itself, which stops the walk and lets the identity floor
/// answer.
PredictMethod fallbackRung(PredictMethod M) {
  switch (M) {
  case PredictMethod::RL:
  case PredictMethod::NNS:
    return PredictMethod::DecisionTree;
  case PredictMethod::DecisionTree:
  case PredictMethod::Random:
  case PredictMethod::BruteForce:
    return PredictMethod::Baseline;
  case PredictMethod::Baseline:
    return PredictMethod::Baseline;
  }
  return PredictMethod::Baseline;
}

} // namespace

PlanCache::PlanCache(size_t Capacity, int Shards) {
  const size_t Count = roundUpPow2(
      static_cast<size_t>(Shards < 1 ? 1 : Shards));
  // Split the budget across shards, rounding up so the total never drops
  // below the requested capacity. Capacity 0 disables caching entirely.
  ShardCapacity = Capacity == 0 ? 0 : (Capacity + Count - 1) / Count;
  // std::deque: shards (with their mutexes) are constructed in place and
  // never move.
  Table.resize(Count);
}

bool PlanCache::lookup(const ContextKey &Key, VectorPlan &Out,
                       uint64_t Epoch, LegalityDigest *Digest) {
  Shard &S = shardFor(Key);
  std::lock_guard<std::mutex> Lock(S.Mutex);
  auto It = S.Index.find(Key);
  if (It == S.Index.end())
    return false;
  if (It->second->Epoch != Epoch) {
    // Stale generation: computed by a different model. Evict rather than
    // keep — the old generation will never be asked for again.
    S.Order.erase(It->second);
    S.Index.erase(It);
    return false;
  }
  S.Order.splice(S.Order.begin(), S.Order, It->second);
  Out = It->second->Plan;
  if (Digest)
    *Digest = It->second->Digest;
  return true;
}

void PlanCache::insert(const ContextKey &Key, VectorPlan Plan,
                       uint64_t Epoch, const LegalityDigest &Digest) {
  if (ShardCapacity == 0)
    return;
  Shard &S = shardFor(Key);
  std::lock_guard<std::mutex> Lock(S.Mutex);
  auto It = S.Index.find(Key);
  if (It != S.Index.end()) {
    It->second->Plan = Plan;
    It->second->Digest = Digest;
    It->second->Epoch = Epoch;
    S.Order.splice(S.Order.begin(), S.Order, It->second);
    return;
  }
  S.Order.push_front(Entry{Key, Plan, Digest, Epoch});
  S.Index[Key] = S.Order.begin();
  while (S.Order.size() > ShardCapacity) {
    S.Index.erase(S.Order.back().Key);
    S.Order.pop_back();
  }
}

size_t PlanCache::size() const {
  size_t Total = 0;
  for (const Shard &S : Table) {
    std::lock_guard<std::mutex> Lock(S.Mutex);
    Total += S.Order.size();
  }
  return Total;
}

void PlanCache::clear() {
  for (Shard &S : Table) {
    std::lock_guard<std::mutex> Lock(S.Mutex);
    S.Order.clear();
    S.Index.clear();
  }
}

ContextKey nv::contextBagKey(ContextSpan Contexts, bool InnerContextOnly,
                             PredictMethod Method) {
  ContextKey Key;
  Key.Lo = 0xCBF29CE484222325ull;
  Key.Hi = 0x2545F4914F6CDD1Dull;
  auto Mix = [&Key](uint64_t Value) {
    // Lo: FNV-1a a byte at a time over the 32-bit id.
    for (int Shift = 0; Shift < 32; Shift += 8)
      Key.Lo = fnv1aByte(Key.Lo,
                         static_cast<unsigned char>((Value >> Shift) & 0xFF));
    // Hi: splitmix64 absorption of the id (independent of FNV's
    // byte-serial structure, so a Lo collision almost surely differs in
    // Hi).
    Key.Hi = splitmix64(Key.Hi ^ Value);
  };
  // The extraction flavour and the backend are part of the identity: an
  // inner-context bag must never answer for an outer-context bag of the
  // same loop, and one backend's plan must never answer for another's.
  Mix(InnerContextOnly ? 0x1u : 0x0u);
  Mix(static_cast<uint64_t>(Method));
  for (const PathContext &Ctx : Contexts) {
    Mix(static_cast<uint32_t>(Ctx.SrcToken));
    Mix(static_cast<uint32_t>(Ctx.Path));
    Mix(static_cast<uint32_t>(Ctx.DstToken));
  }
  return Key;
}

ContextKey nv::contextBagKey(const std::vector<PathContext> &Contexts,
                             bool InnerContextOnly, PredictMethod Method) {
  return contextBagKey(ContextSpan{Contexts.data(), Contexts.size()},
                       InnerContextOnly, Method);
}

AnnotationService::AnnotationService(Code2Vec &Embedder,
                                     PredictorSet &Backends,
                                     const PathContextConfig &Paths,
                                     const TargetInfo &TI,
                                     const ServeConfig &Config)
    : Embedder(&Embedder), Backends(&Backends), Paths(Paths), TI(TI),
      Config(Config), Pool(Config.Threads),
      Cache(Config.CacheCapacity, Config.CacheShards),
      InnerContext(Config.InnerContextOnly) {
  initTelemetry();
  initResilience();
}

AnnotationService::AnnotationService(Code2Vec &Embedder, Policy &Pol,
                                     const PathContextConfig &Paths,
                                     const TargetInfo &TI,
                                     const ServeConfig &Config)
    : Embedder(&Embedder),
      OwnedBackends(std::make_unique<PredictorSet>()),
      Backends(OwnedBackends.get()), Paths(Paths), TI(TI), Config(Config),
      Pool(Config.Threads),
      Cache(Config.CacheCapacity, Config.CacheShards),
      InnerContext(Config.InnerContextOnly) {
  OwnedBackends->set(PredictMethod::RL,
                     std::make_unique<PolicyBackend>(Pol, TI));
  initTelemetry();
  initResilience();
}

AnnotationService::AnnotationService(ModelHost &Host,
                                     const PathContextConfig &Paths,
                                     const TargetInfo &TI,
                                     const ServeConfig &Config)
    : Host(&Host), Embedder(nullptr), Backends(nullptr), Paths(Paths),
      TI(TI), Config(Config), Pool(Config.Threads),
      Cache(Config.CacheCapacity, Config.CacheShards),
      InnerContext(Config.InnerContextOnly) {
  initTelemetry();
  initResilience();
}

void AnnotationService::initResilience() {
  for (int M = 0; M < NumPredictMethods; ++M) {
    Breakers[M].configure(Config.BreakerFailureThreshold,
                          Config.BreakerCooldownMicros);
    PredictFault[M] = &fault::point(std::string("serve.predict.") +
                                    methodName(static_cast<PredictMethod>(M)));
  }
}

void AnnotationService::initTelemetry() {
  if (!Config.Telemetry)
    return;
  MetricsRegistry &M = Telemetry::metrics();
  DegradedCounter = &M.counter("serve.degraded_requests");
  RequestUs = &M.histogram("serve.request_us");
  BatchUs = &M.histogram("serve.batch_us");
  ParseUs = &M.histogram("serve.parse_us");
  LoopExtractUs = &M.histogram("serve.loop_extract_us");
  ContextsUs = &M.histogram("serve.contexts_us");
  EmbedUs = &M.histogram("serve.embed_us");
  PredictUs = &M.histogram("serve.predict_us");
  RenderUs = &M.histogram("serve.render_us");
  Pool.attachTelemetry(M, "serve.pool");
}

void AnnotationService::setContextExtraction(bool InnerOnly) {
  InnerContext.store(InnerOnly);
}

AnnotationResult AnnotationService::annotateOne(const std::string &Name,
                                                const std::string &Source) {
  return annotateBatch({{Name, Source, std::nullopt}}).front();
}

AnnotationResult AnnotationService::annotateOne(const std::string &Name,
                                                const std::string &Source,
                                                PredictMethod Method) {
  return annotateBatch({{Name, Source, Method}}).front();
}

namespace {

/// Per-request working state threaded through the three phases. Contexts
/// are stored flat (all sites back to back) so phase 2 can hand the
/// embedder borrowed spans instead of copying bags around.
struct WorkItem {
  std::unique_ptr<Program> Prog;
  std::vector<LoopSite> Sites;
  std::vector<PathContext> ContextData; ///< All sites' contexts, flat.
  std::vector<uint32_t> ContextBegin;   ///< Per-site offsets (sites + 1).
  std::vector<ContextKey> Keys;         ///< Per site.
  std::vector<uint8_t> SiteDone; ///< Answered by the cache in phase 1.
  PredictMethod Method = PredictMethod::RL; ///< Resolved backend.
  Predictor *Backend = nullptr; ///< Null after resolution = identity floor.
  bool NeedsSearch = false; ///< Source-kind backend, cache missed.
  bool Degraded = false;    ///< Answered below the requested rung.

  ContextSpan siteContexts(size_t S) const {
    return {ContextData.data() + ContextBegin[S],
            ContextBegin[S + 1] - ContextBegin[S]};
  }
};

} // namespace

std::vector<AnnotationResult> AnnotationService::annotateBatch(
    const std::vector<AnnotationRequest> &Requests) {
  const uint64_t BatchStart = nowMicros();
  const size_t N = Requests.size();
  std::vector<AnnotationResult> Results(N);
  std::vector<WorkItem> Items(N);
  // Resolve the model once for the whole batch. Hosted mode is an RCU
  // read: the acquired shared_ptr pins this generation to the end of the
  // batch, so a concurrent ModelHost::reload() can flip the published
  // pointer without ever pulling the model out from under us — the old
  // generation dies when its last in-flight batch drops it. Everything
  // generation-scoped rides along: the extraction flavour comes from the
  // model's persisted metadata, and the generation id doubles as the plan
  // cache epoch for both lookups and inserts (so an old-generation batch
  // cannot read new plans or poison new lookups with old ones).
  std::shared_ptr<const ServingModel> Model;
  Code2Vec *E = Embedder;
  PredictorSet *B = Backends;
  uint64_t Epoch = 0;
  // One flavour per batch: a concurrent setContextExtraction flips future
  // batches, never this one.
  bool InnerOnly = InnerContext.load();
  if (Host) {
    Model = Host->current();
    E = &Model->embedder();
    B = &Model->backends();
    Epoch = Model->generation();
    InnerOnly = Model->meta().InnerContextOnly;
  }
  const PredictMethod Default = Config.DefaultMethod;

  // Counters accumulate into a batch-local delta and publish once at the
  // end (ServeStats::addBatch), so readers never see a half-applied
  // batch. Trace spans are decided once per batch by the sampling knob;
  // a null buffer makes every span in this batch free.
  ServeStats Delta;
  TraceBuffer *TB = nullptr;
  if (Config.Telemetry && Telemetry::trace().shouldSample())
    TB = &Telemetry::trace();
  const uint64_t BatchId =
      NextBatchId.fetch_add(1, std::memory_order_relaxed);
  TraceSpan BatchSpan(TB, "serve.batch", BatchId);

  // --- Phase 1: parse + extract + cache lookups, in parallel --------------
  // Everything per-request happens here, on the worker: parsing, loop
  // extraction, allocation-free path-context extraction through the
  // thread's ContextBuffer arena, key hashing, and the sharded-cache
  // lookups — so cache hits are fully answered without ever touching the
  // model lock.
  const uint64_t ExtractStart = nowMicros();
  Pool.parallelFor(0, N, [&](size_t I) {
    const AnnotationRequest &Req = Requests[I];
    AnnotationResult &Res = Results[I];
    WorkItem &Item = Items[I];
    Res.Name = Req.Name;
    Res.Generation = Epoch;
    Item.Method = Req.Method.value_or(Default);
    Res.Method = Item.Method;
    // An unregistered method is a configuration bug, not a transient
    // fault — it stays a hard error even with the fallback ladder on.
    if (!B->get(Item.Method)) {
      Res.Error = std::string("no backend registered for method '") +
                  methodName(Item.Method) + "'";
      return;
    }
    // Walk the degradation ladder until a rung is fitted and its circuit
    // breaker admits the request. The requested method is rung zero, so a
    // healthy backend resolves to itself with one breaker check.
    const uint64_t ResolveNow = nowMicros();
    PredictMethod Rung = Item.Method;
    for (;;) {
      Predictor *Cand = B->get(Rung);
      if (Cand && Cand->ready() &&
          Breakers[static_cast<size_t>(Rung)].allow(ResolveNow)) {
        Item.Backend = Cand;
        break;
      }
      const PredictMethod Next = fallbackRung(Rung);
      if (!Config.Fallback || Next == Rung)
        break;
      Rung = Next;
    }
    if (!Item.Backend && !Config.Fallback) {
      // Strict contract: report why the requested backend refused.
      if (!B->get(Item.Method)->ready())
        Res.Error = std::string("backend '") + methodName(Item.Method) +
                    "' is not fitted (distill the model first)";
      else
        Res.Error = std::string("backend '") + methodName(Item.Method) +
                    "' is unavailable (circuit breaker open)";
      return;
    }
    if (Rung != Item.Method || !Item.Backend) {
      // A fallback rung (or the identity floor) answers. Re-keying the
      // request under the answering method keeps caching exact — from
      // here on it is indistinguishable from an explicit request for
      // that rung, except for the Degraded flag.
      Item.Degraded = true;
      Res.Degraded = true;
      if (Item.Backend) {
        Item.Method = Rung;
        Res.Method = Rung;
      }
    }
    const uint64_t ParseStart = nowMicros();
    std::string ParseError;
    std::optional<Program> Parsed = parseSource(Req.Source, &ParseError);
    const uint64_t ParseTime = nowMicros() - ParseStart;
    Delta.ParseMicros += ParseTime;
    if (ParseUs)
      ParseUs->record(ParseTime);
    if (TB)
      TB->record("serve.parse", ParseStart, ParseTime, BatchId);
    if (!Parsed) {
      Res.Error = "parse error: " + ParseError;
      return;
    }
    Item.Prog = std::make_unique<Program>(std::move(*Parsed));
    clearAllPragmas(*Item.Prog);
    const uint64_t SitesStart = nowMicros();
    // The serving path never reads ContextText; skip the per-site
    // pretty-print the training-side extractor pays for it.
    Item.Sites = extractLoops(*Item.Prog, /*WithContextText=*/false);
    const uint64_t SitesTime = nowMicros() - SitesStart;
    Delta.LoopExtractMicros += SitesTime;
    if (LoopExtractUs)
      LoopExtractUs->record(SitesTime);
    if (TB)
      TB->record("serve.loop_extract", SitesStart, SitesTime, BatchId);
    if (Item.Sites.empty()) {
      Item.Prog.reset();
      Res.Error = "no vectorizable loops";
      return;
    }

    if (!Item.Backend) {
      // Identity floor: every rung refused. Serve VF=1/IF=1 for every
      // site — always legal, no model, no embedding, no cache — instead
      // of failing the request. Phase 3 renders it like any other.
      Delta.forMethod(Item.Method).Loops += Item.Sites.size();
      Res.Plans.assign(Item.Sites.size(), VectorPlan{});
      Res.Legality.assign(Item.Sites.size(), LegalityDigest());
      return;
    }

    const uint64_t ContextStart = nowMicros();
    static thread_local ContextBuffer Buf;
    Item.ContextBegin.reserve(Item.Sites.size() + 1);
    Item.ContextBegin.push_back(0);
    for (const LoopSite &Site : Item.Sites) {
      // Mirror the training-side extraction (VectorizationEnv::addProgram)
      // so the policy sees the embedding distribution it was trained on.
      const Stmt &ContextRoot =
          InnerOnly ? static_cast<const Stmt &>(*Site.Inner)
                    : static_cast<const Stmt &>(*Site.Outer);
      const ContextSpan Span =
          extractPathContextsInto(ContextRoot, Paths, Buf);
      Item.ContextData.insert(Item.ContextData.end(), Span.begin(),
                              Span.end());
      Item.ContextBegin.push_back(
          static_cast<uint32_t>(Item.ContextData.size()));
      Item.Keys.push_back(
          contextBagKey(Span, InnerOnly, Item.Method));
    }
    const uint64_t ContextTime = nowMicros() - ContextStart;
    Delta.ContextMicros += ContextTime;
    if (ContextsUs)
      ContextsUs->record(ContextTime);
    if (TB)
      TB->record("serve.contexts", ContextStart, ContextTime, BatchId);

    // Sharded-cache lookups, still on the worker thread. Hits restore the
    // legality digest stored with the plan, so only misses pay for the
    // analysis below.
    MethodCounters &MC = Delta.forMethod(Item.Method);
    Res.Plans.assign(Item.Sites.size(), VectorPlan{});
    Res.Legality.assign(Item.Sites.size(), LegalityDigest());
    Item.SiteDone.assign(Item.Sites.size(), 0);
    if (Item.Backend->kind() == Predictor::Kind::Source) {
      MC.Loops += Item.Sites.size();
      // A site plan from a search backend can depend on the whole
      // program (coordinate descent couples sites), so the per-site
      // cache only holds plans of single-site programs.
      bool Hit = false;
      if (Item.Backend->cacheable() && Item.Sites.size() == 1) {
        VectorPlan HitPlan;
        if (Cache.lookup(Item.Keys[0], HitPlan, Epoch, &Res.Legality[0])) {
          Res.Plans[0] = HitPlan;
          ++Res.CachedSites;
          ++Delta.CacheHits;
          ++MC.CacheHits;
          Item.SiteDone[0] = 1;
          Hit = true;
        }
      }
      Item.NeedsSearch = !Hit;
    } else {
      for (size_t S = 0; S < Item.Sites.size(); ++S) {
        ++MC.Loops;
        VectorPlan Hit;
        if (Cache.lookup(Item.Keys[S], Hit, Epoch, &Res.Legality[S])) {
          Res.Plans[S] = Hit;
          ++Res.CachedSites;
          ++Delta.CacheHits;
          ++MC.CacheHits;
          Item.SiteDone[S] = 1;
        }
      }
    }

    // Legality analysis for every site the cache could not answer: lower
    // the program once, dependence-test each missed site, and keep the
    // digest — phase 2 widens the policy input with it and clamps the
    // prediction against its max-safe VF, and it rides into the cache
    // with the plan so future hits skip all of this.
    bool AnyMiss = false;
    for (const uint8_t Done : Item.SiteDone)
      if (!Done) {
        AnyMiss = true;
        break;
      }
    if (AnyMiss) {
      const uint64_t LegalStart = nowMicros();
      const std::vector<LoopSummary> Summaries =
          lowerAllLoops(*Item.Prog, Item.Sites, TI.MaxVF);
      for (size_t S = 0; S < Item.Sites.size(); ++S) {
        if (Item.SiteDone[S])
          continue;
        const LegalitySummary Legal = analyzeLegality(Summaries[S], TI);
        Res.Legality[S] = Legal.digest();
        ++Delta.LoopsAnalyzed;
        for (int C = 0; C < NumAccessClasses; ++C)
          Delta.AccessClasses[C] += Res.Legality[S].ClassCount[C];
      }
      const uint64_t LegalTime = nowMicros() - LegalStart;
      Delta.LegalityMicros += LegalTime;
      if (TB)
        TB->record("serve.legality", LegalStart, LegalTime, BatchId);
    }
  });
  const uint64_t ExtractTime = nowMicros() - ExtractStart;
  Delta.ExtractMicros += ExtractTime;
  if (TB)
    TB->record("serve.extract", ExtractStart, ExtractTime, BatchId);

  // --- Phase 2: dedup + batched embed + per-backend inference -------------
  const uint64_t InferStart = nowMicros();
  // Requests routed to source-kind backends that the cache could not
  // answer; computed after the model lock drops (they never touch the
  // shared model).
  std::vector<size_t> SourceMisses;
  {
    std::lock_guard<std::mutex> Lock(ModelMutex);

    // Gather the sites the phase-1 lookups could not answer,
    // deduplicating identical loops within the batch so each distinct key
    // is embedded once (keys include the method, so rows are per backend
    // by construction). MissContexts borrows each item's flat context
    // storage — no bag is copied on the way to the embedder.
    struct PendingSite {
      size_t Request;
      size_t Site;
      size_t BatchRow; ///< Row in the miss batch.
    };
    std::vector<PendingSite> Pending;
    std::vector<ContextSpan> MissContexts;
    std::vector<PredictMethod> RowMethods; ///< Backend per miss row.
    /// Legality digest per miss row (identical context bags are identical
    /// loop bodies, so dedup'd rows share one analysis result).
    std::vector<LegalityDigest> RowDigests;
    std::unordered_map<ContextKey, size_t, ContextKeyHash> RowByKey;

    for (size_t I = 0; I < N; ++I) {
      WorkItem &Item = Items[I];
      if (!Item.Prog || !Item.Backend) // Rejected or identity floor.
        continue;
      if (Item.Backend->kind() == Predictor::Kind::Source) {
        if (Item.NeedsSearch)
          SourceMisses.push_back(I);
        continue;
      }
      MethodCounters &MC = Delta.forMethod(Item.Method);
      for (size_t S = 0; S < Item.Sites.size(); ++S) {
        if (Item.SiteDone[S])
          continue;
        auto [It, Inserted] =
            RowByKey.try_emplace(Item.Keys[S], MissContexts.size());
        if (Inserted) {
          MissContexts.push_back(Item.siteContexts(S));
          RowMethods.push_back(Item.Method);
          RowDigests.push_back(Results[I].Legality[S]);
          ++Delta.CacheMisses;
          ++MC.Misses;
        } else {
          ++Delta.DedupHits; // Same loop earlier in this batch.
          ++MC.DedupHits;
        }
        Pending.push_back({I, S, It->second});
      }
    }

    if (!MissContexts.empty()) {
      // The whole miss set — across backends — goes through the embedder
      // as one (rows x dim) batch: the single matrix-matrix multiply this
      // subsystem exists for. The same pool that ran phase 1 now runs the
      // GEMM row panels (bit-identical at any pool size). Each backend
      // then consumes its own rows; when one backend owns the whole batch
      // (the common case) it reads the encode buffer in place.
      const uint64_t EmbedStart = nowMicros();
      E->encodeSpansInto(MissContexts, StatesBuf, &Pool);
      const uint64_t EmbedTime = nowMicros() - EmbedStart;
      Delta.EmbedMicros += EmbedTime;
      if (EmbedUs)
        EmbedUs->record(EmbedTime);
      if (TB)
        TB->record("serve.embed", EmbedStart, EmbedTime, BatchId);

      std::vector<VectorPlan> RowPlans(MissContexts.size());
      std::vector<uint8_t> RowDegraded(MissContexts.size(), 0);
      std::vector<uint8_t> RowFailed(MissContexts.size(), 0);
      std::vector<size_t> MethodRows[NumPredictMethods];
      for (size_t Row = 0; Row < RowMethods.size(); ++Row)
        MethodRows[static_cast<size_t>(RowMethods[Row])].push_back(Row);

      Matrix Sub;
      Matrix WideBuf;
      std::vector<LegalityDigest> SubDigests;
      // One guarded predict of \p Rows on \p P (the backend for \p M):
      // fault hooks and exceptions become a breaker failure instead of
      // tearing down the batch. True = RowPlans filled for those rows.
      auto predictRows = [&](Predictor *P, PredictMethod M,
                             const std::vector<size_t> &Rows) -> bool {
        const Matrix *States = &StatesBuf;
        const LegalityDigest *Digests = RowDigests.data();
        if (Rows.size() != MissContexts.size()) {
          Sub.resize(static_cast<int>(Rows.size()), StatesBuf.cols());
          SubDigests.clear();
          SubDigests.reserve(Rows.size());
          for (size_t R = 0; R < Rows.size(); ++R) {
            std::copy(StatesBuf.rowPtr(static_cast<int>(Rows[R])),
                      StatesBuf.rowPtr(static_cast<int>(Rows[R])) +
                          StatesBuf.cols(),
                      Sub.rowPtr(static_cast<int>(R)));
            SubDigests.push_back(RowDigests[Rows[R]]);
          }
          States = &Sub;
          Digests = SubDigests.data();
        }
        // A legality-feature policy consumes widened rows; feature-free
        // backends (wantsCols() <= codeDim) pass through untouched.
        States = &widenStates(*States, P->wantsCols(), Digests, Rows.size(),
                              TI, WideBuf);
        const uint64_t PredictStart = nowMicros();
        bool Failed = fault::fired(*PredictFault[static_cast<size_t>(M)]);
        std::vector<VectorPlan> Plans;
        if (!Failed) {
          try {
            Plans = P->plansForEmbeddings(*States, &Pool);
          } catch (const std::exception &) {
            Failed = true;
          }
        }
        const uint64_t PredictTime = nowMicros() - PredictStart;
        Delta.forMethod(M).PredictMicros += PredictTime;
        if (PredictUs)
          PredictUs->record(PredictTime);
        if (TB)
          TB->record("serve.predict", PredictStart, PredictTime, BatchId);
        CircuitBreaker &Breaker = Breakers[static_cast<size_t>(M)];
        if (Failed || Plans.size() != Rows.size()) {
          ++Delta.PredictFailures;
          Breaker.recordFailure(nowMicros());
          return false;
        }
        if (Config.PredictTimeoutMicros > 0 &&
            PredictTime > Config.PredictTimeoutMicros)
          // A late answer is still used — it was merely slow — but it
          // counts against the breaker so a degrading backend trips out.
          Breaker.recordFailure(nowMicros());
        else
          Breaker.recordSuccess();
        ++Delta.ForwardPasses;
        Delta.LoopsPerForward += Rows.size();
        for (size_t R = 0; R < Rows.size(); ++R)
          RowPlans[Rows[R]] = Plans[R];
        return true;
      };

      for (int M = 0; M < NumPredictMethods; ++M) {
        const std::vector<size_t> &Rows = MethodRows[M];
        if (Rows.empty())
          continue;
        // A backend can start failing mid-flight (injected fault, a bad
        // generation) after phase 1 resolved to it; its rows retry down
        // the embedding rungs of the same ladder rather than failing the
        // requests. Rows answered below their keyed rung are flagged
        // degraded and never cached — their key names the failed method.
        bool Answered = false;
        for (PredictMethod Rung = static_cast<PredictMethod>(M);;) {
          Predictor *P = B->get(Rung);
          if (P && P->ready() && P->kind() == Predictor::Kind::Embedding &&
              predictRows(P, Rung, Rows)) {
            Answered = true;
            if (Rung != static_cast<PredictMethod>(M))
              for (size_t Row : Rows)
                RowDegraded[Row] = 1;
            break;
          }
          const PredictMethod Next = fallbackRung(Rung);
          if (!Config.Fallback || Next == Rung)
            break;
          Rung = Next;
        }
        if (!Answered)
          for (size_t Row : Rows) {
            // Ladder on: the rows keep their identity-plan default
            // (floor). Strict mode: the owning requests error out below.
            if (Config.Fallback)
              RowDegraded[Row] = 1;
            else
              RowFailed[Row] = 1;
          }
      }

      // Legality clamp: no prediction leaves phase 2 wider than its
      // loop's max safe VF (the same legalizePlan the simulator applies,
      // so serve output and simulation agree plan for plan).
      for (size_t Row = 0; Row < RowPlans.size(); ++Row) {
        const VectorPlan Legal =
            legalizePlan(RowDigests[Row].MaxSafeVF, RowPlans[Row], TI);
        if (Legal.VF != RowPlans[Row].VF || Legal.IF != RowPlans[Row].IF)
          ++Delta.PlansClamped;
        RowPlans[Row] = Legal;
      }

      for (const PendingSite &P : Pending) {
        if (RowFailed[P.BatchRow]) {
          // Strict mode: one unanswerable site fails its whole request.
          AnnotationResult &Res = Results[P.Request];
          if (Res.Error.empty())
            Res.Error = std::string("backend '") +
                        methodName(Items[P.Request].Method) +
                        "' predict failed";
          Items[P.Request].Prog.reset();
          continue;
        }
        if (RowDegraded[P.BatchRow]) {
          Items[P.Request].Degraded = true;
          Results[P.Request].Degraded = true;
        }
        Results[P.Request].Plans[P.Site] = RowPlans[P.BatchRow];
      }
      // Degraded rows are keyed under the method that failed but answered
      // by another rung (or the floor) — caching them would serve fallback
      // plans as that backend's after it recovers, so they stay out.
      for (const auto &[Key, Row] : RowByKey)
        if (!RowDegraded[Row] && !RowFailed[Row])
          Cache.insert(Key, RowPlans[Row], Epoch, RowDigests[Row]);
    }
  }

  // --- Phase 2b: source-kind backends (search per program, on the pool) ---
  if (!SourceMisses.empty()) {
    Pool.parallelFor(0, SourceMisses.size(), [&](size_t K) {
      const size_t I = SourceMisses[K];
      WorkItem &Item = Items[I];
      MethodCounters &MC = Delta.forMethod(Item.Method);
      CircuitBreaker &Breaker = Breakers[static_cast<size_t>(Item.Method)];
      const uint64_t PredictStart = nowMicros();
      bool Failed =
          fault::fired(*PredictFault[static_cast<size_t>(Item.Method)]);
      std::vector<VectorPlan> Plans;
      if (!Failed) {
        try {
          Plans = Item.Backend->plansForSource(Requests[I].Source);
        } catch (const std::exception &) {
          Failed = true;
        }
      }
      const uint64_t PredictTime = nowMicros() - PredictStart;
      MC.PredictMicros += PredictTime;
      if (PredictUs)
        PredictUs->record(PredictTime);
      if (TB)
        TB->record("serve.predict", PredictStart, PredictTime, BatchId);
      if (Failed || Plans.size() != Item.Sites.size()) {
        ++Delta.PredictFailures;
        Breaker.recordFailure(nowMicros());
        if (!Config.Fallback) {
          Results[I].Error = std::string("backend '") +
                             methodName(Item.Method) + "' predict failed";
          Item.Prog.reset();
          return;
        }
        // A failed search floors to the identity plans phase 1 left in
        // Res.Plans; the request still renders, flagged degraded.
        Item.Degraded = true;
        Results[I].Degraded = true;
        return;
      }
      if (Config.PredictTimeoutMicros > 0 &&
          PredictTime > Config.PredictTimeoutMicros)
        Breaker.recordFailure(nowMicros());
      else
        Breaker.recordSuccess();
      MC.Misses += Plans.size();
      Delta.CacheMisses += Plans.size();
      // Search backends explore the simulator's (clamped) plan space, so
      // their plans are normally legal already — the clamp pins the
      // invariant at the serve boundary regardless of backend.
      for (size_t S = 0; S < Plans.size(); ++S) {
        const VectorPlan Legal = legalizePlan(
            Results[I].Legality[S].MaxSafeVF, Plans[S], TI);
        if (Legal.VF != Plans[S].VF || Legal.IF != Plans[S].IF)
          ++Delta.PlansClamped;
        Plans[S] = Legal;
      }
      if (Item.Backend->cacheable() && Plans.size() == 1)
        Cache.insert(Item.Keys[0], Plans[0], Epoch, Results[I].Legality[0]);
      Results[I].Plans = std::move(Plans);
    });
  }
  const uint64_t InferTime = nowMicros() - InferStart;
  Delta.InferMicros += InferTime;
  if (TB)
    TB->record("serve.infer", InferStart, InferTime, BatchId);

  // --- Phase 3: inject pragmas + re-print, in parallel --------------------
  const uint64_t RenderStart = nowMicros();
  Pool.parallelFor(0, N, [&](size_t I) {
    WorkItem &Item = Items[I];
    if (!Item.Prog)
      return;
    AnnotationResult &Res = Results[I];
    for (size_t S = 0; S < Item.Sites.size(); ++S)
      injectPragma(Item.Sites[S],
                   {Res.Plans[S].VF, Res.Plans[S].IF});
    Res.Annotated = printProgram(*Item.Prog);
    Res.Ok = true;
  });
  const uint64_t RenderTime = nowMicros() - RenderStart;
  Delta.RenderMicros += RenderTime;
  if (RenderUs)
    RenderUs->record(RenderTime);
  if (TB)
    TB->record("serve.render", RenderStart, RenderTime, BatchId);

  // --- Bookkeeping ---------------------------------------------------------
  ++Delta.BatchesServed;
  uint64_t DegradedCount = 0;
  for (const AnnotationResult &Res : Results) {
    if (Res.Ok) {
      ++Delta.ProgramsServed;
      Delta.LoopsServed += Res.Plans.size();
      if (Res.Degraded)
        ++DegradedCount;
    } else {
      ++Delta.ProgramsRejected;
    }
  }
  Delta.DegradedRequests += DegradedCount;
  if (DegradedCounter && DegradedCount)
    DegradedCounter->add(DegradedCount);
  const uint64_t BatchTime = nowMicros() - BatchStart;
  Delta.TotalMicros += BatchTime;
  // Publish the whole batch at once; snapshot() readers see it
  // all-or-nothing.
  Stats.addBatch(Delta);
  if (BatchUs) {
    BatchUs->record(BatchTime);
    // Per-request end-to-end latency: every request in a batch waits out
    // the batch wall clock, so each contributes the batch time.
    for (size_t I = 0; I < N; ++I)
      RequestUs->record(BatchTime);
  }
  return Results;
}
