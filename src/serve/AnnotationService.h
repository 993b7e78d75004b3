//===- serve/AnnotationService.h - Batched annotation serving ---*- C++ -*-===//
//
// Part of the NeuroVectorizer reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The high-throughput inference front-end over a trained model. Where
/// NeuroVectorizer::annotate handles one program on one thread, this
/// service takes a whole batch and pipelines it in three phases:
///
///   1. extract  (parallel)  parse, strip pragmas, extract loop sites and
///                           their path contexts — allocation-free
///                           through a per-thread ContextBuffer arena —
///                           hash each site's canonical context bag into
///                           a cache key, and answer it from the sharded
///                           plan cache right here, on the worker: cache
///                           hits never touch the model lock, and
///                           concurrent batches' lookups spread over the
///                           cache shards instead of serializing.
///   2. infer    (serial)    deduplicate the remaining misses by key and
///                           run ONE Code2Vec::encodeSpansInto over their
///                           borrowed context spans (no bag copies), then
///                           hand each backend its rows (the RL backend's
///                           share is a single batched Policy::forward —
///                           the FCNN trunk becomes one matrix-matrix
///                           multiply, row-panel-parallel on the same
///                           pool). Requests routed to source-kind
///                           backends (baseline, random, brute force) are
///                           searched per program on the pool, outside
///                           the model lock.
///   3. render   (parallel)  inject the chosen pragmas and re-print each
///                           program.
///
/// Every request is answered by the backend named by its Method override
/// (ServeConfig::DefaultMethod otherwise); the method is part of the plan
/// cache key, so backends never answer for each other.
///
/// Degradation ladder (fault-hardening pass): when the requested backend
/// is unavailable — unfitted, failing, or circuit-broken — and
/// ServeConfig::Fallback is on, the request walks down RL → decision
/// tree → baseline cost model → identity plans instead of erroring, and
/// the result is flagged Degraded. Each backend has a CircuitBreaker fed
/// by predict failures, so a broken backend is skipped at
/// resolution time instead of failing every request for a cooldown. An
/// *unregistered* method stays a hard error (that is a configuration
/// bug, not a transient fault).
///
/// Path contexts are extracted with the same inner/outer-loop selection
/// the training environment used (ServeConfig::InnerContextOnly, mirrored
/// from VectorizationEnv and persisted in the model file) — serving a
/// model on embeddings it was never trained on is silent skew.
///
/// Results are deterministic: phase 2 walks sites in request order, the
/// policy is evaluated greedily, the kernels are bit-identical at any pool
/// size, and phases 1/3 are pure per-item work — so the pool size never
/// changes the output, only the wall clock.
///
/// Counting: every serving count is a serve.* counter in the process-wide
/// telemetry registry (support/Telemetry.h). Each work item keeps plain
/// counts, and the finished batch publishes them in one
/// MetricsRegistry::publish call, so a statsz snapshot sees a batch
/// all-or-nothing. Phase times are serve.*_us histograms.
///
//===----------------------------------------------------------------------===//

#ifndef NV_SERVE_ANNOTATIONSERVICE_H
#define NV_SERVE_ANNOTATIONSERVICE_H

#include "embedding/Code2Vec.h"
#include "ir/Legality.h"
#include "predictors/Predictor.h"
#include "serve/CircuitBreaker.h"
#include "support/FaultInjection.h"
#include "support/ThreadPool.h"
#include "target/TargetInfo.h"

#include <atomic>
#include <cstdint>
#include <deque>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace nv {

class Counter;
class ModelHost;
class ServingModel;
class ShardedHistogram;
class TraceBuffer;

/// Service tuning knobs.
struct ServeConfig {
  int Threads = 4;            ///< Worker pool size.
  size_t CacheCapacity = 4096; ///< LRU plan-cache entries (0 disables).
  /// Plan-cache shard count (rounded up to a power of two). Concurrent
  /// annotateBatch callers hit different shards' mutexes instead of one
  /// global lock; capacity is split evenly across shards.
  int CacheShards = 8;
  /// Embed the innermost loop's body instead of the outermost's. Must
  /// match the setting the model was trained with
  /// (VectorizationEnv::innerContextOnly); NeuroVectorizer::service()
  /// fills it in automatically and load() restores it from the model file.
  bool InnerContextOnly = false;
  /// Backend answering requests that carry no per-request override.
  PredictMethod DefaultMethod = PredictMethod::RL;
  /// Record per-phase latency histograms (serve.*_us), pool queue
  /// metrics, and — when the trace sampling knob is on — phase spans
  /// into the process-wide telemetry (support/Telemetry.h). Histogram
  /// recording is a few relaxed atomic adds per phase; spans cost
  /// nothing until Telemetry::trace().setSampleEvery() enables them.
  /// The serve.* counters are published either way.
  bool Telemetry = true;
  /// Degradation ladder: when the requested backend is unavailable
  /// (unfitted, circuit-broken, or failing mid-predict), answer from the
  /// next rung down (RL → tree → baseline → identity plans) with the
  /// result flagged Degraded, instead of erroring. Off restores the
  /// strict contract: unavailable backend → per-request error.
  bool Fallback = true;
  /// Consecutive predict failures that trip a backend's circuit breaker.
  int BreakerFailureThreshold = 3;
  /// How long a tripped breaker refuses the backend before letting
  /// probe requests through again.
  uint64_t BreakerCooldownMicros = 5'000'000;
};

/// One program to annotate.
struct AnnotationRequest {
  std::string Name;
  std::string Source;
  /// Per-request backend override (ServeConfig::DefaultMethod otherwise).
  std::optional<PredictMethod> Method;
};

/// One annotated program (or a rejection).
struct AnnotationResult {
  std::string Name;
  bool Ok = false;
  /// Ok, but answered by a fallback-ladder backend (or the identity
  /// floor) because the requested one was unavailable; Method then names
  /// the rung that actually answered (or the requested method when the
  /// floor answered). See the DEGRADED contract in net/Protocol.h.
  bool Degraded = false;
  std::string Error;    ///< Parse error / "no loops" when !Ok.
  std::string Annotated; ///< Source with pragmas injected.
  std::vector<VectorPlan> Plans; ///< One per vectorization site.
  /// Per-site legality digest (parallel to Plans): access-class counts,
  /// max safe VF, and the legal-plan bitmask the plan was clamped
  /// against. Cache hits carry the digest stored with the cached plan.
  std::vector<LegalityDigest> Legality;
  int CachedSites = 0;  ///< Sites answered from the plan cache.
  PredictMethod Method = PredictMethod::RL; ///< Backend that answered.
  /// Model generation that answered (hosted mode; 0 for borrowed models).
  /// Every site in a result is answered by exactly this generation.
  uint64_t Generation = 0;
};

/// 128-bit cache key for a canonical path-context bag. A single 64-bit
/// hash over thousands of cached loops leaves a real birthday-collision
/// risk, and a collision silently serves the wrong plan; two independent
/// 64-bit hashes push that risk below any practical cache size.
struct ContextKey {
  uint64_t Lo = 0;
  uint64_t Hi = 0;

  bool operator==(const ContextKey &O) const {
    return Lo == O.Lo && Hi == O.Hi;
  }
  bool operator!=(const ContextKey &O) const { return !(*this == O); }
};

/// Hash functor for unordered containers (the key is already uniform).
struct ContextKeyHash {
  size_t operator()(const ContextKey &K) const {
    return static_cast<size_t>(K.Lo ^ (K.Hi * 0x9E3779B97F4A7C15ull));
  }
};

/// Stable 128-bit key for a canonical path-context bag (two independent
/// hashes over the vocabulary ids in extraction order). The extraction
/// flavour is mixed in so inner- and outer-context embeddings of the same
/// loop can never answer for each other, and the prediction method is
/// mixed in so one backend's cached plans can never answer for another's.
ContextKey contextBagKey(ContextSpan Contexts, bool InnerContextOnly = false,
                         PredictMethod Method = PredictMethod::RL);

/// Convenience overload over an owned bag.
ContextKey contextBagKey(const std::vector<PathContext> &Contexts,
                         bool InnerContextOnly = false,
                         PredictMethod Method = PredictMethod::RL);

/// Sharded LRU cache mapping a context-bag key to the plan the policy
/// chose for it. Identical loops (after canonicalization into path
/// contexts) are the common case in generated and templated code, so
/// batches full of near-duplicates skip the network entirely.
///
/// The key's splitmix64 stream selects one of N shards (each its own
/// mutex + LRU list + index), so concurrent annotateBatch callers — and
/// the parallel phase-1 lookups within one batch — contend on 1/N of the
/// lock traffic instead of serializing on a single cache mutex. Capacity
/// is split evenly across shards; with the default capacity (4096) and
/// shard count (8) each shard holds 512 entries, and eviction only
/// reorders *which* of the coldest entries leave first — cached plans are
/// deterministic per key, so shard count never changes annotation output.
class PlanCache {
public:
  explicit PlanCache(size_t Capacity, int Shards = 8);

  /// Returns true and sets \p Out (and \p Digest, when non-null, to the
  /// legality digest stored with the plan) on a hit (refreshing recency).
  /// A hit also requires the entry's epoch to equal \p Epoch; a mismatch
  /// is a miss AND evicts the entry. Epochs are how a model swap invalidates
  /// the cache lazily: the service tags every entry with the model
  /// generation that computed it (captured once per batch), so after a
  /// hot reload new-generation lookups push out stale plans one by one —
  /// no global sweep, no blocking of concurrent readers, and an in-flight
  /// old-generation batch can neither read new plans nor poison new
  /// lookups with old ones.
  bool lookup(const ContextKey &Key, VectorPlan &Out, uint64_t Epoch = 0,
              LegalityDigest *Digest = nullptr);

  /// Inserts (or refreshes) \p Key tagged with \p Epoch, evicting the
  /// least recently used entry of its shard beyond the shard capacity.
  /// \p Digest rides along so hits skip re-running the legality analysis.
  void insert(const ContextKey &Key, VectorPlan Plan, uint64_t Epoch = 0,
              const LegalityDigest &Digest = LegalityDigest());

  size_t size() const;
  void clear();

  int shards() const { return static_cast<int>(Table.size()); }

private:
  struct Entry {
    ContextKey Key;
    VectorPlan Plan;
    LegalityDigest Digest;
    uint64_t Epoch;
  };

  struct Shard {
    mutable std::mutex Mutex;
    std::list<Entry> Order; ///< Front = most recently used.
    std::unordered_map<ContextKey, std::list<Entry>::iterator,
                       ContextKeyHash>
        Index;
  };

  Shard &shardFor(const ContextKey &Key) {
    // Hi is a splitmix64 stream; its top bits are well mixed and distinct
    // from the bits ContextKeyHash feeds the per-shard index.
    return Table[(Key.Hi >> 56) & (Table.size() - 1)];
  }

  size_t ShardCapacity; ///< Per-shard entry budget (0 disables).
  std::deque<Shard> Table; ///< Power-of-two size; shards never move.
};

/// The batched, multi-threaded annotation engine.
class AnnotationService {
public:
  /// The service borrows \p Embedder (the shared encoder) and the backend
  /// registry \p Backends; both must outlive it. \p Paths must match the
  /// configuration the embedder was trained with, and \p TI supplies the
  /// action arrays for decoding.
  AnnotationService(Code2Vec &Embedder, PredictorSet &Backends,
                    const PathContextConfig &Paths, const TargetInfo &TI,
                    const ServeConfig &Config = ServeConfig());

  /// Hosted-model construction (the network daemon's mode): instead of
  /// borrowing a fixed embedder/backend set, the service acquires
  /// \p Host's *current* model generation at the start of every batch —
  /// an RCU read; the acquired shared_ptr keeps that generation alive to
  /// the end of the batch even through a concurrent ModelHost::reload().
  /// The batch's context-extraction flavour comes from that generation's
  /// persisted metadata (Config.InnerContextOnly is ignored), and plan
  /// cache entries are tagged with its generation id, so a swap lazily
  /// invalidates stale plans. \p Host must outlive the service.
  AnnotationService(ModelHost &Host, const PathContextConfig &Paths,
                    const TargetInfo &TI,
                    const ServeConfig &Config = ServeConfig());

  /// Annotates every request; the result vector is parallel to
  /// \p Requests. Thread-safe: concurrent callers share the model under an
  /// internal lock and the cache under its own.
  std::vector<AnnotationResult>
  annotateBatch(const std::vector<AnnotationRequest> &Requests);

  /// Convenience single-program entry point (still goes through the cache).
  AnnotationResult annotateOne(const std::string &Name,
                               const std::string &Source);

  /// Single-program entry point with an explicit backend.
  AnnotationResult annotateOne(const std::string &Name,
                               const std::string &Source,
                               PredictMethod Method);

  /// Switches the context-extraction flavour (e.g. after loading a model
  /// trained the other way). Thread-safe; in-flight batches finish with
  /// whichever flavour they started, and the flavour is part of the cache
  /// key, so stale entries cannot answer for the new one. Hosted mode
  /// ignores this: the flavour rides with each model generation's
  /// persisted metadata and flips atomically with the model.
  void setContextExtraction(bool InnerOnly);
  bool innerContextOnly() const { return InnerContext.load(); }

  /// The host resolved per batch (null in borrowed-model mode).
  ModelHost *host() const { return Host; }

  size_t cacheSize() const { return Cache.size(); }
  void clearCache() { Cache.clear(); }

  int threads() const { return Pool.size(); }

  PredictMethod defaultMethod() const { return Config.DefaultMethod; }

  /// The per-backend circuit breaker (tests force/inspect states; the
  /// statsz endpoint renders them).
  CircuitBreaker &breaker(PredictMethod M) {
    return Breakers[static_cast<size_t>(M)];
  }
  const CircuitBreaker &breaker(PredictMethod M) const {
    return Breakers[static_cast<size_t>(M)];
  }

private:
  ModelHost *Host = nullptr; ///< Hosted mode: model acquired per batch.
  Code2Vec *Embedder;        ///< Borrowed mode (null when hosted).
  PredictorSet *Backends; ///< Borrowed mode (null when hosted).
  PathContextConfig Paths;
  TargetInfo TI;
  ServeConfig Config;

  ThreadPool Pool;
  PlanCache Cache;
  std::atomic<bool> InnerContext;
  std::mutex ModelMutex; ///< Serializes phase-2 use of the shared model.
  Matrix StatesBuf; ///< Reused encode output (guarded by ModelMutex).

  /// The serve.* counters, resolved once at construction whatever
  /// Config.Telemetry says, in the order of the batch tally that
  /// annotateBatch publishes (see AnnotationService.cpp).
  std::vector<Counter *> Counters;
  /// Per-phase latency histograms in the process-wide registry, resolved
  /// once at construction (all null when Config.Telemetry is false).
  /// Recording through them is lock-free.
  ShardedHistogram *RequestUs = nullptr;     ///< serve.request_us
  ShardedHistogram *BatchUs = nullptr;       ///< serve.batch_us
  ShardedHistogram *ExtractUs = nullptr;     ///< serve.extract_us
  ShardedHistogram *ParseUs = nullptr;       ///< serve.parse_us
  ShardedHistogram *LoopExtractUs = nullptr; ///< serve.loop_extract_us
  ShardedHistogram *ContextsUs = nullptr;    ///< serve.contexts_us
  ShardedHistogram *LegalityUs = nullptr;    ///< serve.legality_us
  ShardedHistogram *InferUs = nullptr;       ///< serve.infer_us
  ShardedHistogram *EmbedUs = nullptr;       ///< serve.embed_us
  ShardedHistogram *PredictUs = nullptr;     ///< serve.predict_us
  ShardedHistogram *RenderUs = nullptr;      ///< serve.render_us
  std::atomic<uint64_t> NextBatchId{1}; ///< Trace-span correlation ids.

  /// One breaker per backend, parameterized from Config at construction.
  CircuitBreaker Breakers[NumPredictMethods];
  /// Fault points `serve.predict.<method>`, resolved once (chaos suite
  /// forces a backend to fail without touching the model).
  fault::FaultPoint *PredictFault[NumPredictMethods] = {};

  /// Resolves the serve.* counters; when Config.Telemetry is on, also
  /// the histogram pointers above and the pool's queue metrics.
  void initTelemetry();

  /// Parameterizes the per-backend circuit breakers from Config and
  /// resolves the serve.predict.* fault points (runs in every ctor,
  /// independent of the telemetry flag).
  void initResilience();
};

} // namespace nv

#endif // NV_SERVE_ANNOTATIONSERVICE_H
