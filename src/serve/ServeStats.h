//===- serve/ServeStats.h - Serving throughput/latency counters -*- C++ -*-===//
//
// Part of the NeuroVectorizer reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Operational counters for the annotation service: programs and loops
/// served, plan-cache hits/misses, batched forward passes, and wall time
/// split across the pipeline phases.
///
/// ServeStats is a thin counter view over the serving pipeline (latency
/// *distributions* live in the process-wide telemetry histograms, see
/// support/Telemetry.h). The fields stay public atomics for cheap direct
/// reads, but every derived reading — hitRate(), throughput(), the
/// tables, print() — goes through snapshot(), which is coherent with
/// batch publication: annotateBatch accumulates a whole batch into a
/// private delta and folds it in with one addBatch() call under the
/// snapshot mutex, so a snapshot never sees a batch half-applied (e.g.
/// CacheMisses bumped but TotalMicros not yet, which used to make
/// throughput() transiently nonsensical mid-batch).
///
//===----------------------------------------------------------------------===//

#ifndef NV_SERVE_SERVESTATS_H
#define NV_SERVE_SERVESTATS_H

#include "ir/Legality.h"
#include "predictors/Predictor.h"
#include "support/Table.h"

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <mutex>

namespace nv {

/// Per-backend slice of the serving counters: how much traffic each
/// PredictMethod carried and what its backend time cost. PredictMicros is
/// summed across (possibly concurrent) backend calls, so it is cumulative
/// backend time, not wall clock.
struct MethodCounters {
  std::atomic<uint64_t> Loops{0};     ///< Sites served (incl. cached).
  std::atomic<uint64_t> CacheHits{0}; ///< Sites answered by the LRU cache.
  std::atomic<uint64_t> DedupHits{0}; ///< Sites answered by batch dedup.
  std::atomic<uint64_t> Misses{0};    ///< Sites the backend computed.
  std::atomic<uint64_t> PredictMicros{0}; ///< Cumulative backend time.

  void reset() {
    Loops = 0;
    CacheHits = 0;
    DedupHits = 0;
    Misses = 0;
    PredictMicros = 0;
  }
};

/// Plain (non-atomic) copy of one backend's counters.
struct MethodCountersView {
  uint64_t Loops = 0;
  uint64_t CacheHits = 0;
  uint64_t DedupHits = 0;
  uint64_t Misses = 0;
  uint64_t PredictMicros = 0;
};

/// One coherent reading of every serving counter: all fields come from
/// the same instant under the publication mutex, so cross-field ratios
/// (hit rate, throughput, loops per forward) are internally consistent.
struct ServeSnapshot {
  uint64_t BatchesServed = 0;
  uint64_t ProgramsServed = 0;
  uint64_t ProgramsRejected = 0;
  uint64_t DegradedRequests = 0; ///< Ok, but via the fallback ladder.
  uint64_t PredictFailures = 0;  ///< Backend predict calls that failed.
  uint64_t LoopsServed = 0;
  uint64_t CacheHits = 0;
  uint64_t DedupHits = 0;
  uint64_t CacheMisses = 0;
  uint64_t ForwardPasses = 0;
  uint64_t LoopsPerForward = 0;
  uint64_t ExtractMicros = 0;
  uint64_t InferMicros = 0;
  uint64_t RenderMicros = 0;
  uint64_t TotalMicros = 0;
  uint64_t ParseMicros = 0;
  uint64_t LoopExtractMicros = 0;
  uint64_t ContextMicros = 0;
  uint64_t EmbedMicros = 0;
  uint64_t LoopsAnalyzed = 0;  ///< Sites run through the legality analysis.
  uint64_t PlansClamped = 0;   ///< Predictions legality had to shrink.
  uint64_t LegalityMicros = 0; ///< Lowering + dependence analysis time.
  /// Memory accesses seen by the analysis, by AccessClass (uniform /
  /// consecutive / strided / gather) — the serve-side view of what kind
  /// of loops the deployment actually sees.
  uint64_t AccessClasses[NumAccessClasses] = {0, 0, 0, 0};
  MethodCountersView PerMethod[NumPredictMethods];

  /// Fraction of loop lookups answered without a fresh forward row
  /// (LRU cache hits + intra-batch dedup hits).
  double hitRate() const;

  /// Programs per second over the accumulated total time (0 if no time).
  double throughput() const;
};

/// Counters accumulated across annotateBatch() calls.
class ServeStats {
public:
  std::atomic<uint64_t> BatchesServed{0};
  std::atomic<uint64_t> ProgramsServed{0}; ///< Successfully annotated.
  std::atomic<uint64_t> ProgramsRejected{0}; ///< Parse failures / no loops.
  /// Requests answered Ok but by a fallback-ladder backend (or the
  /// identity floor) because the requested backend was unavailable.
  std::atomic<uint64_t> DegradedRequests{0};
  /// Backend predict calls that threw or were fault-injected (each one
  /// also feeds that backend's circuit breaker).
  std::atomic<uint64_t> PredictFailures{0};
  std::atomic<uint64_t> LoopsServed{0};
  std::atomic<uint64_t> CacheHits{0};
  std::atomic<uint64_t> DedupHits{0}; ///< Served by intra-batch dedup.
  std::atomic<uint64_t> CacheMisses{0}; ///< Distinct loops sent to the net.
  std::atomic<uint64_t> ForwardPasses{0}; ///< Batched policy forwards run.
  std::atomic<uint64_t> LoopsPerForward{0}; ///< Rows across all forwards.

  /// Wall time (microseconds) per phase, summed over batches.
  std::atomic<uint64_t> ExtractMicros{0}; ///< Parse + path contexts.
  std::atomic<uint64_t> InferMicros{0};   ///< Embed + backend predictions.
  std::atomic<uint64_t> RenderMicros{0};  ///< Pragma injection + printing.
  std::atomic<uint64_t> TotalMicros{0};   ///< End-to-end annotateBatch time.

  /// Cold-path front-end split (microseconds). Unlike the wall-clock
  /// phase times above, these are summed per request across the worker
  /// threads (cumulative CPU time, like MethodCounters::PredictMicros),
  /// so a front-end regression — slower parsing, slower path-context
  /// extraction — is visible even when pool parallelism hides it from
  /// the wall clock.
  std::atomic<uint64_t> ParseMicros{0};   ///< parseSource per request.
  std::atomic<uint64_t> LoopExtractMicros{0}; ///< extractLoops per request.
  std::atomic<uint64_t> ContextMicros{0}; ///< Path contexts + cache keys.
  /// Wall time of the batched Code2Vec encode over the deduplicated miss
  /// set (runs under the model lock, so wall == cumulative).
  std::atomic<uint64_t> EmbedMicros{0};

  /// Legality-analysis counters: sites lowered + dependence-tested (cache
  /// misses only — hits reuse the digest stored with the cached plan),
  /// predictions the per-loop legality clamp had to shrink, cumulative
  /// analysis time, and the per-AccessClass mix of analyzed accesses.
  std::atomic<uint64_t> LoopsAnalyzed{0};
  std::atomic<uint64_t> PlansClamped{0};
  std::atomic<uint64_t> LegalityMicros{0};
  std::atomic<uint64_t> AccessClasses[NumAccessClasses] = {};

  /// Per-backend traffic/latency breakdown, indexed by PredictMethod.
  MethodCounters PerMethod[NumPredictMethods];

  MethodCounters &forMethod(PredictMethod M) {
    return PerMethod[static_cast<size_t>(M)];
  }
  const MethodCounters &forMethod(PredictMethod M) const {
    return PerMethod[static_cast<size_t>(M)];
  }

  /// Folds a quiesced batch-local \p Delta into this object under the
  /// snapshot mutex, so concurrent snapshot()/reset() callers observe
  /// each batch all-or-nothing.
  void addBatch(const ServeStats &Delta);

  /// One coherent copy of every field (serialized against addBatch and
  /// reset). All derived readings below are computed over a snapshot.
  ServeSnapshot snapshot() const;

  /// See ServeSnapshot::hitRate().
  double hitRate() const { return snapshot().hitRate(); }

  /// See ServeSnapshot::throughput().
  double throughput() const { return snapshot().throughput(); }

  /// Resets every counter to zero (coherent with addBatch: a concurrent
  /// batch is either fully in before the wipe or fully published after).
  void reset();

  /// Renders the counters as a two-column table.
  Table toTable() const;

  /// One row per backend that carried traffic (loops, hit sources,
  /// cumulative backend time).
  Table methodTable() const;

  /// Prints toTable() (and methodTable() when any backend saw traffic)
  /// to \p OS.
  void print(std::ostream &OS) const;

private:
  /// Serializes addBatch / snapshot / reset against each other. Workers
  /// inside a batch never touch it — they accumulate into the batch
  /// delta — so it is uncontended except at batch boundaries.
  mutable std::mutex SnapshotMutex;
};

} // namespace nv

#endif // NV_SERVE_SERVESTATS_H
