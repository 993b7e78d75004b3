//===- support/Telemetry.h - Process-wide metrics registry ------*- C++ -*-===//
//
// Part of the NeuroVectorizer reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The observability layer: a registry of named counters, gauges, and
/// log-bucketed latency histograms (support/Histogram.h), plus the
/// process-wide trace buffer (support/TraceBuffer.h) and a JSONL run-log
/// writer for training timelines.
///
/// Registration (counter()/gauge()/histogram()) takes a mutex and is
/// meant for setup paths; instrumented hot paths resolve their metric
/// once and keep the pointer — recording itself is lock-free (relaxed
/// atomics). A group of counters that must move together (one served
/// batch) goes through publish(), which snapshotJson() sees whole or not
/// at all. Everything is dumpable as one JSON document
/// (Telemetry::snapshotJson()), the payload of the daemon's statsz, with
/// exact p50/p90/p99/p99.9 per histogram.
///
//===----------------------------------------------------------------------===//

#ifndef NV_SUPPORT_TELEMETRY_H
#define NV_SUPPORT_TELEMETRY_H

#include "support/Histogram.h"
#include "support/Table.h"
#include "support/TraceBuffer.h"

#include <atomic>
#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

namespace nv {

/// Monotonic event counter.
class Counter {
public:
  void add(uint64_t N = 1) { V.fetch_add(N, std::memory_order_relaxed); }
  uint64_t value() const { return V.load(std::memory_order_relaxed); }
  void reset() { V.store(0, std::memory_order_relaxed); }

private:
  std::atomic<uint64_t> V{0};
};

/// Last-value-wins instantaneous measurement (queue depth, EMA, stage).
class Gauge {
public:
  void set(double X) { V.store(X, std::memory_order_relaxed); }
  double value() const { return V.load(std::memory_order_relaxed); }

private:
  std::atomic<double> V{0.0};
};

/// Escapes \p S for inclusion in a JSON string literal.
std::string jsonEscape(const std::string &S);

/// One JSON object built field by field; str() closes it. Numbers are
/// emitted with enough precision to round-trip doubles.
class JsonLine {
public:
  JsonLine &field(const std::string &Key, const std::string &Value);
  JsonLine &field(const std::string &Key, const char *Value);
  JsonLine &field(const std::string &Key, double Value);
  JsonLine &field(const std::string &Key, uint64_t Value);
  JsonLine &field(const std::string &Key, long long Value);
  JsonLine &field(const std::string &Key, int Value);
  JsonLine &field(const std::string &Key, bool Value);
  /// Splices \p RawJson in verbatim (must itself be valid JSON).
  JsonLine &raw(const std::string &Key, const std::string &RawJson);
  std::string str() const;

private:
  std::ostringstream OS;
  bool First = true;

  void key(const std::string &Key);
};

/// Append-only JSONL sink for per-iteration training timelines. Each
/// write() emits one line and flushes, so a killed run keeps every batch
/// it completed. An empty path disables the log (write() is a no-op).
class RunLog {
public:
  RunLog() = default;
  explicit RunLog(const std::string &Path);

  bool enabled() const { return Out.is_open(); }
  void write(const JsonLine &Line);
  size_t lines() const { return Lines; }

private:
  std::ofstream Out;
  size_t Lines = 0;
};

/// Named metrics, stable addresses for the lifetime of the registry.
class MetricsRegistry {
public:
  Counter &counter(const std::string &Name);
  Gauge &gauge(const std::string &Name);
  ShardedHistogram &histogram(const std::string &Name);

  /// Adds Deltas[I] to *Targets[I] for each of the \p N counters in one
  /// step: it holds the lock snapshotJson() reads the counters under, so
  /// a snapshot sees every increment of one call or none of them.
  void publish(Counter *const *Targets, const uint64_t *Deltas, size_t N);

  /// The full registry as one JSON object. Only the counter and gauge
  /// reads hold the registry lock; histograms are merged and everything
  /// is formatted after it is released, so a snapshot never holds back
  /// publish() or registration for longer than those reads:
  /// {"counters": {...}, "gauges": {...}, "histograms": {name:
  /// {"count","sum_us","min_us","max_us","mean_us","p50_us","p90_us",
  /// "p99_us","p999_us"}, ...}}. Keys are sorted (std::map), so the
  /// document is deterministic for a quiesced registry.
  std::string snapshotJson() const;

  /// One row per nonzero counter: name, value.
  Table counterTable() const;

  /// One row per histogram: count, mean/p50/p90/p99/p99.9/max in ms.
  Table histogramTable() const;

  /// Writes snapshotJson() to \p Path; false on I/O failure.
  bool writeJsonFile(const std::string &Path) const;

private:
  struct NamedHistogram {
    const std::string *Name;
    const ShardedHistogram *Shards;
  };
  /// Every histogram's name and address; the caller holds Mutex.
  std::vector<NamedHistogram> histogramsLocked() const;

  mutable std::mutex Mutex;
  std::map<std::string, std::unique_ptr<Counter>> Counters;
  std::map<std::string, std::unique_ptr<Gauge>> Gauges;
  std::map<std::string, std::unique_ptr<ShardedHistogram>> Histograms;
};

/// Process-wide telemetry singletons: the metrics registry every
/// subsystem records into and the trace buffer spans go to. Tracing is
/// off until someone turns the sampling knob
/// (trace().setSampleEvery(N)); histograms are always live — recording
/// one is a few relaxed atomic adds.
class Telemetry {
public:
  static MetricsRegistry &metrics();
  static TraceBuffer &trace();

  /// The `telemetry` section of the daemon's statsz: metrics plus
  /// trace-buffer status, one JSON document.
  static std::string snapshotJson();
};

} // namespace nv

#endif // NV_SUPPORT_TELEMETRY_H
