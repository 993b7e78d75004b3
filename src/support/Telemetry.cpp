//===- support/Telemetry.cpp - Process-wide metrics registry ---------------===//

#include "support/Telemetry.h"

#include <cstdio>

using namespace nv;

std::string nv::jsonEscape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (const char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x",
                      static_cast<unsigned>(static_cast<unsigned char>(C)));
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  return Out;
}

void JsonLine::key(const std::string &Key) {
  if (!First)
    OS << ", ";
  First = false;
  OS << "\"" << jsonEscape(Key) << "\": ";
}

JsonLine &JsonLine::field(const std::string &Key, const std::string &Value) {
  key(Key);
  OS << "\"" << jsonEscape(Value) << "\"";
  return *this;
}

JsonLine &JsonLine::field(const std::string &Key, const char *Value) {
  return field(Key, std::string(Value));
}

JsonLine &JsonLine::field(const std::string &Key, double Value) {
  key(Key);
  // Shortest representation that round-trips; integers print bare.
  if (Value == static_cast<double>(static_cast<long long>(Value))) {
    OS << static_cast<long long>(Value);
  } else {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%.9g", Value);
    OS << Buf;
  }
  return *this;
}

JsonLine &JsonLine::field(const std::string &Key, uint64_t Value) {
  key(Key);
  OS << Value;
  return *this;
}

JsonLine &JsonLine::field(const std::string &Key, long long Value) {
  key(Key);
  OS << Value;
  return *this;
}

JsonLine &JsonLine::field(const std::string &Key, int Value) {
  key(Key);
  OS << Value;
  return *this;
}

JsonLine &JsonLine::field(const std::string &Key, bool Value) {
  key(Key);
  OS << (Value ? "true" : "false");
  return *this;
}

JsonLine &JsonLine::raw(const std::string &Key, const std::string &RawJson) {
  key(Key);
  OS << RawJson;
  return *this;
}

std::string JsonLine::str() const { return "{" + OS.str() + "}"; }

RunLog::RunLog(const std::string &Path) {
  if (!Path.empty())
    Out.open(Path, std::ios::app);
}

void RunLog::write(const JsonLine &Line) {
  if (!Out.is_open())
    return;
  Out << Line.str() << "\n";
  Out.flush();
  ++Lines;
}

Counter &MetricsRegistry::counter(const std::string &Name) {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::unique_ptr<Counter> &Slot = Counters[Name];
  if (!Slot)
    Slot = std::make_unique<Counter>();
  return *Slot;
}

Gauge &MetricsRegistry::gauge(const std::string &Name) {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::unique_ptr<Gauge> &Slot = Gauges[Name];
  if (!Slot)
    Slot = std::make_unique<Gauge>();
  return *Slot;
}

ShardedHistogram &MetricsRegistry::histogram(const std::string &Name) {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::unique_ptr<ShardedHistogram> &Slot = Histograms[Name];
  if (!Slot)
    Slot = std::make_unique<ShardedHistogram>();
  return *Slot;
}

void MetricsRegistry::publish(Counter *const *Targets, const uint64_t *Deltas,
                              size_t N) {
  std::lock_guard<std::mutex> Lock(Mutex);
  for (size_t I = 0; I < N; ++I)
    if (Deltas[I] != 0)
      Targets[I]->add(Deltas[I]);
}

namespace {

/// The per-histogram JSON object (all durations in microseconds).
std::string histogramJson(const Histogram &H) {
  return JsonLine()
      .field("count", H.count())
      .field("sum_us", H.sum())
      .field("min_us", H.min())
      .field("max_us", H.max())
      .field("mean_us", H.mean())
      .field("p50_us", H.percentile(0.50))
      .field("p90_us", H.percentile(0.90))
      .field("p99_us", H.percentile(0.99))
      .field("p999_us", H.percentile(0.999))
      .str();
}

} // namespace

std::string MetricsRegistry::snapshotJson() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  JsonLine CountersJson;
  for (const auto &[Name, C] : Counters)
    CountersJson.field(Name, C->value());
  JsonLine GaugesJson;
  for (const auto &[Name, G] : Gauges)
    GaugesJson.field(Name, G->value());
  JsonLine HistogramsJson;
  for (const auto &[Name, H] : Histograms)
    HistogramsJson.raw(Name, histogramJson(H->snapshot()));
  return JsonLine()
      .raw("counters", CountersJson.str())
      .raw("gauges", GaugesJson.str())
      .raw("histograms", HistogramsJson.str())
      .str();
}

Table MetricsRegistry::counterTable() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  Table T({"counter", "value"});
  for (const auto &[Name, C] : Counters)
    if (C->value() != 0)
      T.addRow({Name, std::to_string(C->value())});
  return T;
}

Table MetricsRegistry::histogramTable() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  Table T({"histogram", "count", "mean ms", "p50 ms", "p90 ms", "p99 ms",
           "p99.9 ms", "max ms"});
  for (const auto &[Name, Sharded] : Histograms) {
    const Histogram H = Sharded->snapshot();
    if (H.count() == 0)
      continue;
    T.addRow({Name, std::to_string(H.count()), Table::fmt(H.mean() / 1e3),
              Table::fmt(H.percentile(0.50) / 1e3),
              Table::fmt(H.percentile(0.90) / 1e3),
              Table::fmt(H.percentile(0.99) / 1e3),
              Table::fmt(H.percentile(0.999) / 1e3),
              Table::fmt(H.max() / 1e3)});
  }
  return T;
}

bool MetricsRegistry::writeJsonFile(const std::string &Path) const {
  std::ofstream Out(Path, std::ios::trunc);
  Out << snapshotJson() << "\n";
  return static_cast<bool>(Out);
}

MetricsRegistry &Telemetry::metrics() {
  static MetricsRegistry Registry;
  return Registry;
}

TraceBuffer &Telemetry::trace() {
  static TraceBuffer Buffer;
  return Buffer;
}

std::string Telemetry::snapshotJson() {
  TraceBuffer &TB = trace();
  return JsonLine()
      .raw("metrics", metrics().snapshotJson())
      .raw("trace", JsonLine()
                        .field("sample_every",
                               static_cast<uint64_t>(TB.sampleEvery()))
                        .field("capacity_per_thread",
                               static_cast<uint64_t>(TB.capacity()))
                        .field("events",
                               static_cast<uint64_t>(TB.snapshot().size()))
                        .field("dropped", TB.dropped())
                        .str())
      .str();
}
