//===- nvbench/Harness.h - Shared benchmark harness -------------*- C++ -*-===//
//
// Part of the NeuroVectorizer reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every nvbench workload shares: the command-line options, the
/// report a workload fills (attempt/failure counts, correctness findings,
/// named metrics with units), order statistics over samples and over
/// 1-second windows, peak resident memory, and the bench-side span tracer.
///
/// Spans are recorded by the benchmark's own code around its calls into
/// each layer (never inside the library): name, start, end, parent span,
/// and a request id, kept in memory per thread and written out once as
/// chrome://tracing JSON. A layer's self time is its span's duration
/// minus the part its child spans cover.
///
//===----------------------------------------------------------------------===//

#ifndef NVBENCH_HARNESS_H
#define NVBENCH_HARNESS_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace nvbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

/// Nanoseconds on a process-wide steady clock anchored at first use.
uint64_t nowNs();

/// Nearest-rank percentile (\p Q in [0, 1]) of \p Sorted, which must be
/// sorted ascending; 0 for an empty sample.
double percentile(const std::vector<double> &Sorted, double Q);

/// Median, extremes and count of repeated measurements.
struct TrialStats {
  double Median = 0.0;
  double Min = 0.0;
  double Max = 0.0;
  size_t N = 0;
};

/// Order statistics of repeated trials \p Samples (taken by value).
TrialStats trialStats(std::vector<double> Samples);

/// One completed unit of work (a frame): when it finished, how long it
/// took, and how many items (programs) it delivered.
struct Completion {
  uint64_t AtNs = 0;
  double LatencyMs = 0.0;
  uint64_t Items = 0;
};

/// Medians over the whole windows of a measured interval: items completed
/// per second, and each window's p50 and p99 latency. Windows are sized
/// to hold about TargetPerWindow completions each (so a window's p99 has
/// at least 10 samples beyond it), and there are at least MinWindows. A
/// median over many short windows keeps stalls caused by other work on
/// the machine, which hit a few windows, out of the reported number.
struct WindowedStats {
  double ItemsPerS = 0.0;
  double P50Ms = 0.0;
  double P99Ms = 0.0;
  double WindowSeconds = 0.0;
  size_t Windows = 0;
  size_t Samples = 0; ///< Completions inside the windows.
};
constexpr double TargetPerWindow = 1000.0;
constexpr double MinWindows = 5.0;
WindowedStats windowedMedians(const std::vector<Completion> &Done,
                              uint64_t StartNs, double Seconds);

/// Peak resident set size of this process (VmHWM), in MB; 0 if
/// /proc/self/status is unreadable.
double peakRssMb();

/// Command-line options shared by every workload.
struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 15.0;
  std::string TracePath; ///< Non-empty: traced run, per-layer metrics.
  std::string WorkDir = "."; ///< Scratch files (model checkpoints, logs).
  bool traced() const { return !TracePath.empty(); }
};

/// What a workload reports.
struct Report {
  struct Metric {
    std::string Name;
    double Value = 0.0;
    std::string Unit;
  };

  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Errors; ///< Correctness findings.
  std::vector<Metric> Metrics;

  void metric(const std::string &Name, double Value, const std::string &Unit) {
    Metrics.push_back({Name, Value, Unit});
  }
  /// Records a correctness finding (printed to stderr; fails the run).
  void error(const std::string &Message);
  bool correct() const { return Errors.empty(); }
};

//===----------------------------------------------------------------------===//
// Span tracer
//===----------------------------------------------------------------------===//

/// One recorded span. Name must be a string literal.
struct Span {
  const char *Name = nullptr;
  uint64_t Id = 0;
  uint64_t Parent = 0; ///< 0 = a root span.
  uint64_t Request = 0;
  uint64_t StartNs = 0;
  uint64_t EndNs = 0;
  uint32_t Thread = 0;
};

/// In-memory span recorder: each recording thread appends to its own
/// lane. Code that traces only some units of work passes a null Tracer*
/// for the others, which then read no clock at all. Readers (spans() and
/// everything built on it) run after the recording threads have joined.
class Tracer {
public:
  uint64_t newId() { return NextId.fetch_add(1, std::memory_order_relaxed); }
  /// Reserves \p N consecutive ids and returns the first.
  uint64_t reserveIds(uint64_t N) {
    return NextId.fetch_add(N, std::memory_order_relaxed);
  }

  /// Records a completed span and returns its id (\p Id, or a fresh one
  /// when 0 — pre-allocated ids let children name a parent recorded later).
  uint64_t record(const char *Name, uint64_t StartNs, uint64_t EndNs,
                  uint64_t Request = 0, uint64_t Parent = 0,
                  uint64_t Id = 0);

  /// Every recorded span, sorted by start time.
  std::vector<Span> spans() const;

  /// Writes spans() as chrome://tracing JSON; false on I/O failure.
  bool writeChromeJson(const std::string &Path) const;

  /// Per span name: call count, total time, self time (duration minus
  /// the time its children cover), and the name of its root span.
  struct LayerTime {
    std::string Name;
    std::string Root;
    uint64_t Count = 0;
    double TotalUs = 0.0;
    double SelfUs = 0.0;
  };
  std::vector<LayerTime> layerTimes() const;

private:
  struct Lane {
    std::vector<Span> Spans;
    uint32_t Thread = 0;
  };
  Lane &lane();

  std::atomic<uint64_t> NextId{1};
  mutable std::mutex LanesMutex;
  std::deque<std::unique_ptr<Lane>> Lanes;
};

/// RAII span: records [construction, destruction) under \p Parent. A null
/// tracer makes it free.
class SpanScope {
public:
  SpanScope(Tracer *T, const char *Name, uint64_t Request = 0,
            uint64_t Parent = 0)
      : T(T), Name(Name), Request(Request), Parent(Parent),
        Id(T ? T->newId() : 0), StartNs(T ? nowNs() : 0) {}
  SpanScope(const SpanScope &) = delete;
  SpanScope &operator=(const SpanScope &) = delete;
  ~SpanScope() {
    if (T)
      T->record(Name, StartNs, nowNs(), Request, Parent, Id);
  }
  uint64_t id() const { return Id; }

private:
  Tracer *T;
  const char *Name;
  uint64_t Request;
  uint64_t Parent;
  uint64_t Id;
  uint64_t StartNs;
};

/// One row of the printed per-layer table.
struct LayerRow {
  std::string Name;
  double Value = 0.0;
  std::string Unit;
  std::string Note;
};

/// Prints \p Rows as an aligned table on stdout.
void printLayerTable(const std::string &Title,
                     const std::vector<LayerRow> &Rows);

/// Adds one row per span name of \p T: self time per call (us), noted with
/// the share of its root span's total time that self time accounts for.
void addSpanRows(const Tracer &T, std::vector<LayerRow> &Rows);

/// The unexplained share of root span \p RootName: its self time (the
/// part no child span covers) over its total time; 0 if never recorded.
double unexplainedShare(const Tracer &T, const std::string &RootName);

} // namespace nvbench

#endif // NVBENCH_HARNESS_H
