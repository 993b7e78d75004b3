//===- nvbench/Harness.cpp - Shared benchmark harness ---------------------===//

#include "Harness.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>
#include <unordered_map>

namespace nvbench {

uint64_t nowNs() {
  static const Clock::time_point Anchor = Clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           Anchor)
          .count());
}

double percentile(const std::vector<double> &Sorted, double Q) {
  if (Sorted.empty())
    return 0.0;
  size_t Rank = static_cast<size_t>(
      std::ceil(Q * static_cast<double>(Sorted.size())));
  Rank = std::clamp<size_t>(Rank, 1, Sorted.size());
  return Sorted[Rank - 1];
}

TrialStats trialStats(std::vector<double> Samples) {
  TrialStats S;
  S.N = Samples.size();
  if (Samples.empty())
    return S;
  std::sort(Samples.begin(), Samples.end());
  const size_t Mid = Samples.size() / 2;
  S.Median = Samples.size() % 2 ? Samples[Mid]
                                : 0.5 * (Samples[Mid - 1] + Samples[Mid]);
  S.Min = Samples.front();
  S.Max = Samples.back();
  return S;
}

WindowedStats windowedMedians(const std::vector<Completion> &Done,
                              uint64_t StartNs, double Seconds) {
  WindowedStats W;
  const uint64_t EndNs = StartNs + static_cast<uint64_t>(Seconds * 1e9);
  size_t Inside = 0;
  for (const Completion &C : Done)
    Inside += C.AtNs >= StartNs && C.AtNs < EndNs;
  if (Inside == 0)
    return W;
  const double WindowS = std::clamp(
      TargetPerWindow * Seconds / static_cast<double>(Inside), 0.05,
      Seconds / MinWindows);
  W.WindowSeconds = WindowS;
  W.Windows = static_cast<size_t>(Seconds / WindowS);
  std::vector<uint64_t> Items(W.Windows, 0);
  std::vector<std::vector<double>> Latency(W.Windows);
  for (const Completion &C : Done) {
    if (C.AtNs < StartNs)
      continue;
    const size_t Bin = static_cast<size_t>(
        static_cast<double>(C.AtNs - StartNs) / 1e9 / WindowS);
    if (Bin >= W.Windows)
      continue;
    Items[Bin] += C.Items;
    Latency[Bin].push_back(C.LatencyMs);
    ++W.Samples;
  }
  std::vector<double> Rate, P50, P99;
  for (size_t B = 0; B < W.Windows; ++B) {
    std::sort(Latency[B].begin(), Latency[B].end());
    Rate.push_back(static_cast<double>(Items[B]) / WindowS);
    P50.push_back(percentile(Latency[B], 0.5));
    P99.push_back(percentile(Latency[B], 0.99));
  }
  W.ItemsPerS = trialStats(Rate).Median;
  W.P50Ms = trialStats(P50).Median;
  W.P99Ms = trialStats(P99).Median;
  return W;
}

double peakRssMb() {
  std::ifstream Status("/proc/self/status");
  std::string Line;
  while (std::getline(Status, Line)) {
    if (Line.rfind("VmHWM:", 0) != 0)
      continue;
    std::istringstream Fields(Line.substr(6));
    double Kb = 0.0;
    Fields >> Kb;
    return Kb / 1024.0;
  }
  return 0.0;
}

void Report::error(const std::string &Message) {
  if (Errors.size() < 20)
    std::cerr << "CHECK FAILED: " << Message << "\n";
  Errors.push_back(Message);
}

//===----------------------------------------------------------------------===//
// Tracer
//===----------------------------------------------------------------------===//

Tracer::Lane &Tracer::lane() {
  // One lane per (thread, tracer); the workloads own a single tracer for
  // the whole process, so a thread-local pointer suffices.
  thread_local Lane *Mine = nullptr;
  thread_local const Tracer *Owner = nullptr;
  if (Mine && Owner == this)
    return *Mine;
  std::lock_guard<std::mutex> Lock(LanesMutex);
  Lanes.push_back(std::make_unique<Lane>());
  Lanes.back()->Thread = static_cast<uint32_t>(Lanes.size());
  Mine = Lanes.back().get();
  Owner = this;
  return *Mine;
}

uint64_t Tracer::record(const char *Name, uint64_t StartNs, uint64_t EndNs,
                        uint64_t Request, uint64_t Parent, uint64_t Id) {
  Lane &L = lane();
  if (Id == 0)
    Id = newId();
  L.Spans.push_back({Name, Id, Parent, Request, StartNs, EndNs, L.Thread});
  return Id;
}

std::vector<Span> Tracer::spans() const {
  std::vector<Span> All;
  {
    std::lock_guard<std::mutex> Lock(LanesMutex);
    for (const std::unique_ptr<Lane> &L : Lanes)
      All.insert(All.end(), L->Spans.begin(), L->Spans.end());
  }
  std::stable_sort(All.begin(), All.end(), [](const Span &A, const Span &B) {
    return A.StartNs < B.StartNs;
  });
  return All;
}

bool Tracer::writeChromeJson(const std::string &Path) const {
  std::ofstream Out(Path, std::ios::trunc);
  Out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  bool First = true;
  for (const Span &S : spans()) {
    Out << (First ? "\n" : ",\n");
    First = false;
    Out << "  {\"name\": \"" << S.Name << "\", \"ph\": \"X\", \"ts\": "
        << std::fixed << std::setprecision(3) << S.StartNs / 1000.0
        << ", \"dur\": " << (S.EndNs - S.StartNs) / 1000.0
        << ", \"pid\": 1, \"tid\": " << S.Thread << ", \"args\": {\"id\": "
        << S.Id << ", \"parent\": " << S.Parent << ", \"req\": " << S.Request
        << "}}";
  }
  Out << "\n]}\n";
  return static_cast<bool>(Out);
}

std::vector<Tracer::LayerTime> Tracer::layerTimes() const {
  const std::vector<Span> All = spans();
  std::unordered_map<uint64_t, const Span *> ById;
  // Child coverage per parent. Children of one span never overlap (each
  // is a sequential phase of its parent), so their durations add.
  std::unordered_map<uint64_t, uint64_t> Covered;
  for (const Span &S : All) {
    ById[S.Id] = &S;
    if (S.Parent)
      Covered[S.Parent] += S.EndNs - S.StartNs;
  }
  std::map<std::string, LayerTime> ByName;
  for (const Span &S : All) {
    LayerTime &L = ByName[S.Name];
    if (L.Root.empty()) {
      L.Name = S.Name;
      const Span *Root = &S;
      for (auto It = ById.find(Root->Parent);
           Root->Parent && It != ById.end(); It = ById.find(Root->Parent))
        Root = It->second;
      L.Root = Root->Name;
    }
    const uint64_t Dur = S.EndNs - S.StartNs;
    const auto It = Covered.find(S.Id);
    const uint64_t Kids = It == Covered.end() ? 0 : It->second;
    ++L.Count;
    L.TotalUs += static_cast<double>(Dur) / 1000.0;
    L.SelfUs += static_cast<double>(Dur > Kids ? Dur - Kids : 0) / 1000.0;
  }
  std::vector<LayerTime> Out;
  for (auto &[Name, L] : ByName)
    Out.push_back(L);
  return Out;
}

void printLayerTable(const std::string &Title,
                     const std::vector<LayerRow> &Rows) {
  size_t Width = 5;
  for (const LayerRow &R : Rows)
    Width = std::max(Width, R.Name.size());
  std::cout << "\n" << Title << "\n";
  std::cout << "  " << std::left << std::setw(static_cast<int>(Width))
            << "layer" << "  " << std::right << std::setw(14) << "value"
            << "  " << std::left << std::setw(6) << "unit" << "  note\n";
  for (const LayerRow &R : Rows) {
    std::ostringstream V;
    V << std::setprecision(6) << R.Value;
    std::cout << "  " << std::left << std::setw(static_cast<int>(Width))
              << R.Name << "  " << std::right << std::setw(14) << V.str()
              << "  " << std::left << std::setw(6) << R.Unit << "  "
              << R.Note << "\n";
  }
}

void addSpanRows(const Tracer &T, std::vector<LayerRow> &Rows) {
  const std::vector<Tracer::LayerTime> Layers = T.layerTimes();
  std::map<std::string, double> RootTotal;
  for (const Tracer::LayerTime &L : Layers)
    if (L.Name == L.Root)
      RootTotal[L.Name] = L.TotalUs;
  for (const Tracer::LayerTime &L : Layers) {
    const double Total = RootTotal[L.Root];
    std::ostringstream Note;
    Note << std::fixed << std::setprecision(1)
         << (Total > 0.0 ? 100.0 * L.SelfUs / Total : 0.0) << "% of "
         << L.Root << " (self time), n=" << L.Count;
    Rows.push_back({"span." + L.Name,
                    L.SelfUs / static_cast<double>(L.Count), "us",
                    Note.str()});
  }
}

double unexplainedShare(const Tracer &T, const std::string &RootName) {
  for (const Tracer::LayerTime &L : T.layerTimes())
    if (L.Name == RootName)
      return L.TotalUs > 0.0 ? L.SelfUs / L.TotalUs : 0.0;
  return 0.0;
}

} // namespace nvbench
