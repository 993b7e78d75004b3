//===- bench/BenchUtil.h - Shared bench harness helpers ---------*- C++ -*-===//
//
// Part of the NeuroVectorizer reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared setup for the figure-reproduction benches: a tuned training
/// configuration (the paper's 64x64 FCNN and discrete action space, with
/// learning-rate/batch scaled to this reproduction's much smaller compute
/// budget) and a standard synthetic training set.
///
//===----------------------------------------------------------------------===//

#ifndef NV_BENCH_BENCHUTIL_H
#define NV_BENCH_BENCHUTIL_H

#include "core/NeuroVectorizer.h"
#include "dataset/LoopGenerator.h"

#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace nv {

/// Training configuration tuned for bench-scale budgets (minutes, not the
/// paper's cluster-hours): smaller batches with more SGD updates and a
/// larger Adam step.
inline NeuroVectorizerConfig benchConfig() {
  NeuroVectorizerConfig Config;
  Config.PPO.BatchSize = 256;
  Config.PPO.MiniBatchSize = 64;
  Config.PPO.LearningRate = 2e-3;
  Config.PPO.EntropyCoef = 0.05;
  return Config;
}

/// Builds a framework instance preloaded with \p NumPrograms synthetic
/// training loops (§3.2 generator).
inline std::unique_ptr<NeuroVectorizer>
makeTrainedVectorizer(int NumPrograms, long long TrainSteps,
                      uint64_t Seed = 42,
                      NeuroVectorizerConfig Config = benchConfig()) {
  Config.Seed = Seed;
  auto NV = std::make_unique<NeuroVectorizer>(Config);
  LoopGenerator Gen(Seed);
  for (const GeneratedLoop &L : Gen.generateMany(NumPrograms))
    NV->addTrainingProgram(L.Name, L.Source);
  if (TrainSteps > 0)
    NV->train(TrainSteps);
  return NV;
}

/// Flat JSON metric emitter for the perf trajectory: each bench writes a
/// BENCH_<name>.json of {"bench": ..., "meta": {...}, "metrics":
/// {key: number, ...}} that CI uploads as an artifact, so throughput
/// history is diffable across commits without parsing table output. The
/// meta block records where the numbers came from — git sha, compiler,
/// build type, hardware thread count — and is ignored by the comparison
/// gate (tools/bench_compare.py reads only "metrics").
class BenchJson {
public:
  explicit BenchJson(std::string Bench) : Bench(std::move(Bench)) {}

  void add(const std::string &Key, double Value) {
    Metrics.emplace_back(Key, Value);
  }

  /// The provenance block stamped into every bench JSON.
  static std::string metaJson() {
#ifdef NV_GIT_SHA
    const char *GitSha = NV_GIT_SHA;
#else
    const char *GitSha = "unknown";
#endif
#ifdef NDEBUG
    const char *BuildType = "Release";
#else
    const char *BuildType = "Debug";
#endif
    std::ostringstream OS;
    OS << "{\"git_sha\": \"" << GitSha << "\", \"compiler\": \""
       << __VERSION__ << "\", \"build_type\": \"" << BuildType
       << "\", \"hardware_threads\": "
       << std::thread::hardware_concurrency() << "}";
    return OS.str();
  }

  std::string str() const {
    std::ostringstream OS;
    OS << "{\"bench\": \"" << Bench << "\", \"meta\": " << metaJson()
       << ", \"metrics\": {";
    for (size_t I = 0; I < Metrics.size(); ++I) {
      if (I)
        OS << ", ";
      OS << "\"" << Metrics[I].first << "\": ";
      const double V = Metrics[I].second;
      // Large counts as integers, rates with fixed precision.
      if (V == static_cast<long long>(V))
        OS << static_cast<long long>(V);
      else {
        OS.precision(4);
        OS << std::fixed << V;
        OS.unsetf(std::ios::fixed);
      }
    }
    OS << "}}";
    return OS.str();
  }

  /// Writes BENCH_<suffix>.json in the working directory and echoes the
  /// path; returns false on I/O failure (reported, not fatal — timing
  /// files must never fail a correctness-gated bench).
  bool write(const std::string &Suffix) const {
    const std::string Path = "BENCH_" + Suffix + ".json";
    std::ofstream Out(Path, std::ios::trunc);
    Out << str() << "\n";
    if (!Out) {
      std::cerr << "warning: could not write " << Path << "\n";
      return false;
    }
    std::cout << "wrote " << Path << "\n";
    return true;
  }

private:
  std::string Bench;
  std::vector<std::pair<std::string, double>> Metrics;
};

} // namespace nv

#endif // NV_BENCH_BENCHUTIL_H
