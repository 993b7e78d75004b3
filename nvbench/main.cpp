//===- nvbench/main.cpp - The repository benchmark ------------------------===//
//
// Part of the NeuroVectorizer reproduction. MIT license.
//
// Runs one workload in this process and prints every metric as
//
//   metric <name> <value> <unit>
//
// followed by one `result attempted <n> failed <n> correct <0|1>` line.
// Exits 1 when an output check failed, 2 on bad usage.
//
//   nvbench --workload serve_hot|serve_cold|serve_open|train --seed N
//           [--seconds S] [--trace FILE] [--workdir DIR]
//
// Without --trace the metrics are the end-to-end ones. With --trace the
// run records spans, writes them to FILE as chrome://tracing JSON, prints
// the per-layer table, and reports the per-layer metrics instead.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include <iomanip>
#include <iostream>
#include <thread>

using namespace nvbench;

namespace {

int usage(const char *Argv0) {
  std::cerr << "usage: " << Argv0
            << " --workload serve_hot|serve_cold|serve_open|train --seed N "
               "[--seconds S] [--trace FILE] [--workdir DIR]\n";
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts;
  bool HaveSeed = false;
  for (int I = 1; I < Argc; ++I) {
    const std::string Arg = Argv[I];
    if (I + 1 >= Argc)
      return usage(Argv[0]);
    const std::string Value = Argv[++I];
    if (Arg == "--workload")
      Opts.Workload = Value;
    else if (Arg == "--seed") {
      Opts.Seed = std::strtoull(Value.c_str(), nullptr, 10);
      HaveSeed = true;
    } else if (Arg == "--seconds")
      Opts.Seconds = std::strtod(Value.c_str(), nullptr);
    else if (Arg == "--trace")
      Opts.TracePath = Value;
    else if (Arg == "--workdir")
      Opts.WorkDir = Value;
    else
      return usage(Argv[0]);
  }
  const bool Serving = Opts.Workload == "serve_hot" ||
                       Opts.Workload == "serve_cold" ||
                       Opts.Workload == "serve_open";
  if ((!Serving && Opts.Workload != "train") || !HaveSeed ||
      !(Opts.Seconds >= 1.0 && Opts.Seconds <= 120.0))
    return usage(Argv[0]);

  std::cout << "nvbench " << Opts.Workload << "  seed " << Opts.Seed
            << "  seconds " << Opts.Seconds << "  "
            << (Opts.traced() ? "traced" : "untraced")
            << "  hardware_threads " << std::thread::hardware_concurrency()
            << "  compiler gcc " << __VERSION__ << "\n";

  Tracer T;
  const Report R = Serving ? runServe(Opts, T) : runTrain(Opts, T);

  std::cout << std::setprecision(12);
  for (const Report::Metric &M : R.Metrics)
    std::cout << "metric " << M.Name << " " << M.Value << " " << M.Unit
              << "\n";
  std::cout << "result attempted " << R.Attempted << " failed " << R.Failed
            << " correct " << (R.correct() ? 1 : 0) << "\n";
  return R.correct() ? 0 : 1;
}
