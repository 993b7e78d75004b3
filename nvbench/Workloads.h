//===- nvbench/Workloads.h - The benchmark's workloads ----------*- C++ -*-===//
//
// Part of the NeuroVectorizer reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The four workloads (why each exists is in README.md) and the layer
/// replay every traced run ends with.
///
///   serve_hot   closed loop, 64-program working set (plan cache hit ~1)
///   serve_cold  closed loop, 40,000 distinct programs (hit ~0)
///   serve_open  open loop, Poisson arrivals at three rates, hot reloads
///   train       PPO training through the Trainer with 4 rollout workers
///
/// An untraced run reports the end-to-end metrics; a traced run (--trace)
/// reports the per-layer metrics. Both check outputs.
///
//===----------------------------------------------------------------------===//

#ifndef NVBENCH_WORKLOADS_H
#define NVBENCH_WORKLOADS_H

#include "Harness.h"

#include "core/NeuroVectorizer.h"
#include "dataset/Suites.h"

#include <vector>

namespace nvbench {

/// Runs serve_hot, serve_cold or serve_open.
Report runServe(const Options &Opts, Tracer &T);

/// Runs train.
Report runTrain(const Options &Opts, Tracer &T);

/// Drives \p Programs through each layer's public functions on one
/// thread, the way the serving pipeline composes them, with a span around
/// every call: parse, loop extraction, path contexts, lowering, legality
/// (per program), then encode and greedy policy forward per frame of 16
/// programs, pragma injection and printing, and one simulated step per
/// program. Then replays PPO minibatches of the same loops through the
/// training-side layers (encode with backward caches, policy forward and
/// backward, embedding backward, Adam).
///
/// Adds the per-layer metrics to \p R and rows to \p Rows, and returns
/// the greedy, legality-clamped plans per program — the reference the
/// serving workloads compare the daemon's answers against. Updates the
/// weights of \p Embedder and \p Pol (the minibatch replay steps Adam).
std::vector<std::vector<nv::VectorPlan>>
replayLayers(const std::vector<nv::NamedProgram> &Programs,
             nv::NeuroVectorizer &Model, Tracer &T, Report &R,
             std::vector<LayerRow> &Rows);

} // namespace nvbench

#endif // NVBENCH_WORKLOADS_H
