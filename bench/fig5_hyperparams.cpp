//===- bench/fig5_hyperparams.cpp - Paper Fig 5 reproduction --------------===//
//
// Part of the NeuroVectorizer reproduction. MIT license.
//
// Reproduces Figure 5: reward mean and training loss vs training steps for
// different learning rates (5e-5, 5e-4, 5e-3), FCNN architectures (64x64,
// 128x128, 256x256), and batch sizes. Paper findings to compare against:
//   - 5e-3 never reaches the maximum of the smaller rates and has the
//     highest loss;
//   - FCNN width makes only minor differences;
//   - smaller batches converge with fewer samples; the policy reaches a
//     rewarding state (> 0) within ~5k samples at the smallest batch.
// Note the compute scaling: the paper trains to 500k steps on a cluster;
// this harness runs a few thousand steps per configuration, so the sweep
// shows the same orderings at compressed scale.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "support/Table.h"

#include <iostream>

using namespace nv;

namespace {

void runConfig(const std::string &Label, NeuroVectorizerConfig Config,
               long long Steps) {
  Config.Seed = 42;
  NeuroVectorizer NV(Config);
  LoopGenerator Gen(42);
  for (const GeneratedLoop &L : Gen.generateMany(150))
    NV.addTrainingProgram(L.Name, L.Source);
  TrainStats Stats = NV.train(Steps);
  std::cout << "--- " << Label << " ---\n";
  Stats.RewardMean.print(std::cout, 8);
  Stats.Loss.print(std::cout, 8);
  std::cout << "final reward mean: "
            << Table::fmt(Stats.FinalRewardMean, 3) << "\n\n";
}

} // namespace

int main() {
  std::cout << "=== Fig 5: hyperparameter sweep (reward mean / training "
               "loss vs steps) ===\n\n";

  std::cout << "## learning rate sweep (batch 256, FCNN 64x64)\n\n";
  for (double LR : {5e-5, 5e-4, 5e-3}) {
    NeuroVectorizerConfig Config = benchConfig();
    Config.PPO.LearningRate = LR;
    runConfig("lr = " + Table::fmt(LR, 5), Config, 6400);
  }

  std::cout << "## FCNN architecture sweep (lr 2e-3, batch 256)\n\n";
  for (int Width : {64, 128, 256}) {
    NeuroVectorizerConfig Config = benchConfig();
    Config.Hidden = {Width, Width};
    runConfig("fcnn " + std::to_string(Width) + "x" + std::to_string(Width),
              Config, 6400);
  }

  std::cout << "## batch size sweep (lr 2e-3, FCNN 64x64)\n\n";
  for (int Batch : {256, 512, 1024}) {
    NeuroVectorizerConfig Config = benchConfig();
    Config.PPO.BatchSize = Batch;
    runConfig("batch " + std::to_string(Batch), Config, 6400);
  }

  std::cout << "paper reference: lr 5e-3 worst (never reaches the smaller "
               "rates' maximum);\nFCNN width has minor effect; smaller "
               "batches converge in fewer samples.\n";
  return 0;
}
