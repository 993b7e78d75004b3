//===- examples/nv_serverd.cpp - The annotation daemon --------------------===//
//
// Part of the NeuroVectorizer reproduction. MIT license.
//
// The network deployment of the paper's oracle: an epoll TCP daemon
// serving batched annotation requests over the length-prefixed protocol
// in net/Protocol.h, with zero-downtime hot model reload — push a
// retrained v3 model file and `reload` it without dropping a request.
//
//   $ ./nv_serverd --train-demo model.nvm --port 7117
//   $ python3 tools/nv_client.py --port 7117 annotate kernel.c
//   $ python3 tools/nv_client.py --port 7117 reload model.nvm
//   $ python3 tools/nv_client.py --port 7117 statsz
//
// --train-demo trains a small model first (so the daemon is usable
// standalone); production use is --model with a file a training process
// saved. SIGINT/SIGTERM drain: admitted requests finish and get their
// responses, new ones answer SHUTTING_DOWN, then the daemon exits after
// writing a final telemetry snapshot (--snapshot).
//
//===----------------------------------------------------------------------===//

#include "core/NeuroVectorizer.h"
#include "dataset/LoopGenerator.h"
#include "net/NetServer.h"
#include "nn/Kernels.h"
#include "serve/ModelHost.h"

#include <csignal>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

using namespace nv;

namespace {

NetServer *ActiveServer = nullptr;

void onSignal(int) {
  // Async-signal-safe by contract (one store + one eventfd write).
  if (ActiveServer)
    ActiveServer->requestShutdown();
}

int usage(const char *Argv0) {
  std::cerr
      << "usage: " << Argv0 << " [options]\n"
      << "  --host H          bind address (default 127.0.0.1)\n"
      << "  --port P          bind port (default 7117; 0 = ephemeral)\n"
      << "  --model PATH      v3 model file to serve (hot-reloadable)\n"
      << "  --train-demo PATH train a small demo model, save it to PATH,\n"
      << "                    and serve it (standalone quick start)\n"
      << "  --threads N       annotation pool size (default 4)\n"
      << "  --executors N     request executor threads (default 2)\n"
      << "  --queue-watermark N  shed when executor queue >= N (default 64)\n"
      << "  --max-inflight-mb N  shed when admitted bytes > N MiB "
         "(default 32)\n"
      << "  --snapshot PATH   write a final telemetry snapshot on drain\n";
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  // A client that vanishes mid-response must surface as EPIPE on the
  // write, not kill the daemon with SIGPIPE (belt to NetServer's
  // MSG_NOSIGNAL suspenders — covers any raw write paths too).
  std::signal(SIGPIPE, SIG_IGN);
  std::string Host = "127.0.0.1";
  uint16_t Port = 7117;
  std::string ModelPath;
  std::string TrainDemoPath;
  int Threads = 4;
  NetServerConfig Net;

  for (int I = 1; I < Argc; ++I) {
    const std::string Arg = Argv[I];
    auto Next = [&](const char *Flag) -> const char * {
      if (I + 1 >= Argc) {
        std::cerr << Flag << " needs a value\n";
        std::exit(2);
      }
      return Argv[++I];
    };
    if (Arg == "--host")
      Host = Next("--host");
    else if (Arg == "--port")
      Port = static_cast<uint16_t>(std::atoi(Next("--port")));
    else if (Arg == "--model")
      ModelPath = Next("--model");
    else if (Arg == "--train-demo")
      TrainDemoPath = Next("--train-demo");
    else if (Arg == "--threads")
      Threads = std::atoi(Next("--threads"));
    else if (Arg == "--executors")
      Net.Executors = std::atoi(Next("--executors"));
    else if (Arg == "--queue-watermark")
      Net.QueueWatermark =
          static_cast<size_t>(std::atol(Next("--queue-watermark")));
    else if (Arg == "--max-inflight-mb")
      Net.MaxInFlightBytes =
          static_cast<size_t>(std::atol(Next("--max-inflight-mb"))) << 20;
    else if (Arg == "--snapshot")
      Net.FinalSnapshotPath = Next("--snapshot");
    else
      return usage(Argv[0]);
  }
  Net.Host = Host;
  Net.Port = Port;

  // One architecture for the whole process; a reloaded file must match it
  // (the serializer validates every shape).
  NeuroVectorizerConfig Config;

  if (!TrainDemoPath.empty()) {
    // Standalone quick start: train a small model in-process, distill the
    // supervised backends, and save — the file is then served AND doubles
    // as a hot-reload target for client demos.
    Config.PPO.BatchSize = 256;
    Config.PPO.MiniBatchSize = 64;
    Config.PPO.LearningRate = 2e-3;
    NeuroVectorizer Trainer(Config);
    LoopGenerator Gen(/*Seed=*/42);
    for (const GeneratedLoop &L : Gen.generateMany(100))
      Trainer.addTrainingProgram(L.Name, L.Source);
    std::cout << "training demo model..." << std::endl;
    Trainer.train(/*Steps=*/2000);
    Trainer.fitSupervised(/*MaxSamples=*/32);
    std::string Error;
    const SaveStatus St = Trainer.trySave(TrainDemoPath, &Error);
    if (St != SaveStatus::Ok) {
      std::cerr << "save failed (" << saveStatusName(St) << "): " << Error
                << "\n";
      return 1;
    }
    std::cout << "demo model saved to " << TrainDemoPath << std::endl;
    ModelPath = TrainDemoPath;
  }

  ModelHost Models(NeuroVectorizer(Config).servingModelConfig());
  if (!ModelPath.empty()) {
    std::string Error;
    const LoadStatus Status = Models.reload(ModelPath, &Error);
    if (Status != LoadStatus::Ok) {
      std::cerr << "model load failed (" << loadStatusName(Status)
                << "): " << Error << "\n";
      return 1;
    }
  } else {
    std::cout << "warning: serving an untrained generation-0 model; pass "
                 "--model or --train-demo, or push one with reload\n";
  }

  ServeConfig Serve;
  Serve.Threads = Threads;
  AnnotationService Service(Models, Config.Embedding.Paths, Config.Target,
                            Serve);
  NetServer Server(Service, Models, Net);

  std::string Error;
  if (!Server.start(&Error)) {
    std::cerr << "start failed: " << Error << "\n";
    return 1;
  }
  ActiveServer = &Server;
  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);
  // The smoke job and tests parse this line for the bound port.
  std::cout << "nv_serverd listening on " << Host << ":" << Server.port()
            << " generation=" << Models.generation()
            << " isa=" << kernelIsaName(kernelIsa()) << std::endl;

  Server.wait();
  ActiveServer = nullptr;

  const NetServerCounters C = Server.counters();
  std::cout << "drained: " << C.Requests << " requests (" << C.Annotated
            << " annotated, " << C.Shed << " shed, " << C.Rejected
            << " rejected), " << C.Reloads << " reloads" << std::endl;
  return 0;
}
