//===- tests/FaultTest.cpp - fault injection and failure-hardening tests --===//
//
// The chaos suite: arms the process-wide fault registry
// (support/FaultInjection.h) and asserts the failure-hardening
// contracts end to end — crash-safe persistence survives mid-save
// kills, the daemon survives socket faults and half-closed peers, the
// retrying client loses zero idempotent operations, and the serving
// ladder degrades instead of erroring when a backend goes bad.
//
// Every test that arms the registry disarms it on scope exit
// (FaultScope) so arming never leaks into other suites.
//
//===----------------------------------------------------------------------===//

#include "TestCounters.h"
#include "core/NeuroVectorizer.h"
#include "net/Client.h"
#include "net/NetServer.h"
#include "net/Protocol.h"
#include "serve/CircuitBreaker.h"
#include "serve/ModelHost.h"
#include "support/AtomicFile.h"
#include "support/FaultInjection.h"
#include "support/Socket.h"
#include "support/TraceBuffer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

using namespace nv;
using net::Verb;
using net::WireStatus;

namespace {

const char *DotProduct =
    "int vec[512]; int out; void f() { int sum = 0; for (int i = 0; i < "
    "512; i++) { sum += vec[i] * vec[i]; } out = sum; }";

const char *Saxpy =
    "float x[256]; float y[256]; void s() { for (int i = 0; i < 256; "
    "i++) { y[i] = y[i] + x[i]; } }";

/// Small, fast configuration (matches NetTest's).
NeuroVectorizerConfig testConfig(uint64_t Seed = 1234) {
  NeuroVectorizerConfig Config;
  Config.PPO.BatchSize = 64;
  Config.PPO.MiniBatchSize = 32;
  Config.PPO.LearningRate = 3e-3;
  Config.Embedding.CodeDim = 16;
  Config.Embedding.TokenDim = 8;
  Config.Embedding.PathDim = 8;
  Config.Seed = Seed;
  return Config;
}

/// A scratch file path removed on scope exit (with any atomic-write temp
/// a crash test may have left beside it).
struct TempFile {
  std::string Path;
  explicit TempFile(const std::string &Name)
      : Path(::testing::TempDir() + Name) {}
  ~TempFile() {
    std::remove(Path.c_str());
    std::remove((Path + ".tmp." + std::to_string(::getpid())).c_str());
  }
};

/// Arms the registry for one scope; disarms unconditionally on exit so a
/// failing assertion cannot leave the process armed for later suites.
struct FaultScope {
  explicit FaultScope(const std::string &Spec,
                      uint64_t Seed = fault::DefaultSeed) {
    std::string Error;
    Armed = fault::FaultRegistry::instance().arm(Spec, Seed, &Error);
    EXPECT_TRUE(Armed) << Error;
  }
  ~FaultScope() { fault::FaultRegistry::instance().disarm(); }
  bool Armed = false;
};

std::string slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(In)),
                     std::istreambuf_iterator<char>());
}

ServeConfig smallServe(int Threads = 2) {
  ServeConfig S;
  S.Threads = Threads;
  return S;
}

/// A hosted-mode service + daemon on an ephemeral loopback port
/// (NetTest's fixture).
struct TestServer {
  NeuroVectorizerConfig Config;
  ModelHost Models;
  AnnotationService Service;
  NetServer Server;

  explicit TestServer(NetServerConfig Net = NetServerConfig(),
                      int Threads = 2)
      : Config(testConfig()),
        Models(NeuroVectorizer(Config).servingModelConfig()),
        Service(Models, Config.Embedding.Paths, Config.Target,
                smallServe(Threads)),
        Server(Service, Models, Net) {}

  uint16_t start() {
    std::string Error;
    EXPECT_TRUE(Server.start(&Error)) << Error;
    return Server.port();
  }
};

net::AnnotateRequestBody makeBatch(const std::vector<std::string> &Sources) {
  net::AnnotateRequestBody Req;
  for (size_t I = 0; I < Sources.size(); ++I) {
    net::WireProgram P;
    P.Name = "p" + std::to_string(I);
    P.Source = Sources[I];
    Req.Programs.push_back(std::move(P));
  }
  return Req;
}

// --- Registry and grammar ------------------------------------------------

TEST(FaultInjection, GrammarParsesEveryFormAndRejectsMalformed) {
  fault::FaultRegistry &R = fault::FaultRegistry::instance();
  {
    FaultScope Scope("a.b=0.25,c.d=fail@3,e.f=abort@9,g.h=15ms");
    ASSERT_TRUE(Scope.Armed);
    EXPECT_TRUE(R.armed());
    EXPECT_TRUE(fault::point("a.b").armed());
    EXPECT_TRUE(fault::point("c.d").armed());
    EXPECT_TRUE(fault::point("e.f").armed());
    EXPECT_TRUE(fault::point("g.h").armed());
    // The status document lists every armed point by name.
    const std::string Json = R.statusJson();
    for (const char *Name : {"a.b", "c.d", "e.f", "g.h"})
      EXPECT_NE(Json.find(Name), std::string::npos) << Json;
  }
  EXPECT_FALSE(R.armed());
  EXPECT_FALSE(fault::point("a.b").armed());

  // A grammar error arms nothing — all-or-nothing, with the cause named.
  for (const char *Bad :
       {"nospec", "p=", "p=1.5", "p=-0.1", "p=fail@", "p=fail@x", "p=12q",
        "=0.5", "p=abort@0"}) {
    std::string Error;
    EXPECT_FALSE(R.arm(Bad, fault::DefaultSeed, &Error)) << Bad;
    EXPECT_FALSE(Error.empty()) << Bad;
    EXPECT_FALSE(R.armed()) << Bad;
  }
}

TEST(FaultInjection, ProbabilityStreamIsDeterministicAcrossRearm) {
  fault::FaultRegistry &R = fault::FaultRegistry::instance();
  auto Pattern = [&](uint64_t Seed) {
    std::string Error;
    EXPECT_TRUE(R.arm("det.prob=0.3", Seed, &Error)) << Error;
    fault::FaultPoint &P = fault::point("det.prob");
    std::vector<bool> Out;
    for (int I = 0; I < 200; ++I)
      Out.push_back(fault::fired(P));
    return Out;
  };
  const std::vector<bool> A = Pattern(42);
  const std::vector<bool> B = Pattern(42);
  const std::vector<bool> C = Pattern(43);
  R.disarm();
  EXPECT_EQ(A, B);
  EXPECT_NE(A, C); // 200 draws at p=0.3: collision is ~impossible.
  const size_t Fires = static_cast<size_t>(
      std::count(A.begin(), A.end(), true));
  EXPECT_GT(Fires, 30u); // Loose 3-sigma-ish bounds around 60.
  EXPECT_LT(Fires, 100u);
}

TEST(FaultInjection, FailAtNFiresExactlyOnce) {
  FaultScope Scope("nth.hit=fail@3");
  fault::FaultPoint &P = fault::point("nth.hit");
  for (int I = 1; I <= 10; ++I)
    EXPECT_EQ(fault::fired(P), I == 3) << "hit " << I;
  EXPECT_EQ(P.hits(), 10u);
  EXPECT_EQ(P.fired(), 1u);
}

TEST(FaultInjection, DelayInjectsLatencyWithoutFailure) {
  FaultScope Scope("slow.point=20ms");
  fault::FaultPoint &P = fault::point("slow.point");
  const uint64_t T0 = nowMicros();
  EXPECT_FALSE(fault::fired(P)); // Delay never reports failure.
  const uint64_t Elapsed = nowMicros() - T0;
  EXPECT_GE(Elapsed, 15000u) << "sleep was skipped";
}

TEST(FaultInjection, UnarmedFastPathCountsNothing) {
  fault::FaultRegistry::instance().disarm();
  fault::FaultPoint &P = fault::point("cold.point");
  const uint64_t Before = P.hits();
  for (int I = 0; I < 1000; ++I)
    EXPECT_FALSE(fault::fired(P));
  // Unarmed hits never reach the slow path, so the counter is untouched.
  EXPECT_EQ(P.hits(), Before);
}

// --- Crash-safe persistence ----------------------------------------------

TEST(AtomicFile, ReplacesWholeFileAtomically) {
  TempFile File("fault_atomic.bin");
  std::string Error;
  ASSERT_EQ(atomicWriteFile(File.Path, "first", 5, &Error), SaveStatus::Ok)
      << Error;
  EXPECT_EQ(slurp(File.Path), "first");
  ASSERT_EQ(atomicWriteFile(File.Path, "second!", 7, &Error),
            SaveStatus::Ok);
  EXPECT_EQ(slurp(File.Path), "second!");
}

TEST(AtomicFile, InjectedFailuresLeaveOldContentAndNoTempBehind) {
  TempFile File("fault_atomic_inject.bin");
  std::string Error;
  ASSERT_EQ(atomicWriteFile(File.Path, "good", 4, &Error), SaveStatus::Ok);

  const struct {
    const char *Spec;
    SaveStatus Want;
  } Cases[] = {
      {"file.write=fail@1", SaveStatus::WriteFailed},
      {"file.fsync=fail@1", SaveStatus::SyncFailed},
      {"file.rename=fail@1", SaveStatus::RenameFailed},
  };
  for (const auto &Case : Cases) {
    FaultScope Scope(Case.Spec);
    std::string Err;
    EXPECT_EQ(atomicWriteFile(File.Path, "torn-new-content", 16, &Err),
              Case.Want)
        << Case.Spec;
    EXPECT_FALSE(Err.empty());
    // Old bytes intact, temp cleaned up.
    EXPECT_EQ(slurp(File.Path), "good") << Case.Spec;
    const std::string Tmp =
        File.Path + ".tmp." + std::to_string(::getpid());
    EXPECT_NE(::access(Tmp.c_str(), F_OK), 0) << "temp leaked: " << Tmp;
  }
  EXPECT_EQ(slurp(File.Path), "good");
}

TEST(AtomicFile, MidSaveAbortLeavesOldFileIntact) {
  TempFile File("fault_atomic_abort.bin");
  std::string Error;
  ASSERT_EQ(atomicWriteFile(File.Path, "precious", 8, &Error),
            SaveStatus::Ok);

  // Arm before the fork so the child needs no post-fork setup (the
  // armed-path decision is lock-free); the parent disarms immediately.
  ASSERT_TRUE(fault::FaultRegistry::instance().arm("file.write=abort@2"));
  const pid_t Child = ::fork();
  if (Child == 0) {
    // In the child: a 1 MiB body spans four 256 KiB chunks, so the
    // abort lands mid-body with the temp file genuinely torn.
    std::vector<char> Big(1 << 20, 'x');
    (void)atomicWriteFile(File.Path, Big.data(), Big.size(), nullptr);
    ::_exit(0); // Only reached if the abort failed to fire.
  }
  fault::FaultRegistry::instance().disarm();
  ASSERT_GT(Child, 0);
  int Status = 0;
  ASSERT_EQ(::waitpid(Child, &Status, 0), Child);
  ASSERT_TRUE(WIFSIGNALED(Status)) << "child exited instead of aborting";
  EXPECT_EQ(WTERMSIG(Status), SIGABRT);

  // The kill hit mid-save; the destination never saw a torn byte. The
  // child's temp file may survive the crash — that is the contract
  // (rename never ran), and a later successful save ignores it.
  EXPECT_EQ(slurp(File.Path), "precious");
  std::remove((File.Path + ".tmp." + std::to_string(Child)).c_str());
}

TEST(ModelSerializer, TrySaveReportsStageAndPreservesOldModel) {
  TempFile File("fault_trysave.nvm");
  NeuroVectorizer NV(testConfig());
  ASSERT_TRUE(NV.addTrainingProgram("dot", DotProduct));
  NV.train(48);
  std::string Error;
  ASSERT_EQ(NV.trySave(File.Path, &Error), SaveStatus::Ok) << Error;
  const std::string Golden = slurp(File.Path);
  ASSERT_FALSE(Golden.empty());

  {
    FaultScope Scope("file.fsync=fail@1");
    std::string Err;
    EXPECT_EQ(NV.trySave(File.Path, &Err), SaveStatus::SyncFailed);
    EXPECT_STREQ(saveStatusName(SaveStatus::SyncFailed), "sync_failed");
  }
  // The failed save left the previous model byte-identical and loadable.
  EXPECT_EQ(slurp(File.Path), Golden);
  NeuroVectorizer Fresh(testConfig(/*Seed=*/9));
  EXPECT_TRUE(Fresh.load(File.Path, &Error)) << Error;
}

// --- Circuit breaker and the degradation ladder --------------------------

TEST(CircuitBreaker, OpensAfterThresholdCoolsDownAndRecovers) {
  CircuitBreaker B(/*FailureThreshold=*/3, /*CooldownMicros=*/1000);
  uint64_t Now = 0;
  EXPECT_TRUE(B.allow(Now));
  B.recordFailure(Now);
  B.recordFailure(Now);
  EXPECT_EQ(B.state(), CircuitBreaker::State::Closed);
  // A success resets the consecutive count...
  B.recordSuccess();
  B.recordFailure(Now);
  B.recordFailure(Now);
  EXPECT_TRUE(B.allow(Now));
  // ...so the third consecutive failure is what trips it.
  B.recordFailure(Now);
  EXPECT_EQ(B.state(), CircuitBreaker::State::Open);
  EXPECT_FALSE(B.allow(Now + 999));
  // Cooldown elapsed: probes flow (HalfOpen), a failure slams it shut.
  EXPECT_TRUE(B.allow(Now + 1000));
  EXPECT_EQ(B.state(), CircuitBreaker::State::HalfOpen);
  B.recordFailure(Now + 1001);
  EXPECT_EQ(B.state(), CircuitBreaker::State::Open);
  EXPECT_FALSE(B.allow(Now + 1500));
  // Second probe succeeds: closed for business.
  EXPECT_TRUE(B.allow(Now + 2500));
  B.recordSuccess();
  EXPECT_EQ(B.state(), CircuitBreaker::State::Closed);
  EXPECT_TRUE(B.allow(Now + 2500));
  EXPECT_EQ(B.failures(), 6u);
  EXPECT_EQ(B.opens(), 2u);
}

TEST(AnnotationService, PredictFaultDegradesThenBreakerShortCircuits) {
  // Every RL predict fails (injected). Requests still succeed — the
  // mid-flight ladder floors them to identity plans, flagged Degraded —
  // and after three consecutive failures the RL breaker opens, so the
  // fourth request never touches RL at all: phase-1 resolution walks
  // straight to the baseline cost model.
  NeuroVectorizer NV(testConfig());
  ServeConfig Serve;
  Serve.Threads = 2;
  Serve.BreakerFailureThreshold = 3;
  AnnotationService &Service = NV.service(Serve);
  FaultScope Scope("serve.predict.rl=1");
  const CounterDelta PredictFailures("serve.predict_failures");
  const CounterDelta Degraded("serve.degraded_requests");
  const CounterDelta Rejected("serve.programs_rejected");

  for (int I = 0; I < 3; ++I) {
    const AnnotationResult Res =
        Service.annotateOne("dot", DotProduct, PredictMethod::RL);
    EXPECT_TRUE(Res.Ok) << Res.Error;
    EXPECT_TRUE(Res.Degraded);
    EXPECT_EQ(Service.breaker(PredictMethod::RL).failures(),
              static_cast<uint64_t>(I + 1));
  }
  EXPECT_EQ(Service.breaker(PredictMethod::RL).state(),
            CircuitBreaker::State::Open);
  EXPECT_EQ(PredictFailures(), 3u);

  const AnnotationResult After =
      Service.annotateOne("dot", DotProduct, PredictMethod::RL);
  EXPECT_TRUE(After.Ok) << After.Error;
  EXPECT_TRUE(After.Degraded);
  EXPECT_EQ(After.Method, PredictMethod::Baseline);
  // The short-circuited request never reached the faulted backend.
  EXPECT_EQ(Service.breaker(PredictMethod::RL).failures(), 3u);
  EXPECT_EQ(Degraded(), 4u);
  EXPECT_EQ(Rejected(), 0u);
}

TEST(AnnotationService, StrictModePredictFaultRejectsInstead) {
  NeuroVectorizer NV(testConfig());
  ServeConfig Strict;
  Strict.Threads = 2;
  Strict.Fallback = false;
  AnnotationService &Service = NV.service(Strict);
  FaultScope Scope("serve.predict.rl=1");
  const CounterDelta Degraded("serve.degraded_requests");

  const AnnotationResult Res =
      Service.annotateOne("dot", DotProduct, PredictMethod::RL);
  EXPECT_FALSE(Res.Ok);
  EXPECT_NE(Res.Error.find("predict failed"), std::string::npos)
      << Res.Error;
  EXPECT_EQ(Degraded(), 0u);
}

// --- Client resilience ---------------------------------------------------

TEST(NetClient, BackoffIsDeterministicCappedAndJittered) {
  ClientConfig Config;
  Config.BackoffBaseMs = 50;
  Config.BackoffMaxMs = 2000;
  for (int Attempt = 0; Attempt < 12; ++Attempt) {
    const uint64_t A = NetClient::backoffMicros(Config, Attempt);
    const uint64_t B = NetClient::backoffMicros(Config, Attempt);
    EXPECT_EQ(A, B) << "attempt " << Attempt; // Same seed, same delay.
    const uint64_t StepMs = std::min<uint64_t>(
        Config.BackoffMaxMs,
        static_cast<uint64_t>(Config.BackoffBaseMs) << Attempt);
    EXPECT_GE(A, StepMs * 1000 / 2) << "attempt " << Attempt;
    EXPECT_LT(A, StepMs * 1000) << "attempt " << Attempt;
  }
  // The cap holds forever: attempt 30 is still <= 2 s of sleep.
  EXPECT_LT(NetClient::backoffMicros(Config, 30), 2'000'000u);
  // A different seed draws a different jitter somewhere in the range.
  ClientConfig Other = Config;
  Other.BackoffSeed = 1;
  bool Differs = false;
  for (int Attempt = 0; Attempt < 12 && !Differs; ++Attempt)
    Differs = NetClient::backoffMicros(Other, Attempt) !=
              NetClient::backoffMicros(Config, Attempt);
  EXPECT_TRUE(Differs);
}

TEST(NetClient, IoDeadlineBoundsAHungServer) {
  // A listener that never accepts: connect() succeeds (backlog), the
  // ping then starves. The deadline must surface failure in bounded
  // time instead of hanging the caller forever.
  std::string Error;
  uint16_t Port = 0;
  FileDescriptor Listener = listenTcp("127.0.0.1", 0, &Error, &Port);
  ASSERT_TRUE(Listener.valid()) << Error;

  ClientConfig Config;
  Config.ConnectTimeoutMs = 1000;
  Config.IoTimeoutMs = 100;
  Config.MaxRetries = 1;
  Config.BackoffBaseMs = 1;
  Config.BackoffMaxMs = 4;
  NetClient Client(Config);
  ASSERT_TRUE(Client.connect("127.0.0.1", Port, &Error)) << Error;

  const uint64_t T0 = nowMicros();
  EXPECT_FALSE(Client.ping(&Error));
  const uint64_t Elapsed = nowMicros() - T0;
  EXPECT_FALSE(Error.empty());
  // Two attempts x ~100 ms deadline + backoff, with generous slack.
  EXPECT_LT(Elapsed, 5'000'000u) << "deadline did not bound the hang";
}

// --- End-to-end chaos ----------------------------------------------------

TEST(Chaos, SocketFaultHammerLosesNoIdempotentOperation) {
  TestServer TS;
  const uint16_t Port = TS.start();

  // Both ends of every connection live in this process, so the armed
  // probabilities flake client reads/writes AND the daemon's epoll
  // read/flush paths. The retrying client must still land every
  // idempotent operation.
  ClientConfig Config;
  Config.ConnectTimeoutMs = 2000;
  Config.IoTimeoutMs = 2000;
  Config.MaxRetries = 8;
  Config.BackoffBaseMs = 1;
  Config.BackoffMaxMs = 8;
  NetClient Client(Config);
  std::string Error;
  ASSERT_TRUE(Client.connect("127.0.0.1", Port, &Error)) << Error;

  {
    FaultScope Scope("socket.read=0.04,socket.write=0.04",
                     /*Seed=*/20260808);
    for (int I = 0; I < 30; ++I) {
      if (I % 3 == 0) {
        EXPECT_TRUE(Client.ping(&Error)) << "op " << I << ": " << Error;
        continue;
      }
      net::AnnotateResponseBody Out;
      WireStatus Status = WireStatus::Error;
      ASSERT_TRUE(Client.annotate(makeBatch({DotProduct, Saxpy}), Out,
                                  Status, &Error))
          << "op " << I << ": " << Error;
      EXPECT_EQ(Status, WireStatus::Ok);
      ASSERT_EQ(Out.Results.size(), 2u);
      for (const net::WireResult &R : Out.Results)
        EXPECT_TRUE(R.Ok) << R.Error;
    }
    // The profile must actually have bitten — otherwise this test
    // proves nothing (seed chosen so it reliably does).
    const RetryStats &Stats = Client.retryStats();
    EXPECT_GT(Stats.Retries + Stats.Reconnects, 0u)
        << "no fault ever fired; raise the probability or fix the seed";
  }

  // Disarmed again: the daemon is intact and answers cleanly.
  EXPECT_TRUE(Client.ping(&Error)) << Error;
  const NetServerCounters C = TS.Server.counters();
  EXPECT_GE(C.Requests, 30u);
}

TEST(Chaos, HalfClosedPeerDoesNotKillTheDaemon) {
  // SIGPIPE regression: a client that sends a request and vanishes
  // before reading the response makes the daemon write into a closed
  // peer. MSG_NOSIGNAL must turn that into EPIPE, not process death
  // (this test binary installs no SIGPIPE handler on purpose).
  TestServer TS;
  const uint16_t Port = TS.start();

  for (int Round = 0; Round < 4; ++Round) {
    std::string Error;
    FileDescriptor Fd = connectTcp("127.0.0.1", Port, &Error, 1000);
    ASSERT_TRUE(Fd.valid()) << Error;
    const std::vector<char> Frame =
        net::encodeAnnotateRequest(makeBatch({DotProduct, Saxpy}));
    ASSERT_TRUE(writeFull(Fd.fd(), Frame.data(), Frame.size()));
    // Hard close (RST on unread response data) without reading a byte.
    struct linger Abort = {1, 0};
    ::setsockopt(Fd.fd(), SOL_SOCKET, SO_LINGER, &Abort, sizeof(Abort));
    Fd.reset();
  }

  // The daemon survived every EPIPE/RST and still serves.
  NetClient Client;
  std::string Error;
  ASSERT_TRUE(Client.connect("127.0.0.1", Port, &Error)) << Error;
  EXPECT_TRUE(Client.ping(&Error)) << Error;
}

TEST(Chaos, InjectedReloadFailureSurfacesThenRetrySucceeds) {
  TempFile Model("fault_reload.nvm");
  {
    NeuroVectorizer NV(testConfig(/*Seed=*/5));
    ASSERT_TRUE(NV.addTrainingProgram("dot", DotProduct));
    NV.train(48);
    std::string Error;
    ASSERT_TRUE(NV.save(Model.Path, &Error)) << Error;
  }

  TestServer TS;
  const uint16_t Port = TS.start();
  NetClient Client;
  std::string Error;
  ASSERT_TRUE(Client.connect("127.0.0.1", Port, &Error)) << Error;

  FaultScope Scope("model.reload=fail@1");
  WireStatus Status = WireStatus::Ok;
  uint64_t Generation = 0;
  // First reload: the injected fault fails it, with the stage named in
  // the rejection body; the serving generation must not advance.
  ASSERT_TRUE(Client.reload(Model.Path, Status, &Generation, &Error))
      << Error;
  EXPECT_EQ(Status, WireStatus::ReloadFailed);
  EXPECT_NE(Client.statusMessage().find("fault injected"),
            std::string::npos)
      << Client.statusMessage();
  EXPECT_EQ(TS.Models.generation(), 0u);

  // fail@1 is spent: the operator's retry goes through and serves.
  ASSERT_TRUE(Client.reload(Model.Path, Status, &Generation, &Error))
      << Error;
  EXPECT_EQ(Status, WireStatus::Ok);
  EXPECT_EQ(Generation, 1u);
  EXPECT_EQ(TS.Models.generation(), 1u);

  net::AnnotateResponseBody Out;
  ASSERT_TRUE(Client.annotate(makeBatch({DotProduct}), Out, Status,
                              &Error))
      << Error;
  EXPECT_EQ(Status, WireStatus::Ok);
  ASSERT_EQ(Out.Results.size(), 1u);
  EXPECT_TRUE(Out.Results[0].Ok) << Out.Results[0].Error;
}

TEST(Chaos, StatszReportsFaultActivityWhileArmed) {
  TestServer TS;
  const uint16_t Port = TS.start();
  NetClient Client;
  std::string Error;
  ASSERT_TRUE(Client.connect("127.0.0.1", Port, &Error)) << Error;

  std::string Json;
  {
    FaultScope Scope("exec.slow=1ms");
    // One annotation exercises the executor point, so the faults
    // section has a nonzero hit count to report.
    net::AnnotateResponseBody Out;
    WireStatus Status = WireStatus::Error;
    ASSERT_TRUE(Client.annotate(makeBatch({DotProduct}), Out, Status,
                                &Error))
        << Error;
    ASSERT_TRUE(Client.statsz(Json, &Error)) << Error;
    EXPECT_NE(Json.find("\"faults\""), std::string::npos) << Json;
    EXPECT_NE(Json.find("exec.slow"), std::string::npos) << Json;
  }
  // Breaker telemetry is always present; faults only while armed.
  ASSERT_TRUE(Client.statsz(Json, &Error)) << Error;
  EXPECT_NE(Json.find("\"breakers\""), std::string::npos);
  EXPECT_NE(Json.find("\"serve.degraded_requests\""), std::string::npos);
  EXPECT_EQ(Json.find("\"faults\""), std::string::npos) << Json;
}

} // namespace
