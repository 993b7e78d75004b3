//===- nvbench/Serve.cpp - The serving workloads --------------------------===//
//
// Part of the NeuroVectorizer reproduction. MIT license.
//
// serve_hot, serve_cold and serve_open drive an in-process nv_serverd
// (ModelHost + AnnotationService + NetServer, all at their default
// configuration) over loopback with the wire protocol, from at most 4
// client threads on at most 4 connections.
//
// Every answer is checked. While the clock runs, each result must be Ok,
// not degraded, and byte-identical to every earlier answer for the same
// program from the same model generation; in serve_open its generation
// must be one the reload schedule allows. After the clock stops, every
// distinct answer is re-parsed (its pragmas must equal its plans) and
// each plan is checked against the legal-plan mask the bench computes
// itself with lowerAllLoops + analyzeLegality.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "dataset/LoopGenerator.h"
#include "ir/Legality.h"
#include "ir/Lowering.h"
#include "lang/LoopExtractor.h"
#include "lang/Parser.h"
#include "net/Client.h"
#include "net/NetServer.h"
#include "serve/ModelHost.h"
#include "support/Socket.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <iostream>
#include <memory>
#include <mutex>
#include <poll.h>
#include <set>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

using namespace nv;

namespace nvbench {

namespace {

constexpr int Connections = 4;       ///< Closed-loop client connections.
constexpr size_t FramePrograms = 16; ///< Programs per closed-loop frame.
constexpr double WarmupSeconds = 2.0;
constexpr int SetupTrials = 21;
constexpr size_t HotPrograms = 64;
constexpr size_t ColdPrograms = 40000;
constexpr uint64_t SuiteEvery = 100; ///< serve_cold: 1 suite program per 100.
constexpr size_t ReplayPrograms = 2000;

// serve_open.
/// Frames/s. The top rate leaves the daemon headroom; a stall of the
/// machine can still shed a few frames, which runOpenLoop re-sends.
constexpr double OpenRates[3] = {500.0, 1000.0, 2000.0};
/// Share of the run each rate gets. The last step is the longest: its
/// latency is the one reported.
constexpr double OpenStepShare[3] = {0.25, 0.25, 0.5};
constexpr size_t OpenFramePrograms = 4;
constexpr size_t OpenHotSet = 256;
constexpr double OpenHotShare = 0.75;
constexpr double OpenZipfExponent = 1.0;
constexpr double SloMs = 5.0;
constexpr double MaxGenLagP99Ms = 1.0;

/// The serving fixture: the trained model every serving workload loads,
/// built from fixed seeds so that --seed moves only the generated traffic.
/// Model A is 4000 PPO steps over 100 generated programs (seed 42); model
/// B continues A for 2000 more steps (same architecture, other weights).
struct Fixture {
  std::string PathA, PathB;
  double Seconds = 0.0; ///< Wall time to train and save both.
};

/// The programs the plan-quality metric is taken over: the Fig-7
/// evaluation benchmarks, PolyBench and MiBench.
std::vector<NamedProgram> suitePrograms() {
  std::vector<NamedProgram> All = evaluationBenchmarks();
  for (auto Suite : {polyBenchSuite, miBenchSuite})
    for (NamedProgram &P : Suite())
      All.push_back(std::move(P));
  return All;
}

double share(uint64_t Part, uint64_t Whole) {
  return Whole ? static_cast<double>(Part) / static_cast<double>(Whole) : 0.0;
}

/// Median latency of traced frames over that of untraced frames of the
/// same run, minus 1 (both sorted); 0 when either side is empty.
double tracingOverhead(const std::vector<double> &Traced,
                       const std::vector<double> &Untraced) {
  if (Traced.empty() || Untraced.empty())
    return 0.0;
  return percentile(Traced, 0.5) / percentile(Untraced, 0.5) - 1.0;
}

/// Thread-safe sink for correctness findings raised on client threads.
class Findings {
public:
  void add(const std::string &Message) {
    std::lock_guard<std::mutex> Lock(Mutex);
    Messages.push_back(Message);
  }
  void drainInto(Report &R) {
    std::lock_guard<std::mutex> Lock(Mutex);
    for (const std::string &M : Messages)
      R.error(M);
    Messages.clear();
  }

private:
  std::mutex Mutex;
  std::vector<std::string> Messages;
};

/// The first answer seen for each (program, generation), against which
/// every later answer must compare byte-identical.
class AnswerBook {
public:
  struct Answer {
    uint64_t Generation = 0;
    std::string Annotated;
    std::vector<VectorPlan> Plans;
  };

  explicit AnswerBook(size_t Programs)
      : Slots(std::make_unique<Slot[]>(Programs)), Size(Programs) {}

  /// Records \p R as program \p Program's answer under \p Generation, or
  /// compares it with the one already recorded. False on a mismatch.
  bool check(size_t Program, uint64_t Generation, const net::WireResult &R) {
    Slot &S = Slots[Program];
    std::lock_guard<std::mutex> Lock(S.Mutex);
    for (const Answer &A : S.Answers)
      if (A.Generation == Generation)
        return A.Annotated == R.Annotated && A.Plans.size() == R.Plans.size() &&
               std::equal(A.Plans.begin(), A.Plans.end(), R.Plans.begin());
    S.Answers.push_back({Generation, R.Annotated, R.Plans});
    return true;
  }

  /// Answers of \p Program (read after the client threads have joined).
  const std::vector<Answer> &answers(size_t Program) const {
    return Slots[Program].Answers;
  }
  size_t size() const { return Size; }

private:
  struct Slot {
    std::mutex Mutex;
    std::vector<Answer> Answers;
  };
  std::unique_ptr<Slot[]> Slots;
  size_t Size;
};

/// The daemon under test, torn down server-first.
struct Daemon {
  std::unique_ptr<ModelHost> Host;
  std::unique_ptr<AnnotationService> Service;
  std::unique_ptr<NetServer> Server;

  void stop() {
    Server.reset();
    Service.reset();
    Host.reset();
  }
  ~Daemon() { stop(); }
};

/// Set-up as a deployment does it: stand up a ModelHost, load the model
/// file, start the service and the daemon, and wait for the first ping.
bool startDaemon(NeuroVectorizer &NV, const std::string &ModelPath, Daemon &D,
                 std::string &Error) {
  D.Host = std::make_unique<ModelHost>(NV.servingModelConfig());
  if (D.Host->reload(ModelPath, &Error) != LoadStatus::Ok)
    return false;
  D.Service = std::make_unique<AnnotationService>(
      *D.Host, NV.embedder().config().Paths, NV.target(), ServeConfig());
  D.Server = std::make_unique<NetServer>(*D.Service, *D.Host,
                                         NetServerConfig());
  if (!D.Server->start(&Error))
    return false;
  NetClient Client;
  return Client.connect("127.0.0.1", D.Server->port(), &Error) &&
         Client.ping(&Error);
}

FileDescriptor connectTo(uint16_t Port, std::string &Error) {
  FileDescriptor Fd = connectTcp("127.0.0.1", Port, &Error, 5000);
  if (Fd.valid())
    setIoTimeouts(Fd.fd(), 30000);
  return Fd;
}

bool readResponse(int Fd, net::ResponseHeader &Header,
                  std::vector<char> &Body) {
  char Raw[net::ResponseHeaderSize];
  if (!readFull(Fd, Raw, sizeof(Raw)) ||
      !net::parseResponseHeader(Raw, sizeof(Raw), Header))
    return false;
  Body.resize(Header.BodyLen);
  return Header.BodyLen == 0 || readFull(Fd, Body.data(), Body.size());
}

/// The daemon's own serve.* histograms (the registry statsz exports),
/// differenced across a measured window.
class DaemonHistograms {
public:
  static constexpr const char *Names[] = {
      "serve.batch_us",    "serve.parse_us",   "serve.loop_extract_us",
      "serve.contexts_us", "serve.embed_us",   "serve.predict_us",
      "serve.render_us",   "serve.pool.queue_wait_us"};

  struct Delta {
    uint64_t Count = 0;
    double P50 = 0.0, P99 = 0.0;
  };

  void start() {
    Before.clear();
    for (const char *N : Names)
      Before.push_back(Telemetry::metrics().histogram(N).snapshot());
  }

  /// Per-histogram deltas since start(), in Names order.
  std::vector<Delta> finish() const {
    std::vector<Delta> Out;
    for (size_t I = 0; I < Before.size(); ++I) {
      const Histogram After =
          Telemetry::metrics().histogram(Names[I]).snapshot();
      Histogram D;
      for (size_t B = 0; B < Histogram::NumBuckets; ++B)
        if (After.bucketCount(B) > Before[I].bucketCount(B))
          D.addBucketCount(B, After.bucketCount(B) - Before[I].bucketCount(B));
      D.addAggregates(After.count() - Before[I].count(),
                      After.sum() - Before[I].sum(), 0, After.max());
      Out.push_back({D.count(), static_cast<double>(D.percentile(0.5)),
                     static_cast<double>(D.percentile(0.99))});
    }
    return Out;
  }

private:
  std::vector<Histogram> Before;
};

/// What every phase of a serving workload shares.
struct ServeState {
  const Options &Opts;
  Tracer &T;
  Findings Errors;
  std::vector<NamedProgram> Table; ///< Every program the workload sends.
  size_t SuiteBegin;               ///< Table[SuiteBegin..] = suitePrograms().
  AnswerBook Book;

  ServeState(const Options &Opts, Tracer &T, std::vector<NamedProgram> Programs,
             size_t SuiteBegin)
      : Opts(Opts), T(T), Table(std::move(Programs)), SuiteBegin(SuiteBegin),
        Book(Table.size()) {}

  /// The per-result check made while the clock runs. \p Expected is the
  /// name the request carried.
  bool checkResult(const net::WireResult &Res, const std::string &Expected,
                   size_t Program, uint64_t Generation) {
    const std::string &Name = Table[Program].Name;
    if (!Res.Ok) {
      Errors.add(Name + ": not ok: " + Res.Error);
      return false;
    }
    if (Res.Degraded) {
      Errors.add(Name + ": degraded answer");
      return false;
    }
    if (Res.Name != Expected || Res.Plans.empty()) {
      Errors.add(Name + ": mismatched or empty result");
      return false;
    }
    if (!Book.check(Program, Generation, Res)) {
      Errors.add(Name + ": differs from an earlier answer of generation " +
                 std::to_string(Generation));
      return false;
    }
    return true;
  }

  /// One blocking frame of Table[Programs], answers checked. Returns the
  /// answering generation, or 0 on failure.
  uint64_t exchange(int Fd, const std::vector<size_t> &Programs) {
    net::AnnotateRequestBody Req;
    for (size_t P : Programs)
      Req.Programs.push_back(
          {Table[P].Name, Table[P].Source, false, PredictMethod::RL});
    const std::vector<char> Frame = net::encodeAnnotateRequest(Req);
    net::ResponseHeader Header;
    std::vector<char> Body;
    net::AnnotateResponseBody Res;
    if (!writeFull(Fd, Frame.data(), Frame.size()) ||
        !readResponse(Fd, Header, Body) ||
        Header.Status != net::WireStatus::Ok ||
        !net::decodeAnnotateResponse(Body.data(), Body.size(), Res) ||
        Res.Results.size() != Programs.size()) {
      Errors.add("a blocking frame failed");
      return 0;
    }
    for (size_t K = 0; K < Programs.size(); ++K)
      if (!checkResult(Res.Results[K], Table[Programs[K]].Name, Programs[K],
                       Res.Generation))
        return 0;
    return Res.Generation;
  }
};

//===----------------------------------------------------------------------===//
// Post-run checks and the plan-quality metric
//===----------------------------------------------------------------------===//

/// Pragmas parsed back from an annotated program, one per site.
bool pragmasOf(const std::string &Source, std::vector<VectorPlan> &Out) {
  std::optional<Program> P = parseSource(Source);
  if (!P)
    return false;
  Out.clear();
  for (const LoopSite &Site : extractLoops(*P, false)) {
    if (!Site.Inner->Pragma)
      return false;
    Out.push_back({Site.Inner->Pragma->VF, Site.Inner->Pragma->IF});
  }
  return true;
}

/// Re-parses every distinct answer and checks its plans against the
/// bench's own legality analysis of the original source, on 4 threads.
/// Returns the number of answers checked.
size_t deepCheck(ServeState &S, const TargetInfo &TI) {
  std::atomic<size_t> Next{0}, Checked{0};
  auto Work = [&] {
    for (size_t I = Next++; I < S.Book.size(); I = Next++) {
      const std::vector<AnswerBook::Answer> &Answers = S.Book.answers(I);
      if (Answers.empty())
        continue;
      const NamedProgram &Prog = S.Table[I];
      std::optional<Program> P = parseSource(Prog.Source);
      if (!P) {
        S.Errors.add(Prog.Name + ": source does not parse");
        continue;
      }
      clearAllPragmas(*P);
      std::vector<LoopSite> Sites = extractLoops(*P, false);
      std::vector<LegalitySummary> Legal;
      for (const LoopSummary &L : lowerAllLoops(*P, Sites, TI.MaxVF))
        Legal.push_back(analyzeLegality(L, TI));
      for (const AnswerBook::Answer &A : Answers) {
        ++Checked;
        std::vector<VectorPlan> Pragmas;
        if (!pragmasOf(A.Annotated, Pragmas)) {
          S.Errors.add(Prog.Name + ": annotated source does not re-parse "
                                   "with a pragma on every site");
          continue;
        }
        if (Pragmas.size() != A.Plans.size() ||
            A.Plans.size() != Legal.size() ||
            !std::equal(Pragmas.begin(), Pragmas.end(), A.Plans.begin())) {
          S.Errors.add(Prog.Name + ": pragmas differ from the returned plans");
          continue;
        }
        for (size_t K = 0; K < Legal.size(); ++K)
          if (!Legal[K].isLegal(A.Plans[K], TI))
            S.Errors.add(Prog.Name + ": plan VF=" +
                         std::to_string(A.Plans[K].VF) + " IF=" +
                         std::to_string(A.Plans[K].IF) +
                         " is illegal under the bench's mask");
      }
    }
  };
  std::vector<std::thread> Threads;
  for (int I = 0; I < 4; ++I)
    Threads.emplace_back(Work);
  for (std::thread &Th : Threads)
    Th.join();
  return Checked.load();
}

/// Asks the daemon for the suite programs in one frame and returns the
/// geomean over the suite of baseline cycles / cycles of the served plans
/// (SimCompiler); 0 on failure.
double suiteSpeedup(ServeState &S, uint16_t Port, const SimCompiler &Sim) {
  std::string Error;
  FileDescriptor Fd = connectTo(Port, Error);
  std::vector<size_t> Suite;
  for (size_t I = S.SuiteBegin; I < S.Table.size(); ++I)
    Suite.push_back(I);
  const uint64_t Gen = Fd.valid() ? S.exchange(Fd.fd(), Suite) : 0;
  if (Gen == 0)
    return 0.0;
  double LogSum = 0.0;
  for (size_t I : Suite)
    for (const AnswerBook::Answer &A : S.Book.answers(I)) {
      if (A.Generation != Gen)
        continue;
      std::optional<Program> Base = parseSource(S.Table[I].Source);
      std::optional<Program> Served = parseSource(A.Annotated);
      if (!Base || !Served)
        return 0.0;
      LogSum += std::log(Sim.compileBaseline(*Base).ExecutionCycles /
                         Sim.compileAndRun(*Served).ExecutionCycles);
    }
  return std::exp(LogSum / static_cast<double>(Suite.size()));
}

//===----------------------------------------------------------------------===//
// Closed loop: serve_hot, serve_cold
//===----------------------------------------------------------------------===//

struct ClosedLoopResult {
  uint64_t StartNs = 0; ///< Start of the measured window.
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  uint64_t Frames = 0;
  uint64_t CachedSites = 0, Sites = 0;
  uint64_t RequestBytes = 0;
  std::vector<Completion> Done; ///< Every frame finished in the window.
  std::vector<double> LatencyMs;       ///< Untraced frames, sorted.
  std::vector<double> TracedLatencyMs; ///< Traced frames, sorted.
};

/// 4 connections, one thread each, each sending a 16-program frame as
/// soon as its previous answer arrived. \p ProgramAt maps a global slot
/// number to a program of S.Table.
ClosedLoopResult
runClosedLoop(ServeState &S, uint16_t Port,
              const std::function<size_t(uint64_t)> &ProgramAt) {
  std::atomic<bool> Stop{false}, Recording{false};
  std::atomic<uint64_t> NextSlot{0};
  std::vector<ClosedLoopResult> PerThread(Connections);
  std::vector<std::thread> Threads;
  const bool Traced = S.Opts.traced();

  for (int Id = 0; Id < Connections; ++Id)
    Threads.emplace_back([&, Id] {
      ClosedLoopResult &Mine = PerThread[Id];
      std::string Error;
      FileDescriptor Fd = connectTo(Port, Error);
      if (!Fd.valid()) {
        S.Errors.add("connect failed: " + Error);
        return;
      }
      std::vector<size_t> Programs(FramePrograms);
      std::vector<char> Body;
      for (uint64_t FrameNo = 0; !Stop.load(std::memory_order_relaxed);
           ++FrameNo) {
        // In a traced run every other frame is traced, so the tracing
        // overhead is measured against untraced frames of the same run.
        Tracer *TP = Traced && FrameNo % 2 ? &S.T : nullptr;
        const uint64_t Slot = NextSlot.fetch_add(FramePrograms);
        net::AnnotateRequestBody Req;
        for (size_t K = 0; K < FramePrograms; ++K) {
          Programs[K] = ProgramAt(Slot + K);
          const NamedProgram &P = S.Table[Programs[K]];
          Req.Programs.push_back({P.Name, P.Source, false, PredictMethod::RL});
        }
        const uint64_t FrameId = TP ? S.T.newId() : 0;
        const uint64_t Start = nowNs();
        std::vector<char> Frame;
        {
          SpanScope Sp(TP, "client.encode", Slot, FrameId);
          Frame = net::encodeAnnotateRequest(Req);
        }
        bool Sent;
        {
          SpanScope Sp(TP, "client.send", Slot, FrameId);
          Sent = writeFull(Fd.fd(), Frame.data(), Frame.size());
        }
        net::ResponseHeader Header;
        bool Received;
        {
          SpanScope Sp(TP, "client.wait", Slot, FrameId);
          Received = Sent && readResponse(Fd.fd(), Header, Body);
        }
        net::AnnotateResponseBody Res;
        bool Decoded;
        {
          SpanScope Sp(TP, "client.decode", Slot, FrameId);
          Decoded = Received && Header.Status == net::WireStatus::Ok &&
                    net::decodeAnnotateResponse(Body.data(), Body.size(),
                                                Res) &&
                    Res.Results.size() == FramePrograms;
        }
        const uint64_t End = nowNs();
        if (TP)
          S.T.record("frame", Start, End, Slot, 0, FrameId);
        if (!Decoded) {
          // The stream position is unknown after a failure: stop here.
          S.Errors.add(std::string("frame failed: ") +
                       (Received ? net::statusName(Header.Status)
                                 : "transport error"));
          return;
        }
        const bool InWindow = Recording.load(std::memory_order_relaxed);
        uint64_t Ok = 0;
        {
          SpanScope Sp(TP, "client.check", Slot);
          for (size_t K = 0; K < FramePrograms; ++K)
            Ok += S.checkResult(Res.Results[K], S.Table[Programs[K]].Name,
                                Programs[K], Res.Generation);
        }
        if (!InWindow)
          continue;
        for (const net::WireResult &Result : Res.Results) {
          Mine.CachedSites += Result.CachedSites;
          Mine.Sites += Result.Plans.size();
        }
        const double Ms = static_cast<double>(End - Start) / 1e6;
        ++Mine.Frames;
        Mine.Attempted += FramePrograms;
        Mine.Failed += FramePrograms - Ok;
        Mine.RequestBytes += Frame.size();
        Mine.Done.push_back({End, Ms, Ok});
        (TP ? Mine.TracedLatencyMs : Mine.LatencyMs).push_back(Ms);
      }
    });

  std::this_thread::sleep_for(std::chrono::duration<double>(WarmupSeconds));
  ClosedLoopResult Total;
  Total.StartNs = nowNs();
  Recording.store(true);
  std::this_thread::sleep_for(std::chrono::duration<double>(S.Opts.Seconds));
  Recording.store(false);
  Stop.store(true);
  for (std::thread &Th : Threads)
    Th.join();
  for (const ClosedLoopResult &P : PerThread) {
    Total.Attempted += P.Attempted;
    Total.Failed += P.Failed;
    Total.Frames += P.Frames;
    Total.CachedSites += P.CachedSites;
    Total.Sites += P.Sites;
    Total.RequestBytes += P.RequestBytes;
    Total.Done.insert(Total.Done.end(), P.Done.begin(), P.Done.end());
    Total.LatencyMs.insert(Total.LatencyMs.end(), P.LatencyMs.begin(),
                           P.LatencyMs.end());
    Total.TracedLatencyMs.insert(Total.TracedLatencyMs.end(),
                                 P.TracedLatencyMs.begin(),
                                 P.TracedLatencyMs.end());
  }
  std::sort(Total.LatencyMs.begin(), Total.LatencyMs.end());
  std::sort(Total.TracedLatencyMs.begin(), Total.TracedLatencyMs.end());
  return Total;
}

//===----------------------------------------------------------------------===//
// Open loop: serve_open
//===----------------------------------------------------------------------===//

struct OpenFrame {
  uint64_t DueNs = 0; ///< Offset from the schedule start.
  int Step = 0;
  size_t Programs[OpenFramePrograms] = {};
};

struct OpenSchedule {
  std::vector<OpenFrame> Frames;
  size_t FreshPrograms = 0;
};

/// Offset (seconds) at which step \p Step of a \p Seconds-long open-loop
/// run begins; step 3 is the end of the run.
double openStepStart(int Step, double Seconds) {
  double T = 0.0;
  for (int I = 0; I < Step; ++I)
    T += OpenStepShare[I] * Seconds;
  return T;
}

/// Seeded Poisson arrivals at each step's rate; each frame draws 75% of
/// its programs from a 256-program hot set with a Zipf skew and 25% fresh
/// (never repeated) programs, numbered from OpenHotSet upward.
OpenSchedule makeOpenSchedule(uint64_t Seed, double Seconds) {
  RNG Rng(Seed * 0x9E3779B97F4A7C15ull + 17);
  std::vector<double> Cdf(OpenHotSet);
  double Sum = 0.0;
  for (size_t I = 0; I < OpenHotSet; ++I)
    Cdf[I] = Sum += std::pow(static_cast<double>(I + 1), -OpenZipfExponent);
  OpenSchedule S;
  double T = 0.0;
  for (int Step = 0; Step < 3; ++Step) {
    const double End = openStepStart(Step + 1, Seconds);
    for (;;) {
      T += -std::log(1.0 - Rng.nextDouble()) / OpenRates[Step];
      if (T >= End)
        break;
      OpenFrame F;
      F.DueNs = static_cast<uint64_t>(T * 1e9);
      F.Step = Step;
      for (size_t &P : F.Programs)
        P = Rng.nextDouble() < OpenHotShare
                ? static_cast<size_t>(
                      std::lower_bound(Cdf.begin(), Cdf.end(),
                                       Rng.nextDouble() * Sum) -
                      Cdf.begin())
                : OpenHotSet + S.FreshPrograms++;
      S.Frames.push_back(F);
    }
    T = End;
  }
  return S;
}

/// Per-frame outcome. The sender writes the Send* stamps, the receiver
/// reads them (atomics); everything else is receiver-owned until join.
struct OpenOutcome {
  std::atomic<uint64_t> SendStartNs{0};
  std::atomic<uint64_t> SendEndNs{0};
  uint64_t ArrivedNs = 0;
  uint64_t DoneNs = 0;
  uint64_t Generation = 0;
  bool Answered = false;
  bool Ok = false;
};

struct OpenLoopResult {
  uint64_t Programs = 0, Attempted = 0, Failed = 0;
  uint64_t WithinSlo = 0;
  uint64_t CachedSites = 0, Sites = 0;
  WindowedStats Top;  ///< Latency from due, 1-s windows of the top step.
  std::vector<double> LatencyMs;       ///< Untraced, top step, sorted.
  std::vector<double> TracedLatencyMs; ///< Traced, top step, sorted.
  std::vector<double> ReloadLatencyMs; ///< Due while a reload ran, sorted.
  std::vector<double> LagMs;           ///< Send start - due, every frame.
  double ReloadMs[2] = {0.0, 0.0};
  uint64_t Gen[3] = {0, 0, 0}; ///< A, then B, then A again.
  uint64_t ShedFrames = 0;     ///< Answered OVERLOADED.
  uint64_t RetriedFrames = 0;  ///< Re-sent after the schedule.
};

/// One sender and one receiver thread share 2 pipelined connections; the
/// main thread hot-reloads model B at 1/3 and model A at 2/3 of the
/// middle step over a third connection. (A reload's cache-miss storm at
/// the top rate can push the executor queue past the admission
/// watermark; the top step is the steady-state latency measurement.)
OpenLoopResult runOpenLoop(ServeState &S, uint16_t Port, uint64_t Gen0,
                           const OpenSchedule &Sched, const Fixture &F) {
  OpenLoopResult Out;
  Out.Gen[0] = Gen0;
  std::string Error;
  FileDescriptor Conn[2] = {connectTo(Port, Error), connectTo(Port, Error)};
  NetClient Control;
  if (!Conn[0].valid() || !Conn[1].valid() ||
      !Control.connect("127.0.0.1", Port, &Error)) {
    S.Errors.add("serve_open: connect failed: " + Error);
    return Out;
  }
  const size_t N = Sched.Frames.size();
  std::vector<OpenOutcome> Outcomes(N);
  const bool Traced = S.Opts.traced();
  // Frame span ids are reserved up front: the sender's encode/send spans
  // name a parent the receiver records when the answer arrives.
  const uint64_t IdBase = Traced ? S.T.reserveIds(N) : 0;
  auto tracerFor = [&](size_t I) { return Traced && I % 2 ? &S.T : nullptr; };
  auto nameOf = [](size_t Frame, size_t K) {
    return "f" + std::to_string(Frame) + "." + std::to_string(K);
  };
  auto requestOf = [&](size_t I) {
    net::AnnotateRequestBody Req;
    for (size_t K = 0; K < OpenFramePrograms; ++K)
      Req.Programs.push_back({nameOf(I, K),
                              S.Table[Sched.Frames[I].Programs[K]].Source,
                              false, PredictMethod::RL});
    return Req;
  };
  const uint64_t T0 = nowNs() + 20'000'000;
  // Records an Ok response (the receiver's, or a retry's after the join).
  auto accept = [&](const net::AnnotateResponseBody &Res, uint64_t Arrived,
                    uint64_t DecodeEnd) {
    const size_t I =
        std::strtoull(Res.Results[0].Name.c_str() + 1, nullptr, 10);
    if (I >= N || Outcomes[I].Answered) {
      S.Errors.add("serve_open: unmatched response " + Res.Results[0].Name);
      return;
    }
    OpenOutcome &O = Outcomes[I];
    O.Answered = true;
    O.ArrivedNs = Arrived;
    O.DoneNs = DecodeEnd;
    O.Generation = Res.Generation;
    if (Tracer *TP = tracerFor(I)) {
      const uint64_t SentAt =
          std::max(O.SendEndNs.load(), O.SendStartNs.load());
      TP->record("client.wait", std::min(SentAt, Arrived), Arrived, I,
                 IdBase + I);
      TP->record("client.decode", Arrived, DecodeEnd, I, IdBase + I);
      TP->record("frame", T0 + Sched.Frames[I].DueNs, DecodeEnd, I, 0,
                 IdBase + I);
    }
    O.Ok = true;
    for (size_t K = 0; K < OpenFramePrograms; ++K) {
      O.Ok &= S.checkResult(Res.Results[K], nameOf(I, K),
                            Sched.Frames[I].Programs[K], O.Generation);
      Out.CachedSites += Res.Results[K].CachedSites;
      Out.Sites += Res.Results[K].Plans.size();
    }
  };

  std::thread Sender([&] {
    for (size_t I = 0; I < N; ++I) {
      const OpenFrame &Fr = Sched.Frames[I];
      const uint64_t Due = T0 + Fr.DueNs;
      for (uint64_t Now = nowNs(); Now + 200'000 < Due; Now = nowNs())
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(Due - Now - 200'000));
      while (nowNs() < Due) {
      }
      Tracer *TP = tracerFor(I);
      Outcomes[I].SendStartNs.store(nowNs());
      std::vector<char> Frame;
      {
        SpanScope Sp(TP, "client.encode", I, IdBase + I);
        Frame = net::encodeAnnotateRequest(requestOf(I));
      }
      bool Sent;
      {
        SpanScope Sp(TP, "client.send", I, IdBase + I);
        Sent = writeFull(Conn[I % 2].fd(), Frame.data(), Frame.size());
      }
      Outcomes[I].SendEndNs.store(nowNs());
      if (!Sent) {
        S.Errors.add("serve_open: send failed");
        return;
      }
    }
  });

  std::thread Receiver([&] {
    std::vector<char> Buf[2];
    size_t Answered = 0;
    const uint64_t Deadline =
        T0 + static_cast<uint64_t>((S.Opts.Seconds + 10.0) * 1e9);
    pollfd Fds[2] = {{Conn[0].fd(), POLLIN, 0}, {Conn[1].fd(), POLLIN, 0}};
    while (Answered < N && nowNs() < Deadline) {
      if (::poll(Fds, 2, 100) <= 0)
        continue;
      for (int C = 0; C < 2; ++C) {
        if (!(Fds[C].revents & (POLLIN | POLLHUP | POLLERR)))
          continue;
        char Chunk[65536];
        const ssize_t Got = ::recv(Conn[C].fd(), Chunk, sizeof(Chunk), 0);
        if (Got <= 0) {
          S.Errors.add("serve_open: connection lost");
          return;
        }
        Buf[C].insert(Buf[C].end(), Chunk, Chunk + Got);
        size_t Pos = 0;
        net::ResponseHeader Header;
        while (Buf[C].size() - Pos >= net::ResponseHeaderSize &&
               net::parseResponseHeader(Buf[C].data() + Pos,
                                        net::ResponseHeaderSize, Header) &&
               Buf[C].size() - Pos >=
                   net::ResponseHeaderSize + Header.BodyLen) {
          const uint64_t Arrived = nowNs();
          const char *Body = Buf[C].data() + Pos + net::ResponseHeaderSize;
          Pos += net::ResponseHeaderSize + Header.BodyLen;
          ++Answered;
          if (Header.Status == net::WireStatus::Overloaded) {
            ++Out.ShedFrames; // Retried after the schedule, below.
            continue;
          }
          net::AnnotateResponseBody Res;
          if (Header.Status != net::WireStatus::Ok ||
              !net::decodeAnnotateResponse(Body, Header.BodyLen, Res) ||
              Res.Results.size() != OpenFramePrograms) {
            S.Errors.add(std::string("serve_open: frame answered ") +
                         net::statusName(Header.Status));
            continue;
          }
          accept(Res, Arrived, nowNs());
        }
        Buf[C].erase(Buf[C].begin(), Buf[C].begin() + Pos);
      }
    }
  });

  // The reloads, from this thread: B at 1/3 of the middle step, A at 2/3.
  uint64_t SentNs[2] = {0, 0}, DoneNs[2] = {0, 0};
  const double ReloadStep = openStepStart(1, S.Opts.Seconds);
  const double ReloadSpan = openStepStart(2, S.Opts.Seconds) - ReloadStep;
  for (int K = 0; K < 2; ++K) {
    const double AtS = ReloadStep + (K + 1) / 3.0 * ReloadSpan;
    const uint64_t At = T0 + static_cast<uint64_t>(AtS * 1e9);
    while (nowNs() < At)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    net::WireStatus Status = net::WireStatus::Error;
    SentNs[K] = nowNs();
    if (!Control.reload(K == 0 ? F.PathB : F.PathA, Status, &Out.Gen[K + 1],
                        &Error) ||
        Status != net::WireStatus::Ok)
      S.Errors.add("serve_open: hot reload " + std::to_string(K + 1) +
                   " failed: " + Control.statusMessage() + " " + Error);
    DoneNs[K] = nowNs();
    Out.ReloadMs[K] = static_cast<double>(DoneNs[K] - SentNs[K]) / 1e6;
  }
  Sender.join();
  Receiver.join();

  // A shed frame's OVERLOADED answer names no request, so the shed frames
  // are the ones left unanswered. A client backs off and retries them;
  // here the retry comes after the schedule, so each one is late (an SLO
  // miss), and fails only if its retry fails too.
  for (size_t I = 0; I < N; ++I) {
    if (Outcomes[I].Answered)
      continue;
    ++Out.RetriedFrames;
    Outcomes[I].SendStartNs.store(nowNs());
    const std::vector<char> Frame = net::encodeAnnotateRequest(requestOf(I));
    net::ResponseHeader Header;
    std::vector<char> Body;
    net::AnnotateResponseBody Res;
    if (writeFull(Conn[0].fd(), Frame.data(), Frame.size()) &&
        readResponse(Conn[0].fd(), Header, Body) &&
        Header.Status == net::WireStatus::Ok &&
        net::decodeAnnotateResponse(Body.data(), Body.size(), Res) &&
        Res.Results.size() == OpenFramePrograms) {
      const uint64_t Arrived = nowNs();
      accept(Res, Arrived, Arrived);
    }
  }
  if (Out.RetriedFrames > Out.ShedFrames)
    S.Errors.add("serve_open: " +
                 std::to_string(Out.RetriedFrames - Out.ShedFrames) +
                 " frames got no answer at all");

  std::vector<Completion> Top;
  for (size_t I = 0; I < N; ++I) {
    const OpenOutcome &O = Outcomes[I];
    const OpenFrame &Fr = Sched.Frames[I];
    const uint64_t Due = T0 + Fr.DueNs;
    const uint64_t Sent = O.SendStartNs.load();
    Out.Attempted += OpenFramePrograms;
    Out.LagMs.push_back(static_cast<double>(Sent > Due ? Sent - Due : 0) /
                        1e6);
    if (!O.Answered || !O.Ok) {
      Out.Failed += OpenFramePrograms;
      continue;
    }
    // The answering generation must have been live at some point while
    // the request was outstanding: A until reload 1 returned, B from when
    // reload 1 was sent until reload 2 returned, A again after that.
    const uint64_t G = O.Generation;
    const bool Allowed =
        (G == Out.Gen[0] && Sent <= DoneNs[0]) ||
        (G == Out.Gen[1] && O.ArrivedNs >= SentNs[0] && Sent <= DoneNs[1]) ||
        (G == Out.Gen[2] && O.ArrivedNs >= SentNs[1]);
    if (!Allowed) {
      S.Errors.add("serve_open: frame " + std::to_string(I) +
                   " answered by generation " + std::to_string(G) +
                   " outside the reload schedule");
      Out.Failed += OpenFramePrograms;
      continue;
    }
    Out.Programs += OpenFramePrograms;
    const double Ms = static_cast<double>(O.DoneNs - Due) / 1e6;
    if (Ms <= SloMs)
      Out.WithinSlo += OpenFramePrograms;
    for (int K = 0; K < 2; ++K)
      if (Due >= SentNs[K] && Due <= DoneNs[K] + 100'000'000)
        Out.ReloadLatencyMs.push_back(Ms);
    if (Fr.Step != 2)
      continue;
    (tracerFor(I) ? Out.TracedLatencyMs : Out.LatencyMs).push_back(Ms);
    Top.push_back({Due, Ms, OpenFramePrograms});
  }
  const double TopStart = openStepStart(2, S.Opts.Seconds);
  Out.Top = windowedMedians(Top, T0 + static_cast<uint64_t>(TopStart * 1e9),
                            S.Opts.Seconds - TopStart);
  std::sort(Out.LatencyMs.begin(), Out.LatencyMs.end());
  std::sort(Out.TracedLatencyMs.begin(), Out.TracedLatencyMs.end());
  std::sort(Out.ReloadLatencyMs.begin(), Out.ReloadLatencyMs.end());
  std::sort(Out.LagMs.begin(), Out.LagMs.end());
  return Out;
}

/// Trains the serving fixture and saves models A and B under \p Stem.
/// Leaves \p NV holding model A.
bool buildFixture(NeuroVectorizer &NV, const std::string &Stem, Fixture &F,
                  std::string &Error) {
  const Clock::time_point Start = Clock::now();
  LoopGenerator Gen(42);
  for (const GeneratedLoop &L : Gen.generateMany(100))
    NV.addTrainingProgram(L.Name, L.Source);
  NV.train(4000);
  F.PathA = Stem + "_a.nvm";
  F.PathB = Stem + "_b.nvm";
  if (!NV.save(F.PathA, &Error))
    return false;
  NV.train(2000);
  if (!NV.save(F.PathB, &Error) || !NV.load(F.PathA, &Error))
    return false;
  F.Seconds = secondsSince(Start);
  return true;
}

NeuroVectorizerConfig fixtureConfig() {
  NeuroVectorizerConfig Config;
  Config.PPO.BatchSize = 256;
  Config.PPO.MiniBatchSize = 64;
  Config.PPO.LearningRate = 2e-3;
  Config.PPO.EntropyCoef = 0.05;
  Config.Seed = 42;
  return Config;
}

} // namespace

//===----------------------------------------------------------------------===//
// The serving workloads
//===----------------------------------------------------------------------===//

Report runServe(const Options &Opts, Tracer &T) {
  Report R;
  const bool Open = Opts.Workload == "serve_open";
  const bool Cold = Opts.Workload == "serve_cold";

  NeuroVectorizer NV(fixtureConfig());
  Fixture F;
  std::string Error;
  const std::string Stem =
      Opts.WorkDir + "/nvbench_" + std::to_string(::getpid());
  struct RemoveFiles {
    const Fixture &F;
    ~RemoveFiles() {
      std::remove(F.PathA.c_str());
      std::remove(F.PathB.c_str());
    }
  } Cleanup{F};
  if (!buildFixture(NV, Stem, F, Error)) {
    R.error("building the fixture: " + Error);
    return R;
  }

  // --- Inputs: generated from --seed, then the fixed suites ----------------
  OpenSchedule Sched;
  if (Open)
    Sched = makeOpenSchedule(Opts.Seed, Opts.Seconds);
  const size_t Generated = Open   ? OpenHotSet + Sched.FreshPrograms
                           : Cold ? ColdPrograms
                                  : HotPrograms;
  std::vector<NamedProgram> Table;
  LoopGenerator Gen(Opts.Seed);
  for (GeneratedLoop &L : Gen.generateMany(static_cast<int>(Generated)))
    Table.push_back({std::move(L.Name), std::move(L.Source)});
  for (NamedProgram &P : suitePrograms())
    Table.push_back(std::move(P));
  ServeState S(Opts, T, std::move(Table), Generated);
  const size_t NumSuite = S.Table.size() - S.SuiteBegin;

  // --- Set-up, timed repeatedly: about half the trials before the workload
  // (the last daemon serves it) and the rest after it, so one burst of
  // interference from other work on the machine cannot carry the median.
  Daemon D;
  std::vector<double> SetupSeconds;
  auto setUp = [&](int Trials) {
    for (int I = 0; I < Trials; ++I) {
      D.stop();
      const Clock::time_point Start = Clock::now();
      if (!startDaemon(NV, F.PathA, D, Error)) {
        R.error("daemon set-up failed: " + Error);
        return false;
      }
      SetupSeconds.push_back(secondsSince(Start));
    }
    return true;
  };
  if (!setUp(SetupTrials - SetupTrials / 2))
    return R;
  const uint16_t Port = D.Server->port();
  std::set<uint64_t> GenerationsOfA = {D.Host->generation()};

  // --- The measured window --------------------------------------------------
  DaemonHistograms Hist;
  double ThroughputPerS = 0.0, CacheHitRatio = 0.0, OverheadRatio = 0.0;
  double RequestBytes = 0.0, SloAttain = 0.0, LagP99 = 0.0, ReloadMs = 0.0;
  double ReloadP99 = 0.0;
  WindowedStats E2E; ///< Latency medians over 1-s windows.
  if (Open) {
    // Warm the plan cache with the hot set, as a long-running daemon's
    // would be.
    FileDescriptor Warm = connectTo(Port, Error);
    for (size_t B = 0; B < OpenHotSet && Warm.valid(); B += FramePrograms) {
      std::vector<size_t> Frame(FramePrograms);
      for (size_t K = 0; K < FramePrograms; ++K)
        Frame[K] = B + K;
      S.exchange(Warm.fd(), Frame);
    }
    Hist.start();
    const OpenLoopResult O =
        runOpenLoop(S, Port, D.Host->generation(), Sched, F);
    GenerationsOfA.insert(O.Gen[2]);
    R.Attempted = O.Attempted;
    R.Failed = O.Failed;
    // The offered load sets the rate; a shortfall means failed requests.
    ThroughputPerS = static_cast<double>(O.Programs) / Opts.Seconds;
    E2E = O.Top;
    ReloadP99 = percentile(O.ReloadLatencyMs, 0.99);
    SloAttain = share(O.WithinSlo, O.Attempted);
    LagP99 = percentile(O.LagMs, 0.99);
    ReloadMs = std::max(O.ReloadMs[0], O.ReloadMs[1]);
    CacheHitRatio = share(O.CachedSites, O.Sites);
    OverheadRatio = tracingOverhead(O.TracedLatencyMs, O.LatencyMs);
  } else {
    const size_t NumGenerated = S.SuiteBegin;
    std::function<size_t(uint64_t)> ProgramAt = [&](uint64_t Slot) {
      return static_cast<size_t>(Slot % NumGenerated);
    };
    if (Cold)
      ProgramAt = [&](uint64_t Slot) {
        if (Slot % SuiteEvery == SuiteEvery - 1)
          return S.SuiteBegin +
                 static_cast<size_t>(Slot / SuiteEvery) % NumSuite;
        return static_cast<size_t>((Slot - Slot / SuiteEvery) % NumGenerated);
      };
    Hist.start();
    const ClosedLoopResult C = runClosedLoop(S, Port, ProgramAt);
    R.Attempted = C.Attempted;
    R.Failed = C.Failed;
    E2E = windowedMedians(C.Done, C.StartNs, Opts.Seconds);
    ThroughputPerS = E2E.ItemsPerS;
    CacheHitRatio = share(C.CachedSites, C.Sites);
    RequestBytes = share(C.RequestBytes, C.Frames);
    OverheadRatio = tracingOverhead(C.TracedLatencyMs, C.LatencyMs);
  }
  const std::vector<DaemonHistograms::Delta> Phases = Hist.finish();
  const uint64_t ShedFrames = D.Server->counters().Shed;

  // --- After the clock: plan quality, then the deep checks ------------------
  const double Speedup = suiteSpeedup(S, Port, NV.env().compiler());
  const size_t Checked = deepCheck(S, NV.target());
  S.Errors.drainInto(R);
  if (R.Attempted == 0)
    R.error("no request completed inside the measured window");
  if (Speedup <= 0.0)
    R.error("the suite request failed");

  std::cout << "info fixture_s " << F.Seconds << " s\n"
            << "info answers_deep_checked " << Checked << " count\n"
            << "info latency_windows " << E2E.Windows << " count\n"
            << "info latency_window_s " << E2E.WindowSeconds << " s\n"
            << "info latency_samples " << E2E.Samples << " count\n"
            << "info cache_hit_ratio " << CacheHitRatio << " share\n"
            << "info shed_frames " << ShedFrames << " count\n"
            << "info error_ratio " << share(R.Failed, R.Attempted)
            << " share\n";
  if (Open) {
    std::cout << "info slo_attain_ratio " << SloAttain << " share\n"
              << "info gen_lag_p99_ms " << LagP99 << " ms\n"
              << "info reload_window_p99_ms " << ReloadP99 << " ms\n"
              << "info run_valid " << (LagP99 <= MaxGenLagP99Ms ? 1 : 0)
              << " flag\n";
    if (LagP99 > MaxGenLagP99Ms)
      std::cerr << "warning: generator p99 lateness " << LagP99
                << " ms exceeds " << MaxGenLagP99Ms
                << " ms: this run's open-loop latencies are not trustworthy\n";
  }

  if (!Opts.traced()) {
    setUp(SetupTrials / 2);
    const TrialStats Setup = trialStats(SetupSeconds);
    std::cout << "info setup_min_s " << Setup.Min << " s\n"
              << "info setup_max_s " << Setup.Max << " s\n";
    R.metric("setup_s", Setup.Median, "s");
    R.metric("throughput_per_s", ThroughputPerS, "1/s");
    R.metric("latency_p50_ms", E2E.P50Ms, "ms");
    R.metric("latency_p99_ms", E2E.P99Ms, "ms");
    R.metric("speedup_geomean", Speedup, "x");
    R.metric("peak_rss_mb", peakRssMb(), "MB");
    return R;
  }

  // --- Traced run: the layer table, the replay, the trace file --------------
  std::vector<LayerRow> Rows;
  for (size_t I = 0; I < Phases.size(); ++I) {
    const std::string Name = DaemonHistograms::Names[I];
    Rows.push_back({Name + ".p50", Phases[I].P50, "us",
                    "daemon histogram delta, n=" +
                        std::to_string(Phases[I].Count)});
    Rows.push_back({Name + ".p99", Phases[I].P99, "us", ""});
  }
  Rows.push_back({"net.wire_overhead_us",
                  E2E.P50Ms * 1000.0 - Phases[0].P50, "us",
                  "frame p50 - serve.batch_us p50"});
  if (RequestBytes > 0.0)
    Rows.push_back({"net.request_bytes", RequestBytes, "B", "per frame"});
  Rows.push_back({"serve.cache_hit_ratio", CacheHitRatio, "share",
                  "cached sites / sites"});
  Rows.push_back({"serve.shed_frames", static_cast<double>(ShedFrames),
                  "count", "answered OVERLOADED"});
  if (Open) {
    Rows.push_back({"serve.reload_ms", ReloadMs, "ms", "slower of 2 reloads"});
    Rows.push_back({"gen.lag_p99_ms", LagP99, "ms", "send start - due"});
    Rows.push_back({"serve.slo_attain_ratio", SloAttain, "share",
                    "answered Ok within 5 ms of due"});
  }
  const double Unexplained = unexplainedShare(T, "frame");

  // Replay the workload's distinct programs (at most 2000, spread over
  // the whole table) through the layers; the daemon's answers from model
  // A must equal the replay's plans.
  std::vector<NamedProgram> Sample;
  std::vector<size_t> SampleIndex;
  const size_t Stride = std::max<size_t>(1, S.Table.size() / ReplayPrograms);
  for (size_t I = 0; I < S.Table.size() && Sample.size() < ReplayPrograms;
       I += Stride) {
    Sample.push_back(S.Table[I]);
    SampleIndex.push_back(I);
  }
  const std::vector<std::vector<VectorPlan>> Reference =
      replayLayers(Sample, NV, T, R, Rows);
  size_t Compared = 0;
  for (size_t K = 0; K < Sample.size(); ++K)
    for (const AnswerBook::Answer &A : S.Book.answers(SampleIndex[K])) {
      if (!GenerationsOfA.count(A.Generation))
        continue;
      ++Compared;
      if (A.Plans.size() != Reference[K].size() ||
          !std::equal(A.Plans.begin(), A.Plans.end(), Reference[K].begin()))
        R.error(S.Table[SampleIndex[K]].Name +
                ": the daemon's plans differ from the layer replay's");
    }
  Rows.push_back({"replay.compared_answers", static_cast<double>(Compared),
                  "count", "daemon answers equal to the replay's plans"});
  R.metric("trace.overhead_ratio", OverheadRatio, "ratio");
  R.metric("trace.unexplained_share", Unexplained, "share");
  Rows.push_back({"trace.overhead_ratio", OverheadRatio, "ratio",
                  "traced / untraced median frame latency - 1"});
  Rows.push_back({"trace.unexplained_share", Unexplained, "share",
                  "of frame time no client span covers"});
  addSpanRows(T, Rows);
  printLayerTable("per-layer (traced run)", Rows);
  if (!T.writeChromeJson(Opts.TracePath))
    R.error("could not write " + Opts.TracePath);
  return R;
}

} // namespace nvbench
