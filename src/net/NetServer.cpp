//===- net/NetServer.cpp - epoll annotation daemon ------------------------===//

#include "net/NetServer.h"

#include "nn/Kernels.h"
#include "serve/AnnotationService.h"
#include "serve/ModelHost.h"
#include "support/FaultInjection.h"
#include "support/Telemetry.h"

#include <cerrno>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace nv;
using net::Verb;
using net::WireStatus;

NetServer::NetServer(AnnotationService &Service, ModelHost &Host,
                     const NetServerConfig &Config)
    : Service(Service), Host(Host), Config(Config) {}

NetServer::~NetServer() { shutdown(); }

bool NetServer::start(std::string *Error) {
  ListenFd = listenTcp(Config.Host, Config.Port, Error, &BoundPort);
  if (!ListenFd)
    return false;
  setNonBlocking(ListenFd.fd());

  EpollFd.reset(::epoll_create1(EPOLL_CLOEXEC));
  WakeFd.reset(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK));
  if (!EpollFd || !WakeFd) {
    if (Error)
      *Error = std::string("epoll/eventfd: ") + std::strerror(errno);
    return false;
  }
  epoll_event Ev{};
  Ev.events = EPOLLIN;
  Ev.data.fd = ListenFd.fd();
  ::epoll_ctl(EpollFd.fd(), EPOLL_CTL_ADD, ListenFd.fd(), &Ev);
  Ev.data.fd = WakeFd.fd();
  ::epoll_ctl(EpollFd.fd(), EPOLL_CTL_ADD, WakeFd.fd(), &Ev);

  Exec = std::make_unique<ThreadPool>(Config.Executors);
  Running.store(true);
  EventThread = std::thread([this] { eventLoop(); });
  return true;
}

void NetServer::requestShutdown() {
  // Async-signal-safe: a relaxed store plus one eventfd write. Everything
  // with teeth happens on the event thread when it observes the flag.
  StopRequested.store(true, std::memory_order_relaxed);
  if (WakeFd.valid()) {
    const uint64_t One = 1;
    [[maybe_unused]] ssize_t N = ::write(WakeFd.fd(), &One, sizeof(One));
  }
}

void NetServer::wait() {
  if (EventThread.joinable())
    EventThread.join();
}

void NetServer::shutdown() {
  requestShutdown();
  wait();
}

NetServerCounters NetServer::counters() const {
  std::lock_guard<std::mutex> Lock(CountersMutex);
  return Counters;
}

void NetServer::wakeEventThread() {
  const uint64_t One = 1;
  [[maybe_unused]] ssize_t N = ::write(WakeFd.fd(), &One, sizeof(One));
}

void NetServer::eventLoop() {
  epoll_event Events[64];
  for (;;) {
    // Park indefinitely in steady state (the eventfd is the doorbell);
    // poll while draining so completion is re-checked even if a wake is
    // coalesced away.
    const int Timeout = Draining ? 10 : -1;
    const int N = ::epoll_wait(EpollFd.fd(), Events, 64, Timeout);
    if (N < 0 && errno != EINTR)
      break;

    for (int I = 0; I < N; ++I) {
      const int Fd = Events[I].data.fd;
      if (Fd == WakeFd.fd()) {
        uint64_t Drained;
        while (::read(WakeFd.fd(), &Drained, sizeof(Drained)) > 0) {
        }
        continue;
      }
      if (ListenFd.valid() && Fd == ListenFd.fd()) {
        acceptNew();
        continue;
      }
      auto It = Conns.find(Fd);
      if (It == Conns.end())
        continue;
      ConnPtr Conn = It->second;
      if (Events[I].events & (EPOLLHUP | EPOLLERR)) {
        closeConnection(Conn);
        continue;
      }
      if ((Events[I].events & EPOLLIN) && !readInput(Conn)) {
        closeConnection(Conn);
        continue;
      }
      if ((Events[I].events & EPOLLOUT) && !flushOut(Conn))
        closeConnection(Conn);
    }

    // Flush connections whose responses were produced off-thread.
    std::vector<ConnPtr> ToFlush;
    {
      std::lock_guard<std::mutex> Lock(DirtyMutex);
      ToFlush.swap(Dirty);
    }
    for (const ConnPtr &Conn : ToFlush)
      if (!Conn->Closed.load() && !flushOut(Conn))
        closeConnection(Conn);

    if (StopRequested.load(std::memory_order_relaxed) && !Draining) {
      // Stop accepting; everything already admitted still completes.
      Draining = true;
      if (ListenFd.valid()) {
        ::epoll_ctl(EpollFd.fd(), EPOLL_CTL_DEL, ListenFd.fd(), nullptr);
        ListenFd.reset();
      }
    }
    if (Draining && InFlightRequests.load() == 0) {
      bool Pending = false;
      {
        std::lock_guard<std::mutex> Lock(DirtyMutex);
        Pending = !Dirty.empty();
      }
      for (const auto &[Fd, Conn] : Conns) {
        std::lock_guard<std::mutex> Lock(Conn->OutMutex);
        if (Conn->Out.size() > Conn->OutStart)
          Pending = true;
      }
      if (!Pending)
        break; // Every admitted request answered and flushed.
    }
  }

  for (auto &[Fd, Conn] : Conns) {
    Conn->Closed.store(true);
    ::close(Conn->Fd);
  }
  Conns.clear();
  if (!Config.FinalSnapshotPath.empty())
    Telemetry::metrics().writeJsonFile(Config.FinalSnapshotPath);
  Running.store(false);
}

void NetServer::acceptNew() {
  for (;;) {
    const int Fd = ::accept4(ListenFd.fd(), nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (Fd < 0)
      return; // EAGAIN (or transient error): nothing more to accept.
    const int One = 1;
    ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
    auto Conn = std::make_shared<Connection>();
    Conn->Fd = Fd;
    Conns[Fd] = Conn;
    epoll_event Ev{};
    Ev.events = EPOLLIN;
    Ev.data.fd = Fd;
    ::epoll_ctl(EpollFd.fd(), EPOLL_CTL_ADD, Fd, &Ev);
    count(&NetServerCounters::Accepted);
  }
}

bool NetServer::readInput(const ConnPtr &Conn) {
  // Chaos hook: a fired socket.read fault drops the connection exactly as
  // a mid-frame peer reset would; the client's retry layer must recover.
  static fault::FaultPoint &ReadFault = fault::point("socket.read");
  if (fault::fired(ReadFault))
    return false;
  char Buf[64 * 1024];
  for (;;) {
    const ssize_t N = ::read(Conn->Fd, Buf, sizeof(Buf));
    if (N > 0) {
      Conn->In.insert(Conn->In.end(), Buf, Buf + N);
      continue;
    }
    if (N == 0)
      return false; // Peer closed.
    if (errno == EAGAIN || errno == EWOULDBLOCK)
      break;
    if (errno == EINTR)
      continue;
    return false;
  }
  return drainFrames(Conn);
}

bool NetServer::drainFrames(const ConnPtr &Conn) {
  for (;;) {
    const size_t Avail = Conn->In.size() - Conn->InStart;
    if (Avail < net::RequestHeaderSize)
      break;
    const char *Data = Conn->In.data() + Conn->InStart;
    net::RequestHeader Header;
    if (!net::parseRequestHeader(Data, Avail, Header))
      return false; // Not speaking our protocol: hang up.
    if (Header.BodyLen > Config.MaxFrameBytes) {
      sendFrame(Conn, net::encodeStringResponse(Header.V,
                                                WireStatus::BadRequest,
                                                "frame too large"));
      return false;
    }
    if (Avail < net::RequestHeaderSize + Header.BodyLen)
      break; // Wait for the rest of the frame.
    handleFrame(Conn, Header.V, Data + net::RequestHeaderSize,
                Header.BodyLen);
    Conn->InStart += net::RequestHeaderSize + Header.BodyLen;
  }
  // Compact once the consumed prefix dominates the buffer.
  if (Conn->InStart == Conn->In.size()) {
    Conn->In.clear();
    Conn->InStart = 0;
  } else if (Conn->InStart > (64u << 10)) {
    Conn->In.erase(Conn->In.begin(),
                   Conn->In.begin() + static_cast<long>(Conn->InStart));
    Conn->InStart = 0;
  }
  return true;
}

void NetServer::handleFrame(const ConnPtr &Conn, Verb V, const char *Body,
                            uint32_t BodyLen) {
  count(&NetServerCounters::Requests);
  switch (V) {
  case Verb::Ping:
    sendFrame(Conn, net::encodeEmptyResponse(Verb::Ping, WireStatus::Ok));
    return;

  case Verb::Statsz:
    // Read-only over coherent snapshots; cheap enough for the event
    // thread, and observability staying responsive under full executor
    // load is the point.
    sendFrame(Conn, net::encodeStringResponse(Verb::Statsz, WireStatus::Ok,
                                              buildStatszJson()));
    return;

  case Verb::Reload: {
    if (Draining) {
      count(&NetServerCounters::Rejected);
      sendFrame(Conn, net::encodeStringResponse(
                          Verb::Reload, WireStatus::ShuttingDown,
                          "server is draining"));
      return;
    }
    std::string Path;
    if (!net::decodeReloadRequest(Body, BodyLen, Path)) {
      sendFrame(Conn,
                net::encodeStringResponse(Verb::Reload,
                                          WireStatus::BadRequest,
                                          "malformed reload body"));
      return;
    }
    // Off the event thread: loading + validating a model is file I/O and
    // deserialization; accepts and statsz stay live throughout.
    InFlightRequests.fetch_add(1);
    Exec->run([this, Conn, Path = std::move(Path)]() mutable {
      runReload(Conn, std::move(Path));
    });
    return;
  }

  case Verb::Annotate: {
    if (Draining) {
      count(&NetServerCounters::Rejected);
      sendFrame(Conn, net::encodeStringResponse(
                          Verb::Annotate, WireStatus::ShuttingDown,
                          "server is draining"));
      return;
    }
    // Admission control: shed *now*, before decoding or queueing, when
    // the executor queue is past its watermark or admitted bytes would
    // blow the in-flight budget. OVERLOADED is a contract with the
    // client: nothing was done, back off and retry.
    const size_t Admitted = InFlightBytes.load();
    if (Exec->queueDepth() >= Config.QueueWatermark ||
        Admitted + BodyLen > Config.MaxInFlightBytes) {
      count(&NetServerCounters::Shed);
      sendFrame(Conn, net::encodeStringResponse(Verb::Annotate,
                                                WireStatus::Overloaded,
                                                "server overloaded"));
      return;
    }
    InFlightBytes.fetch_add(BodyLen);
    InFlightRequests.fetch_add(1);
    std::vector<char> BodyCopy(Body, Body + BodyLen);
    const uint64_t Arrival = nowMicros();
    Exec->run(
        [this, Conn, BodyCopy = std::move(BodyCopy), Arrival]() mutable {
          runAnnotate(Conn, std::move(BodyCopy), Arrival);
        });
    return;
  }
  }
}

void NetServer::runAnnotate(const ConnPtr &Conn, std::vector<char> Body,
                            uint64_t ArrivalMicros) {
  // Chaos hook: `exec.slow=50ms` stalls executor work here, upstream of
  // decode, to exercise queue deadlines and client timeouts.
  static fault::FaultPoint &SlowFault = fault::point("exec.slow");
  (void)fault::fired(SlowFault);
  net::AnnotateRequestBody Req;
  if (!net::decodeAnnotateRequest(Body.data(), Body.size(), Req)) {
    sendFrame(Conn, net::encodeStringResponse(Verb::Annotate,
                                              WireStatus::BadRequest,
                                              "malformed annotate body"));
  } else if (Req.DeadlineMicros != 0 &&
             nowMicros() - ArrivalMicros > Req.DeadlineMicros) {
    // Sat in the queue past its own budget: the client has long timed
    // out, so running the batch now would burn executor time on an
    // answer nobody reads.
    sendFrame(Conn, net::encodeStringResponse(Verb::Annotate,
                                              WireStatus::DeadlineExceeded,
                                              "deadline exceeded in queue"));
  } else {
    std::vector<AnnotationRequest> Batch;
    Batch.reserve(Req.Programs.size());
    for (net::WireProgram &P : Req.Programs) {
      AnnotationRequest R;
      R.Name = std::move(P.Name);
      R.Source = std::move(P.Source);
      if (P.HasMethod)
        R.Method = P.Method;
      Batch.push_back(std::move(R));
    }
    const std::vector<AnnotationResult> Results =
        Service.annotateBatch(Batch);
    // Every result in a batch is answered by exactly one generation (the
    // RCU acquisition in annotateBatch).
    const uint64_t Generation =
        Results.empty() ? Host.generation() : Results.front().Generation;
    sendFrame(Conn, net::encodeAnnotateResponse(Generation, Results));
    count(&NetServerCounters::Annotated);
  }
  InFlightBytes.fetch_sub(Body.size());
  InFlightRequests.fetch_sub(1);
  wakeEventThread(); // Drain check may now pass.
}

void NetServer::runReload(const ConnPtr &Conn, std::string Path) {
  std::string Error;
  const LoadStatus Status = Host.reload(Path, &Error);
  if (Status == LoadStatus::Ok) {
    count(&NetServerCounters::Reloads);
    sendFrame(Conn, net::encodeReloadOkResponse(Host.generation()));
  } else {
    count(&NetServerCounters::ReloadsFailed);
    std::string Message = loadStatusName(Status);
    if (!Error.empty())
      Message += ": " + Error;
    sendFrame(Conn, net::encodeStringResponse(
                        Verb::Reload, WireStatus::ReloadFailed, Message));
  }
  InFlightRequests.fetch_sub(1);
  wakeEventThread();
}

std::string NetServer::buildStatszJson() {
  const ServeSnapshot S = Service.stats().snapshot();
  const NetServerCounters C = counters();

  JsonLine Server;
  Server.field("accepted", C.Accepted)
      .field("requests", C.Requests)
      .field("annotated", C.Annotated)
      .field("shed", C.Shed)
      .field("rejected", C.Rejected)
      .field("reloads", C.Reloads)
      .field("reloads_failed", C.ReloadsFailed)
      .field("draining", Draining)
      .field("in_flight_requests",
             static_cast<uint64_t>(InFlightRequests.load()))
      .field("in_flight_bytes", static_cast<uint64_t>(InFlightBytes.load()));

  std::string Methods = "[";
  bool First = true;
  for (int M = 0; M < NumPredictMethods; ++M) {
    const MethodCountersView &MC = S.PerMethod[M];
    if (MC.Loops == 0)
      continue;
    JsonLine Row;
    Row.field("method", methodName(static_cast<PredictMethod>(M)))
        .field("loops", MC.Loops)
        .field("cache_hits", MC.CacheHits)
        .field("dedup_hits", MC.DedupHits)
        .field("misses", MC.Misses)
        .field("predict_us", MC.PredictMicros);
    if (!First)
      Methods += ",";
    Methods += Row.str();
    First = false;
  }
  Methods += "]";

  JsonLine AccessClasses;
  for (int AC = 0; AC < NumAccessClasses; ++AC)
    AccessClasses.field(accessClassName(static_cast<AccessClass>(AC)),
                        S.AccessClasses[AC]);

  std::string Breakers = "[";
  for (int M = 0; M < NumPredictMethods; ++M) {
    const CircuitBreaker &Breaker =
        Service.breaker(static_cast<PredictMethod>(M));
    JsonLine Row;
    Row.field("method", methodName(static_cast<PredictMethod>(M)))
        .field("state", CircuitBreaker::stateName(Breaker.state()))
        .field("failures", Breaker.failures())
        .field("opens", Breaker.opens());
    if (M != 0)
      Breakers += ",";
    Breakers += Row.str();
  }
  Breakers += "]";

  JsonLine Serve;
  Serve.field("batches", S.BatchesServed)
      .field("programs", S.ProgramsServed)
      .field("rejected", S.ProgramsRejected)
      .field("degraded_requests", S.DegradedRequests)
      .field("predict_failures", S.PredictFailures)
      .field("loops", S.LoopsServed)
      .field("cache_hits", S.CacheHits)
      .field("dedup_hits", S.DedupHits)
      .field("cache_misses", S.CacheMisses)
      .field("forward_passes", S.ForwardPasses)
      .field("kernel_isa", kernelIsaName(kernelIsa()))
      .field("hit_rate", S.hitRate())
      .field("throughput", S.throughput())
      .field("loops_analyzed", S.LoopsAnalyzed)
      .field("plans_clamped", S.PlansClamped)
      .field("legality_us", S.LegalityMicros)
      .raw("access_classes", AccessClasses.str())
      .raw("methods", Methods)
      .raw("breakers", Breakers);

  JsonLine Root;
  Root.field("generation", Host.generation())
      .raw("server", Server.str())
      .raw("serve", Serve.str())
      .raw("telemetry", Telemetry::snapshotJson());
  // Armed fault points show their hit/fired counts so a chaos run can
  // verify its faults actually exercised the paths under test.
  if (fault::FaultRegistry::instance().armed())
    Root.raw("faults", fault::FaultRegistry::instance().statusJson());
  return Root.str();
}

void NetServer::sendFrame(const ConnPtr &Conn, std::vector<char> Frame) {
  {
    std::lock_guard<std::mutex> Lock(Conn->OutMutex);
    if (Conn->Closed.load())
      return;
    Conn->Out.insert(Conn->Out.end(), Frame.begin(), Frame.end());
  }
  {
    std::lock_guard<std::mutex> Lock(DirtyMutex);
    Dirty.push_back(Conn);
  }
  wakeEventThread();
}

bool NetServer::flushOut(const ConnPtr &Conn) {
  static fault::FaultPoint &WriteFault = fault::point("socket.write");
  std::lock_guard<std::mutex> Lock(Conn->OutMutex);
  while (Conn->Out.size() > Conn->OutStart) {
    if (fault::fired(WriteFault))
      return false; // Injected mid-response connection loss.
    // MSG_NOSIGNAL: a half-closed peer must surface as EPIPE, not tear
    // the daemon down with SIGPIPE (nv_serverd also SIG_IGNs it for the
    // raw ::write paths; this keeps the library safe on its own).
    const ssize_t N =
        ::send(Conn->Fd, Conn->Out.data() + Conn->OutStart,
               Conn->Out.size() - Conn->OutStart, MSG_NOSIGNAL);
    if (N > 0) {
      Conn->OutStart += static_cast<size_t>(N);
      continue;
    }
    if (N < 0 && errno == EINTR)
      continue;
    if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!Conn->WantWrite) {
        epoll_event Ev{};
        Ev.events = EPOLLIN | EPOLLOUT;
        Ev.data.fd = Conn->Fd;
        ::epoll_ctl(EpollFd.fd(), EPOLL_CTL_MOD, Conn->Fd, &Ev);
        Conn->WantWrite = true;
      }
      return true; // Socket full; EPOLLOUT resumes us.
    }
    return false; // Broken pipe.
  }
  Conn->Out.clear();
  Conn->OutStart = 0;
  if (Conn->WantWrite) {
    epoll_event Ev{};
    Ev.events = EPOLLIN;
    Ev.data.fd = Conn->Fd;
    ::epoll_ctl(EpollFd.fd(), EPOLL_CTL_MOD, Conn->Fd, &Ev);
    Conn->WantWrite = false;
  }
  return true;
}

void NetServer::closeConnection(const ConnPtr &Conn) {
  if (Conn->Closed.exchange(true))
    return;
  ::epoll_ctl(EpollFd.fd(), EPOLL_CTL_DEL, Conn->Fd, nullptr);
  ::close(Conn->Fd);
  Conns.erase(Conn->Fd);
}
