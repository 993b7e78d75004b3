//===- tests/NetTest.cpp - protocol, daemon, hot-reload tests -------------===//

#include "TestCounters.h"
#include "core/NeuroVectorizer.h"
#include "dataset/LoopGenerator.h"
#include "net/Client.h"
#include "net/NetServer.h"
#include "net/Protocol.h"
#include "serve/ModelHost.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>

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

const char *TwoLoops =
    "float a[128]; float b[128]; void g() { for (int i = 0; i < 128; i++) "
    "{ a[i] = a[i] * 2.0; } for (int j = 0; j < 128; j++) { b[j] = b[j] + "
    "a[j]; } }";

/// Small, fast configuration (matches ServeTest's).
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

/// A scratch file path removed on scope exit.
struct TempFile {
  std::string Path;
  explicit TempFile(const std::string &Name)
      : Path(::testing::TempDir() + Name) {}
  ~TempFile() { std::remove(Path.c_str()); }
};

/// Trains a tiny model (distinct per seed) and saves it to \p Path.
void saveTrainedModel(const std::string &Path, uint64_t Seed) {
  NeuroVectorizer NV(testConfig(Seed));
  ASSERT_TRUE(NV.addTrainingProgram("dot", DotProduct));
  NV.train(48);
  std::string Error;
  ASSERT_TRUE(NV.save(Path, &Error)) << Error;
}

/// The plans a freshly loaded reference instance picks for \p Sources —
/// the ground truth a hosted generation serving that file must match.
std::vector<std::vector<VectorPlan>>
referencePlans(const std::string &ModelPath,
               const std::vector<std::string> &Sources) {
  NeuroVectorizer Ref(testConfig(/*Seed=*/777));
  std::string Error;
  EXPECT_TRUE(Ref.load(ModelPath, &Error)) << Error;
  std::vector<std::vector<VectorPlan>> Out;
  for (const std::string &S : Sources)
    Out.push_back(Ref.plansFor(S));
  return Out;
}

ServeConfig smallServe(int Threads = 2) {
  ServeConfig S;
  S.Threads = Threads;
  return S;
}

/// A hosted-mode service + daemon on an ephemeral loopback port.
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

net::AnnotateRequestBody
makeBatch(const std::vector<std::string> &Sources,
          uint64_t DeadlineMicros = 0) {
  net::AnnotateRequestBody Req;
  Req.DeadlineMicros = DeadlineMicros;
  for (size_t I = 0; I < Sources.size(); ++I) {
    net::WireProgram P;
    P.Name = "p" + std::to_string(I);
    P.Source = Sources[I];
    Req.Programs.push_back(std::move(P));
  }
  return Req;
}

// --- Protocol ------------------------------------------------------------

TEST(Protocol, HeaderRoundTripAndRejection) {
  std::vector<char> Buf;
  net::appendRequestHeader(Buf, Verb::Annotate, 123);
  ASSERT_EQ(Buf.size(), net::RequestHeaderSize);
  net::RequestHeader Req;
  ASSERT_TRUE(net::parseRequestHeader(Buf.data(), Buf.size(), Req));
  EXPECT_EQ(Req.V, Verb::Annotate);
  EXPECT_EQ(Req.BodyLen, 123u);
  // Too short, bad magic, bad verb, oversized body.
  EXPECT_FALSE(net::parseRequestHeader(Buf.data(), Buf.size() - 1, Req));
  std::vector<char> Bad = Buf;
  Bad[0] ^= 1;
  EXPECT_FALSE(net::parseRequestHeader(Bad.data(), Bad.size(), Req));
  Bad = Buf;
  Bad[4] = 99;
  EXPECT_FALSE(net::parseRequestHeader(Bad.data(), Bad.size(), Req));

  Buf.clear();
  net::appendResponseHeader(Buf, Verb::Reload, WireStatus::ReloadFailed, 7);
  ASSERT_EQ(Buf.size(), net::ResponseHeaderSize);
  net::ResponseHeader Res;
  ASSERT_TRUE(net::parseResponseHeader(Buf.data(), Buf.size(), Res));
  EXPECT_EQ(Res.V, Verb::Reload);
  EXPECT_EQ(Res.Status, WireStatus::ReloadFailed);
  EXPECT_EQ(Res.BodyLen, 7u);
}

TEST(Protocol, AnnotateRequestRoundTrip) {
  net::AnnotateRequestBody In = makeBatch({DotProduct, Saxpy}, 5000);
  In.Programs[1].HasMethod = true;
  In.Programs[1].Method = PredictMethod::NNS;

  const std::vector<char> Frame = net::encodeAnnotateRequest(In);
  net::RequestHeader Header;
  ASSERT_TRUE(net::parseRequestHeader(Frame.data(), Frame.size(), Header));
  EXPECT_EQ(Header.V, Verb::Annotate);
  ASSERT_EQ(Frame.size(), net::RequestHeaderSize + Header.BodyLen);

  const char *Body = Frame.data() + net::RequestHeaderSize;
  net::AnnotateRequestBody Out;
  ASSERT_TRUE(net::decodeAnnotateRequest(Body, Header.BodyLen, Out));
  EXPECT_EQ(Out.DeadlineMicros, 5000u);
  ASSERT_EQ(Out.Programs.size(), 2u);
  EXPECT_EQ(Out.Programs[0].Name, "p0");
  EXPECT_EQ(Out.Programs[0].Source, DotProduct);
  EXPECT_FALSE(Out.Programs[0].HasMethod);
  EXPECT_TRUE(Out.Programs[1].HasMethod);
  EXPECT_EQ(Out.Programs[1].Method, PredictMethod::NNS);

  // Any truncation fails decode cleanly.
  for (size_t Cut = 0; Cut < static_cast<size_t>(Header.BodyLen);
       Cut += 7)
    EXPECT_FALSE(net::decodeAnnotateRequest(Body, Cut, Out));
}

TEST(Protocol, AnnotateResponseRoundTrip) {
  std::vector<AnnotationResult> Results(2);
  Results[0].Name = "good";
  Results[0].Ok = true;
  Results[0].Method = PredictMethod::RL;
  Results[0].CachedSites = 1;
  Results[0].Plans = {{8, 2}, {4, 1}};
  Results[0].Annotated = "#pragma ...";
  Results[1].Name = "bad";
  Results[1].Ok = false;
  Results[1].Error = "parse error";

  const std::vector<char> Frame = net::encodeAnnotateResponse(9, Results);
  net::ResponseHeader Header;
  ASSERT_TRUE(net::parseResponseHeader(Frame.data(), Frame.size(), Header));
  EXPECT_EQ(Header.Status, WireStatus::Ok);

  net::AnnotateResponseBody Out;
  ASSERT_TRUE(net::decodeAnnotateResponse(
      Frame.data() + net::ResponseHeaderSize, Header.BodyLen, Out));
  EXPECT_EQ(Out.Generation, 9u);
  ASSERT_EQ(Out.Results.size(), 2u);
  EXPECT_TRUE(Out.Results[0].Ok);
  EXPECT_EQ(Out.Results[0].CachedSites, 1u);
  ASSERT_EQ(Out.Results[0].Plans.size(), 2u);
  EXPECT_EQ(Out.Results[0].Plans[0], (VectorPlan{8, 2}));
  EXPECT_EQ(Out.Results[0].Annotated, "#pragma ...");
  EXPECT_FALSE(Out.Results[1].Ok);
  EXPECT_EQ(Out.Results[1].Error, "parse error");
}

TEST(Protocol, DegradedStatusByteRoundTrips) {
  // Per-result status byte: 0 = error, 1 = ok, 2 = ok-but-degraded (the
  // fallback ladder answered). Anything above 2 is a framing error.
  std::vector<AnnotationResult> Results(2);
  Results[0].Name = "healthy";
  Results[0].Ok = true;
  Results[0].Method = PredictMethod::RL;
  Results[1].Name = "laddered";
  Results[1].Ok = true;
  Results[1].Degraded = true;
  Results[1].Method = PredictMethod::Baseline;

  const std::vector<char> Frame = net::encodeAnnotateResponse(1, Results);
  net::ResponseHeader Header;
  ASSERT_TRUE(net::parseResponseHeader(Frame.data(), Frame.size(), Header));
  net::AnnotateResponseBody Out;
  const char *Body = Frame.data() + net::ResponseHeaderSize;
  ASSERT_TRUE(net::decodeAnnotateResponse(Body, Header.BodyLen, Out));
  ASSERT_EQ(Out.Results.size(), 2u);
  EXPECT_TRUE(Out.Results[0].Ok);
  EXPECT_FALSE(Out.Results[0].Degraded);
  EXPECT_TRUE(Out.Results[1].Ok);
  EXPECT_TRUE(Out.Results[1].Degraded);
  EXPECT_EQ(Out.Results[1].Method, PredictMethod::Baseline);

  // Corrupt the second result's status byte to 3: decode must reject.
  // The byte sits right after the u64 generation + u32 count + result 0.
  std::vector<char> Bad(Body, Body + Header.BodyLen);
  const auto At = std::search(Bad.begin(), Bad.end(),
                              Results[1].Name.begin(),
                              Results[1].Name.end());
  ASSERT_NE(At, Bad.end());
  // Status byte precedes method byte + u32 name length + the name.
  *(At - 6) = 3;
  EXPECT_FALSE(
      net::decodeAnnotateResponse(Bad.data(), Bad.size(), Out));
}

// --- ModelSerializer::tryLoad (error-code path) --------------------------

TEST(TryLoad, StatusCodesAndUntouchedDestination) {
  TempFile File("net_tryload.nvm");
  {
    NeuroVectorizer NV(testConfig(/*Seed=*/5));
    std::string Error;
    ASSERT_TRUE(NV.save(File.Path, &Error)) << Error;
  }
  std::ifstream In(File.Path, std::ios::binary);
  std::string Bytes((std::istreambuf_iterator<char>(In)),
                    std::istreambuf_iterator<char>());
  In.close();
  ASSERT_GT(Bytes.size(), 64u);

  NeuroVectorizer Dest(testConfig(/*Seed=*/6));
  const std::vector<double> WeightsBefore =
      Dest.embedder().params()[0]->Value.raw();
  auto StatusOf = [&](const std::string &Path) {
    std::string Error;
    const LoadStatus S = ModelSerializer::tryLoad(
        Path, Dest.embedder(), Dest.policy(), nullptr, nullptr, &Error);
    if (S != LoadStatus::Ok)
      EXPECT_FALSE(Error.empty());
    return S;
  };
  auto Rewrite = [&](const std::string &Content) {
    std::ofstream Out(File.Path, std::ios::binary | std::ios::trunc);
    Out.write(Content.data(), static_cast<std::streamsize>(Content.size()));
  };
  // Re-stamps the checksum trailer so header edits reach their own check
  // (the checksum is validated first).
  auto Restamp = [](std::string Content) {
    const size_t PayloadSize = Content.size() - sizeof(uint64_t);
    const uint64_t Sum =
        ModelSerializer::checksum(Content.data(), PayloadSize);
    std::memcpy(&Content[PayloadSize], &Sum, sizeof(uint64_t));
    return Content;
  };

  EXPECT_EQ(StatusOf(File.Path + ".missing"), LoadStatus::OpenFailed);

  Rewrite(Bytes.substr(0, 8));
  EXPECT_EQ(StatusOf(File.Path), LoadStatus::Truncated);

  Rewrite(Bytes.substr(0, Bytes.size() - 1));
  EXPECT_EQ(StatusOf(File.Path), LoadStatus::BadChecksum);

  std::string Flipped = Bytes;
  Flipped[Bytes.size() / 2] ^= 0x40;
  Rewrite(Flipped);
  EXPECT_EQ(StatusOf(File.Path), LoadStatus::BadChecksum);

  std::string BadMagic = Bytes;
  BadMagic[0] ^= 0xFF;
  Rewrite(Restamp(BadMagic));
  EXPECT_EQ(StatusOf(File.Path), LoadStatus::BadMagic);

  std::string BadVersion = Bytes;
  BadVersion[4] = 99;
  Rewrite(Restamp(BadVersion));
  EXPECT_EQ(StatusOf(File.Path), LoadStatus::BadVersion);

  std::string Legacy = Bytes;
  Legacy[8] &= static_cast<char>(~2); // Clear the hash-fold flag bit.
  Rewrite(Restamp(Legacy));
  EXPECT_EQ(StatusOf(File.Path), LoadStatus::LegacyHashing);

  // Flag bit 2 marks a policy trained on legality features, an input
  // this build no longer produces: rejected, with the cause named.
  std::string Featured = Bytes;
  Featured[8] |= 4;
  Rewrite(Restamp(Featured));
  EXPECT_EQ(StatusOf(File.Path), LoadStatus::ArchMismatch);
  {
    std::string Error;
    ModelSerializer::tryLoad(File.Path, Dest.embedder(), Dest.policy(),
                             nullptr, nullptr, &Error);
    EXPECT_NE(Error.find("legality features"), std::string::npos) << Error;
  }

  // Architecture mismatch: a destination with different shapes.
  Rewrite(Bytes);
  NeuroVectorizerConfig Wide = testConfig(/*Seed=*/7);
  Wide.Embedding.CodeDim = 32;
  NeuroVectorizer WideDest(Wide);
  std::string Error;
  EXPECT_EQ(ModelSerializer::tryLoad(File.Path, WideDest.embedder(),
                                     WideDest.policy(), nullptr, nullptr,
                                     &Error),
            LoadStatus::ArchMismatch);

  // Every failure above left the destination bit-identical.
  EXPECT_EQ(Dest.embedder().params()[0]->Value.raw(), WeightsBefore);

  // And the intact file still loads.
  EXPECT_EQ(StatusOf(File.Path), LoadStatus::Ok);
  EXPECT_NE(Dest.embedder().params()[0]->Value.raw(), WeightsBefore);
}

// --- PlanCache epochs ----------------------------------------------------

TEST(PlanCacheEpoch, MismatchIsAMissAndEvicts) {
  PlanCache Cache(/*Capacity=*/64, /*Shards=*/2);
  ContextKey Key{0x1234, 0x5678};
  Cache.insert(Key, {8, 2}, /*Epoch=*/1);
  ASSERT_EQ(Cache.size(), 1u);

  VectorPlan Out;
  ASSERT_TRUE(Cache.lookup(Key, Out, /*Epoch=*/1));
  EXPECT_EQ(Out, (VectorPlan{8, 2}));

  // Wrong epoch: miss AND evict (the stale generation never returns).
  EXPECT_FALSE(Cache.lookup(Key, Out, /*Epoch=*/2));
  EXPECT_EQ(Cache.size(), 0u);

  // Re-inserted under the new epoch, the old epoch can no longer hit.
  Cache.insert(Key, {4, 1}, /*Epoch=*/2);
  ASSERT_TRUE(Cache.lookup(Key, Out, /*Epoch=*/2));
  EXPECT_EQ(Out, (VectorPlan{4, 1}));
  EXPECT_FALSE(Cache.lookup(Key, Out, /*Epoch=*/1));
}

TEST(PlanCacheEpoch, DefaultEpochBackCompatAndRefresh) {
  PlanCache Cache(/*Capacity=*/8);
  ContextKey Key{1, 2};
  Cache.insert(Key, {16, 4}); // Epoch 0 (borrowed-model mode).
  VectorPlan Out;
  ASSERT_TRUE(Cache.lookup(Key, Out));
  EXPECT_EQ(Out, (VectorPlan{16, 4}));

  // Refreshing an existing key onto a new epoch re-tags in place.
  Cache.insert(Key, {2, 1}, /*Epoch=*/3);
  EXPECT_EQ(Cache.size(), 1u);
  EXPECT_FALSE(Cache.lookup(Key, Out)); // Epoch 0 is stale now.
  Cache.insert(Key, {2, 1}, /*Epoch=*/3);
  ASSERT_TRUE(Cache.lookup(Key, Out, 3));
  EXPECT_EQ(Out, (VectorPlan{2, 1}));
}

// --- ThreadPool saturation signals ---------------------------------------

TEST(ThreadPoolDepth, QueueDepthAndInFlight) {
  ThreadPool Pool(1);
  EXPECT_EQ(Pool.queueDepth(), 0u);
  EXPECT_EQ(Pool.inFlight(), 0u);

  std::mutex Gate;
  Gate.lock();
  Pool.run([&] { std::lock_guard<std::mutex> Hold(Gate); });
  Pool.run([] {});
  Pool.run([] {});
  // The first job holds the single worker; the others must be queued.
  while (Pool.queueDepth() < 2)
    std::this_thread::yield();
  EXPECT_GE(Pool.inFlight(), 2u);
  Gate.unlock();
  Pool.wait();
  EXPECT_EQ(Pool.queueDepth(), 0u);
  EXPECT_EQ(Pool.inFlight(), 0u);
}

// --- ModelHost + hosted service ------------------------------------------

TEST(ModelHost, ReloadPublishesGenerationsAndKeepsOldOnFailure) {
  TempFile File("net_host.nvm");
  saveTrainedModel(File.Path, /*Seed=*/31);

  ModelHost Host(NeuroVectorizer(testConfig()).servingModelConfig());
  EXPECT_EQ(Host.generation(), 0u);
  const std::shared_ptr<const ServingModel> Gen0 = Host.current();
  ASSERT_NE(Gen0, nullptr);

  std::string Error;
  ASSERT_EQ(Host.reload(File.Path, &Error), LoadStatus::Ok) << Error;
  EXPECT_EQ(Host.generation(), 1u);
  const std::shared_ptr<const ServingModel> Gen1 = Host.current();
  EXPECT_NE(Gen0, Gen1);
  EXPECT_EQ(Gen1->generation(), 1u);
  EXPECT_EQ(Gen1->path(), File.Path);
  // The old generation stays alive for its holders (RCU contract).
  EXPECT_EQ(Gen0->generation(), 0u);

  // A corrupt file must not flip anything.
  TempFile Corrupt("net_host_corrupt.nvm");
  std::ofstream(Corrupt.Path, std::ios::binary) << "not a model";
  EXPECT_EQ(Host.reload(Corrupt.Path, &Error), LoadStatus::Truncated);
  EXPECT_EQ(Host.generation(), 1u);
  EXPECT_EQ(Host.current(), Gen1);
}

TEST(HostedService, SwapInvalidatesCacheAndTagsGeneration) {
  TempFile FileA("net_swap_a.nvm");
  TempFile FileB("net_swap_b.nvm");
  saveTrainedModel(FileA.Path, /*Seed=*/41);
  saveTrainedModel(FileB.Path, /*Seed=*/42);
  const auto RefA = referencePlans(FileA.Path, {DotProduct});
  const auto RefB = referencePlans(FileB.Path, {DotProduct});

  NeuroVectorizerConfig Config = testConfig();
  ModelHost Host(NeuroVectorizer(Config).servingModelConfig());
  AnnotationService Service(Host, Config.Embedding.Paths, Config.Target,
                            smallServe());
  std::string Error;
  ASSERT_EQ(Host.reload(FileA.Path, &Error), LoadStatus::Ok) << Error;

  AnnotationResult R1 = Service.annotateOne("dot", DotProduct);
  ASSERT_TRUE(R1.Ok) << R1.Error;
  EXPECT_EQ(R1.Generation, 1u);
  EXPECT_EQ(R1.CachedSites, 0);
  EXPECT_EQ(R1.Plans, RefA[0]);

  // Same program again: answered by the generation-1 cache entry.
  AnnotationResult R2 = Service.annotateOne("dot", DotProduct);
  EXPECT_EQ(R2.CachedSites, 1);
  EXPECT_EQ(R2.Plans, RefA[0]);

  // Swap to B: the stale entry must NOT answer (lazy epoch invalidation),
  // and the fresh plans must be B's.
  ASSERT_EQ(Host.reload(FileB.Path, &Error), LoadStatus::Ok) << Error;
  AnnotationResult R3 = Service.annotateOne("dot", DotProduct);
  ASSERT_TRUE(R3.Ok) << R3.Error;
  EXPECT_EQ(R3.Generation, 2u);
  EXPECT_EQ(R3.CachedSites, 0);
  EXPECT_EQ(R3.Plans, RefB[0]);

  // And the generation-2 entry serves generation-2 lookups.
  AnnotationResult R4 = Service.annotateOne("dot", DotProduct);
  EXPECT_EQ(R4.CachedSites, 1);
  EXPECT_EQ(R4.Plans, RefB[0]);
}

// --- End-to-end daemon ---------------------------------------------------

TEST(NetServer, EndToEndAnnotateStatszReload) {
  TempFile FileA("net_e2e_a.nvm");
  saveTrainedModel(FileA.Path, /*Seed=*/51);
  const auto RefA = referencePlans(FileA.Path, {DotProduct, Saxpy});

  TestServer S;
  const uint16_t Port = S.start();
  ASSERT_NE(Port, 0);

  NetClient Client;
  std::string Error;
  ASSERT_TRUE(Client.connect("127.0.0.1", Port, &Error)) << Error;
  EXPECT_TRUE(Client.ping(&Error)) << Error;

  // Hot-load the real model over the wire.
  WireStatus Status;
  uint64_t Generation = 0;
  ASSERT_TRUE(Client.reload(FileA.Path, Status, &Generation, &Error))
      << Error;
  ASSERT_EQ(Status, WireStatus::Ok) << Client.statusMessage();
  EXPECT_EQ(Generation, 1u);

  net::AnnotateResponseBody Res;
  ASSERT_TRUE(
      Client.annotate(makeBatch({DotProduct, Saxpy}), Res, Status, &Error))
      << Error;
  ASSERT_EQ(Status, WireStatus::Ok);
  EXPECT_EQ(Res.Generation, 1u);
  ASSERT_EQ(Res.Results.size(), 2u);
  for (size_t I = 0; I < Res.Results.size(); ++I) {
    ASSERT_TRUE(Res.Results[I].Ok) << Res.Results[I].Error;
    EXPECT_EQ(Res.Results[I].Plans, RefA[I]);
    EXPECT_NE(Res.Results[I].Annotated.find("#pragma"), std::string::npos);
  }

  // A parse failure travels as a per-result rejection, not a dead frame.
  ASSERT_TRUE(Client.annotate(makeBatch({"not a program"}), Res, Status,
                              &Error))
      << Error;
  ASSERT_EQ(Status, WireStatus::Ok);
  ASSERT_EQ(Res.Results.size(), 1u);
  EXPECT_FALSE(Res.Results[0].Ok);

  // A corrupt reload reports RELOAD_FAILED and the old model keeps
  // serving at the same generation.
  TempFile Corrupt("net_e2e_corrupt.nvm");
  std::ofstream(Corrupt.Path, std::ios::binary) << "garbage";
  ASSERT_TRUE(Client.reload(Corrupt.Path, Status, nullptr, &Error))
      << Error;
  EXPECT_EQ(Status, WireStatus::ReloadFailed);
  EXPECT_NE(Client.statusMessage().find("truncated"), std::string::npos)
      << Client.statusMessage();
  ASSERT_TRUE(
      Client.annotate(makeBatch({DotProduct}), Res, Status, &Error))
      << Error;
  ASSERT_EQ(Status, WireStatus::Ok);
  EXPECT_EQ(Res.Generation, 1u);
  EXPECT_EQ(Res.Results[0].Plans, RefA[0]);

  // statsz: one JSON document with the generation, server counters,
  // status, and the registry holding the serving counts.
  std::string Json;
  ASSERT_TRUE(Client.statsz(Json, &Error)) << Error;
  EXPECT_NE(Json.find("\"generation\": 1"), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"reloads_failed\": 1"), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"kernel_isa\""), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"method\": \"rl\""), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"serve.method.rl.loops\""), std::string::npos)
      << Json;
  EXPECT_NE(Json.find("\"histograms\""), std::string::npos) << Json;

  S.Server.shutdown();
  const NetServerCounters C = S.Server.counters();
  EXPECT_EQ(C.Accepted, 1u);
  EXPECT_EQ(C.Reloads, 1u);
  EXPECT_EQ(C.ReloadsFailed, 1u);
  EXPECT_EQ(C.Annotated, 3u);
}

TEST(NetServer, DeeplyNestedProgramIsAParseErrorNotACrash) {
  // 20k nested parentheses overflowed the parser's stack and a 20k-term
  // sum overflowed a later pass's, killing the daemon mid-frame.
  TestServer S;
  const uint16_t Port = S.start();
  ASSERT_NE(Port, 0);
  NetClient Client;
  std::string Error;
  ASSERT_TRUE(Client.connect("127.0.0.1", Port, &Error)) << Error;

  const CounterDelta NestingRejected("lang.nesting_rejected");
  const int N = 20000;
  const std::string Head =
      "float a[64]; void f() { for (int i = 0; i < 64; i++) { a[i] = ";
  std::string Sum = "1";
  for (int I = 1; I < N; ++I)
    Sum += "+1";
  net::AnnotateResponseBody Res;
  WireStatus Status;
  ASSERT_TRUE(Client.annotate(
      makeBatch({Head + std::string(N, '(') + "1" + std::string(N, ')') +
                     "; } }",
                 Head + Sum + "; } }", Saxpy}),
      Res, Status, &Error))
      << Error;
  ASSERT_EQ(Status, WireStatus::Ok);
  ASSERT_EQ(Res.Results.size(), 3u);
  for (size_t I = 0; I < 2; ++I) {
    EXPECT_FALSE(Res.Results[I].Ok);
    EXPECT_EQ(Res.Results[I].Error.rfind("parse error", 0), 0u)
        << Res.Results[I].Error;
  }
  EXPECT_TRUE(Res.Results[2].Ok) << Res.Results[2].Error;
  EXPECT_TRUE(Client.ping(&Error)) << Error;
  // Each 20k-deep program is one nesting-bound rejection.
  EXPECT_EQ(NestingRejected(), 2u);
}

TEST(NetServer, StatszCountsOneAnnotateFrameExactlyOnce) {
  // Every serving count is one registry counter in statsz: a known
  // annotate frame moves serve.programs_served and serve.method.rl.loops
  // by exactly the programs and loops it sent.
  TestServer S;
  const uint16_t Port = S.start();
  ASSERT_NE(Port, 0);
  NetClient Client;
  std::string Error;
  ASSERT_TRUE(Client.connect("127.0.0.1", Port, &Error)) << Error;

  std::string Before, After;
  ASSERT_TRUE(Client.statsz(Before, &Error)) << Error;
  net::AnnotateResponseBody Res;
  WireStatus Status;
  ASSERT_TRUE(Client.annotate(makeBatch({DotProduct, Saxpy, TwoLoops}), Res,
                              Status, &Error))
      << Error;
  ASSERT_EQ(Status, WireStatus::Ok);
  uint64_t Loops = 0;
  for (const net::WireResult &R : Res.Results) {
    ASSERT_TRUE(R.Ok) << R.Error;
    EXPECT_FALSE(R.Degraded);
    Loops += R.Plans.size();
  }
  EXPECT_EQ(Loops, 4u);
  ASSERT_TRUE(Client.statsz(After, &Error)) << Error;

  EXPECT_EQ(counterIn(After, "serve.programs_served") -
                counterIn(Before, "serve.programs_served"),
            3u);
  EXPECT_EQ(counterIn(After, "serve.method.rl.loops") -
                counterIn(Before, "serve.method.rl.loops"),
            Loops);
  for (const char *Name : {"serve.programs_served", "serve.method.rl.loops"}) {
    const std::string Key = std::string("\"") + Name + "\"";
    const size_t First = After.find(Key);
    ASSERT_NE(First, std::string::npos) << After;
    EXPECT_EQ(After.find(Key, First + 1), std::string::npos) << Name;
  }
}

TEST(NetServer, OverloadedShedsBeforeQueueing) {
  NetServerConfig Net;
  Net.MaxInFlightBytes = 1; // Every annotate body exceeds this.
  TestServer S(Net);
  const uint16_t Port = S.start();

  NetClient Client;
  std::string Error;
  ASSERT_TRUE(Client.connect("127.0.0.1", Port, &Error)) << Error;

  net::AnnotateResponseBody Res;
  WireStatus Status;
  ASSERT_TRUE(
      Client.annotate(makeBatch({DotProduct}), Res, Status, &Error))
      << Error;
  EXPECT_EQ(Status, WireStatus::Overloaded);
  EXPECT_EQ(Client.statusMessage(), "server overloaded");

  // Ping and statsz still answer: shedding is per-verb admission, not a
  // dead server.
  EXPECT_TRUE(Client.ping(&Error)) << Error;
  EXPECT_EQ(S.Server.counters().Shed, 1u);
}

TEST(NetServer, DeadlineExceededInQueue) {
  NetServerConfig Net;
  Net.Executors = 1; // One lane: the big batch blocks the queue.
  TestServer S(Net);
  const uint16_t Port = S.start();

  std::vector<std::string> Big(96, DotProduct);
  NetClient Blocker;
  std::string Error;
  ASSERT_TRUE(Blocker.connect("127.0.0.1", Port, &Error)) << Error;
  // Joined on destruction even if an ASSERT below exits the test early.
  struct Joiner {
    std::thread T;
    ~Joiner() {
      if (T.joinable())
        T.join();
    }
  } BlockerThread{std::thread([&] {
    net::AnnotateResponseBody Res;
    WireStatus Status;
    EXPECT_TRUE(Blocker.annotate(makeBatch(Big), Res, Status, &Error));
    EXPECT_EQ(Status, WireStatus::Ok);
  })};

  // Admitted behind the big batch with a 1us budget: by the time the
  // executor reaches it, the deadline has long passed.
  NetClient Client;
  std::string Error2;
  ASSERT_TRUE(Client.connect("127.0.0.1", Port, &Error2)) << Error2;
  const uint64_t Before = S.Server.counters().Requests;
  while (S.Server.counters().Requests == Before)
    std::this_thread::yield(); // Blocker's frame admitted.
  net::AnnotateResponseBody Res;
  WireStatus Status;
  ASSERT_TRUE(Client.annotate(makeBatch({DotProduct}, /*Deadline=*/1), Res,
                              Status, &Error2))
      << Error2;
  EXPECT_EQ(Status, WireStatus::DeadlineExceeded);
}

TEST(NetServer, GracefulShutdownDrainsWithoutDroppingRequests) {
  TempFile Snapshot("net_drain_snapshot.json");
  NetServerConfig Net;
  Net.Executors = 1;
  Net.FinalSnapshotPath = Snapshot.Path;
  TestServer S(Net);
  const uint16_t Port = S.start();

  // Two slow in-flight batches on one executor (distinct programs so
  // the plan cache cannot answer them instantly): while the first runs,
  // the second is queued, so the daemon provably outlives the probes
  // below no matter how the test threads are scheduled.
  std::vector<GeneratedLoop> Pool = LoopGenerator(/*Seed=*/7)
                                        .generateMany(2 * 384);
  std::vector<std::string> Big1, Big2;
  for (size_t I = 0; I < Pool.size(); ++I)
    (I % 2 ? Big1 : Big2).push_back(Pool[I].Source);

  std::string Error;
  std::atomic<int> FullResponses{0};
  auto SendBig = [&](NetClient &Client,
                     const std::vector<std::string> &Batch) {
    net::AnnotateResponseBody Res;
    WireStatus Status;
    std::string ThreadError;
    ASSERT_TRUE(Client.annotate(makeBatch(Batch), Res, Status,
                                &ThreadError))
        << ThreadError;
    ASSERT_EQ(Status, WireStatus::Ok);
    ASSERT_EQ(Res.Results.size(), Batch.size());
    for (const net::WireResult &R : Res.Results)
      ASSERT_TRUE(R.Ok) << R.Error;
    ++FullResponses;
  };
  // Joins on destruction so an ASSERT exiting this test early cannot
  // std::terminate on a joinable thread.
  struct Joiner {
    std::thread T;
    ~Joiner() {
      if (T.joinable())
        T.join();
    }
  };

  NetClient InFlight1, InFlight2, Late;
  ASSERT_TRUE(InFlight1.connect("127.0.0.1", Port, &Error)) << Error;
  ASSERT_TRUE(InFlight2.connect("127.0.0.1", Port, &Error)) << Error;
  // The late connection is established *before* the drain starts (the
  // listen socket closes with it).
  ASSERT_TRUE(Late.connect("127.0.0.1", Port, &Error)) << Error;

  Joiner T1{std::thread([&] { SendBig(InFlight1, Big1); })};
  Joiner T2{std::thread([&] { SendBig(InFlight2, Big2); })};

  // Wait until both batches are admitted, then start draining.
  while (S.Server.counters().Requests < 2)
    std::this_thread::yield();
  S.Server.requestShutdown();

  // statsz is served inline on the event thread — it stays live during
  // the drain and never extends it. Poll it until the drain has
  // provably begun (the wake and a client frame can land in the same
  // epoll batch); the still-running batches pin the daemon alive
  // throughout.
  std::string Json;
  do {
    ASSERT_TRUE(Late.statsz(Json, &Error)) << Error;
  } while (Json.find("\"draining\": true") == std::string::npos);

  // New work during the drain is rejected with SHUTTING_DOWN.
  net::AnnotateResponseBody Res;
  WireStatus Status;
  ASSERT_TRUE(
      Late.annotate(makeBatch({DotProduct}), Res, Status, &Error))
      << Error;
  EXPECT_EQ(Status, WireStatus::ShuttingDown);

  // ...but the admitted batches still get their full responses (no
  // request dropped mid-flight), and the daemon then exits.
  S.Server.wait();
  T1.T.join();
  T2.T.join();
  EXPECT_EQ(FullResponses.load(), 2);
  EXPECT_FALSE(S.Server.running());

  // The final telemetry snapshot landed on disk.
  std::ifstream SnapIn(Snapshot.Path);
  ASSERT_TRUE(SnapIn.good());
  std::string Doc((std::istreambuf_iterator<char>(SnapIn)),
                  std::istreambuf_iterator<char>());
  EXPECT_NE(Doc.find("\"histograms\""), std::string::npos);
}

TEST(NetServer, ConcurrentHotReloadIsGenerationConsistent) {
  TempFile FileA("net_hammer_a.nvm");
  TempFile FileB("net_hammer_b.nvm");
  saveTrainedModel(FileA.Path, /*Seed=*/61);
  saveTrainedModel(FileB.Path, /*Seed=*/62);
  const std::vector<std::string> Probes = {DotProduct, Saxpy};
  const auto RefA = referencePlans(FileA.Path, Probes);
  const auto RefB = referencePlans(FileB.Path, Probes);

  TestServer S;
  const uint16_t Port = S.start();

  NetClient Control;
  std::string Error;
  ASSERT_TRUE(Control.connect("127.0.0.1", Port, &Error)) << Error;
  WireStatus Status;
  uint64_t Generation = 0;
  ASSERT_TRUE(Control.reload(FileA.Path, Status, &Generation, &Error))
      << Error;
  ASSERT_EQ(Status, WireStatus::Ok);
  ASSERT_EQ(Generation, 1u);

  // Hammer from client threads while the control connection flips
  // between the two models. Odd generations serve A, even serve B; every
  // response must be internally consistent with exactly one generation.
  std::atomic<bool> Stop{false};
  std::atomic<int> Inconsistent{0};
  std::atomic<int> Served{0};
  auto Hammer = [&] {
    NetClient Client;
    std::string HErr;
    if (!Client.connect("127.0.0.1", Port, &HErr)) {
      ++Inconsistent;
      return;
    }
    while (!Stop.load()) {
      net::AnnotateResponseBody Res;
      WireStatus HStatus;
      if (!Client.annotate(makeBatch(Probes), Res, HStatus, &HErr) ||
          HStatus != WireStatus::Ok || Res.Results.size() != Probes.size()) {
        ++Inconsistent;
        return;
      }
      const auto &Expected = (Res.Generation % 2 == 1) ? RefA : RefB;
      for (size_t I = 0; I < Res.Results.size(); ++I)
        if (!Res.Results[I].Ok || Res.Results[I].Plans != Expected[I])
          ++Inconsistent;
      ++Served;
    }
  };
  std::thread T1(Hammer), T2(Hammer);

  for (uint64_t Flip = 2; Flip <= 7; ++Flip) {
    const std::string &Path = (Flip % 2 == 1) ? FileA.Path : FileB.Path;
    ASSERT_TRUE(Control.reload(Path, Status, &Generation, &Error)) << Error;
    ASSERT_EQ(Status, WireStatus::Ok) << Control.statusMessage();
    ASSERT_EQ(Generation, Flip);
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  }
  Stop.store(true);
  T1.join();
  T2.join();

  EXPECT_EQ(Inconsistent.load(), 0);
  EXPECT_GT(Served.load(), 0);
  EXPECT_EQ(S.Server.counters().Reloads, 7u);
}

} // namespace
