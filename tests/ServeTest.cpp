//===- tests/ServeTest.cpp - serializer, cache, batched service tests ------===//

#include "TestCounters.h"
#include "core/NeuroVectorizer.h"
#include "dataset/LoopGenerator.h"
#include "serve/ModelSerializer.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>

using namespace nv;

namespace {

const char *DotProduct =
    "int vec[512]; int out; void f() { int sum = 0; for (int i = 0; i < "
    "512; i++) { sum += vec[i] * vec[i]; } out = sum; }";

/// Small, fast configuration (matches CoreTest's integration config).
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

/// A scratch model path that is removed on scope exit.
struct TempModel {
  std::string Path;
  explicit TempModel(const std::string &Name)
      : Path(::testing::TempDir() + Name) {}
  ~TempModel() { std::remove(Path.c_str()); }
};

std::vector<AnnotationRequest> generatedRequests(int Count,
                                                 uint64_t Seed = 99) {
  LoopGenerator Gen(Seed);
  std::vector<AnnotationRequest> Requests;
  for (const GeneratedLoop &L : Gen.generateMany(Count))
    Requests.push_back({L.Name, L.Source});
  return Requests;
}

TEST(ModelSerializer, RoundTripIsBitwiseExact) {
  TempModel File("serve_roundtrip.nvm");

  NeuroVectorizer Trained(testConfig(/*Seed=*/1));
  ASSERT_TRUE(Trained.addTrainingProgram("dot", DotProduct));
  Trained.train(128);
  ASSERT_TRUE(Trained.save(File.Path));

  // A different seed guarantees the fresh instance starts from different
  // weights, so equality after load() proves the file carried everything.
  // (Compare the weights themselves: two different models can
  // coincidentally pick the same plan for one program.)
  NeuroVectorizer Fresh(testConfig(/*Seed=*/2));
  ASSERT_NE(Trained.embedder().params()[0]->Value.raw(),
            Fresh.embedder().params()[0]->Value.raw());
  std::string Error;
  ASSERT_TRUE(Fresh.load(File.Path, &Error)) << Error;

  std::vector<Param *> A = Trained.embedder().params();
  std::vector<Param *> B = Fresh.embedder().params();
  for (Param *P : Trained.policy().params())
    A.push_back(P);
  for (Param *P : Fresh.policy().params())
    B.push_back(P);
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I < A.size(); ++I)
    EXPECT_EQ(A[I]->Value.raw(), B[I]->Value.raw()) << "param " << I;

  // Identical weights must mean identical annotations on unseen programs.
  for (const AnnotationRequest &Req : generatedRequests(8))
    EXPECT_EQ(Trained.annotate(Req.Source), Fresh.annotate(Req.Source));
}

TEST(ModelSerializer, RejectsTruncatedFile) {
  TempModel File("serve_truncated.nvm");
  NeuroVectorizer NV(testConfig());
  ASSERT_TRUE(NV.save(File.Path));

  std::ifstream In(File.Path, std::ios::binary);
  std::string Bytes((std::istreambuf_iterator<char>(In)),
                    std::istreambuf_iterator<char>());
  In.close();
  ASSERT_GT(Bytes.size(), 64u);

  for (size_t Keep : {size_t(0), size_t(3), size_t(17), Bytes.size() / 2,
                      Bytes.size() - 1}) {
    std::ofstream Out(File.Path, std::ios::binary | std::ios::trunc);
    Out.write(Bytes.data(), static_cast<std::streamsize>(Keep));
    Out.close();
    std::string Error;
    EXPECT_FALSE(NV.load(File.Path, &Error)) << "kept " << Keep;
    EXPECT_FALSE(Error.empty());
  }
}

TEST(ModelSerializer, RejectsBitFlipAndLeavesModelUntouched) {
  TempModel File("serve_corrupt.nvm");
  NeuroVectorizer NV(testConfig());
  ASSERT_TRUE(NV.addTrainingProgram("dot", DotProduct));
  NV.train(64);
  const std::string Before = NV.annotate(DotProduct);
  ASSERT_TRUE(NV.save(File.Path));

  std::fstream F(File.Path,
                 std::ios::binary | std::ios::in | std::ios::out);
  F.seekp(128);
  char Byte = 0;
  F.seekg(128);
  F.read(&Byte, 1);
  Byte ^= 0x40;
  F.seekp(128);
  F.write(&Byte, 1);
  F.close();

  std::string Error;
  EXPECT_FALSE(NV.load(File.Path, &Error));
  EXPECT_NE(Error.find("checksum"), std::string::npos) << Error;
  // Failed loads must not clobber the live model.
  EXPECT_EQ(NV.annotate(DotProduct), Before);
}

/// Rewrites a freshly saved (v3, weights-only) model file as an older
/// format version: v2 drops the trailing empty section-count word, v1
/// additionally drops the u32 flags word at offset 8. The trailing
/// checksum is recomputed either way.
void downgradeModelFile(const std::string &Path, uint32_t Version) {
  std::ifstream In(Path, std::ios::binary);
  std::string Bytes((std::istreambuf_iterator<char>(In)),
                    std::istreambuf_iterator<char>());
  In.close();
  ASSERT_GT(Bytes.size(), 24u);
  Bytes.erase(Bytes.size() - sizeof(uint64_t) - sizeof(uint32_t),
              sizeof(uint32_t)); // Empty v3 section count.
  if (Version == 1)
    Bytes.erase(8, 4); // Flags word.
  std::memcpy(&Bytes[4], &Version, sizeof(Version));
  const uint64_t Sum = ModelSerializer::checksum(
      Bytes.data(), Bytes.size() - sizeof(uint64_t));
  std::memcpy(&Bytes[Bytes.size() - sizeof(uint64_t)], &Sum, sizeof(Sum));
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
  Out.close();
}

TEST(ModelSerializer, RejectsLegacyVocabHashFiles) {
  // Flags bit 1 marks the bias-free vocabulary fold. A v2+ file without
  // it was written before the fold: its embedding rows are bucketed by
  // the old `fnv1a % vocab`, which the current extractor no longer
  // reproduces — loading must fail loudly, not silently degrade.
  TempModel File("serve_oldhash.nvm");
  NeuroVectorizer NV(testConfig(/*Seed=*/77));
  ASSERT_TRUE(NV.save(File.Path));

  std::ifstream In(File.Path, std::ios::binary);
  std::string Bytes((std::istreambuf_iterator<char>(In)),
                    std::istreambuf_iterator<char>());
  In.close();
  uint32_t Flags = 0;
  std::memcpy(&Flags, &Bytes[8], sizeof(Flags));
  ASSERT_NE(Flags & 2u, 0u); // Fresh saves carry the marker.
  Flags &= ~2u;              // Simulate a pre-fold file.
  std::memcpy(&Bytes[8], &Flags, sizeof(Flags));
  const uint64_t Sum = ModelSerializer::checksum(
      Bytes.data(), Bytes.size() - sizeof(uint64_t));
  std::memcpy(&Bytes[Bytes.size() - sizeof(uint64_t)], &Sum, sizeof(Sum));
  std::ofstream Out(File.Path, std::ios::binary | std::ios::trunc);
  Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
  Out.close();

  std::string Error;
  EXPECT_FALSE(NV.load(File.Path, &Error));
  EXPECT_NE(Error.find("vocabulary"), std::string::npos) << Error;
}

TEST(ModelSerializer, LoadsLegacyV1Files) {
  // v1 files (no flags word, no sections) predate the extraction-setting
  // header; they must keep loading, with the setting defaulting to
  // outer-context.
  TempModel File("serve_v1.nvm");
  NeuroVectorizer Saved(testConfig(/*Seed=*/5));
  ASSERT_TRUE(Saved.addTrainingProgram("dot", DotProduct));
  Saved.train(64);
  ASSERT_TRUE(Saved.save(File.Path));
  downgradeModelFile(File.Path, /*Version=*/1);

  NeuroVectorizer Fresh(testConfig(/*Seed=*/6));
  std::string Error;
  ASSERT_TRUE(Fresh.load(File.Path, &Error)) << Error;
  EXPECT_FALSE(Fresh.env().innerContextOnly());
  EXPECT_EQ(Fresh.annotate(DotProduct), Saved.annotate(DotProduct));
}

TEST(ModelSerializer, LoadsLegacyV2Files) {
  // v2 files (flags word, no backend sections) must keep loading; their
  // supervised backends are simply unfitted.
  TempModel File("serve_v2.nvm");
  NeuroVectorizer Saved(testConfig(/*Seed=*/15));
  ASSERT_TRUE(Saved.addTrainingProgram("dot", DotProduct));
  Saved.train(64);
  ASSERT_TRUE(Saved.save(File.Path));
  downgradeModelFile(File.Path, /*Version=*/2);

  NeuroVectorizer Fresh(testConfig(/*Seed=*/16));
  // Pre-fit backends must not survive a weights-only load: the loaded
  // weights produce different embeddings than the ones they were fit on.
  ASSERT_TRUE(Fresh.addTrainingProgram("dot", DotProduct));
  Fresh.fitSupervised(/*MaxSamples=*/1);
  EXPECT_TRUE(Fresh.supervisedReady());
  std::string Error;
  ASSERT_TRUE(Fresh.load(File.Path, &Error)) << Error;
  EXPECT_FALSE(Fresh.supervisedReady());
  EXPECT_EQ(Fresh.annotate(DotProduct), Saved.annotate(DotProduct));
}

TEST(ModelSerializer, V3RoundTripRestoresSupervisedBackends) {
  // The acceptance path: train, distill, save ONE file; a fresh process
  // loads it and serves rl, nns, tree, and bruteforce without refitting.
  TempModel File("serve_v3_backends.nvm");
  NeuroVectorizer Trained(testConfig(/*Seed=*/31));
  LoopGenerator Gen(7);
  for (const GeneratedLoop &L : Gen.generateMany(12))
    ASSERT_TRUE(Trained.addTrainingProgram(L.Name, L.Source));
  Trained.train(128);
  const DistillReport Distilled = Trained.fitSupervised(/*MaxSamples=*/12);
  EXPECT_EQ(Distilled.Programs, 12u);
  EXPECT_GT(Distilled.Sites, 0u);
  EXPECT_GT(Distilled.TreeNodes, 0u);
  ASSERT_TRUE(Trained.save(File.Path));

  NeuroVectorizer Fresh(testConfig(/*Seed=*/32));
  EXPECT_FALSE(Fresh.supervisedReady());
  std::string Error;
  ASSERT_TRUE(Fresh.load(File.Path, &Error)) << Error;
  EXPECT_TRUE(Fresh.supervisedReady());

  // Every backend must reproduce the training-side plans exactly.
  for (const AnnotationRequest &Req : generatedRequests(6, /*Seed=*/123)) {
    for (PredictMethod M :
         {PredictMethod::RL, PredictMethod::NNS, PredictMethod::DecisionTree,
          PredictMethod::BruteForce, PredictMethod::Baseline}) {
      const std::vector<VectorPlan> A = Trained.plansFor(Req.Source, M);
      const std::vector<VectorPlan> B = Fresh.plansFor(Req.Source, M);
      ASSERT_EQ(A.size(), B.size()) << methodName(M);
      for (size_t S = 0; S < A.size(); ++S)
        EXPECT_EQ(A[S], B[S]) << methodName(M) << " site " << S;
    }
  }
}

TEST(ModelSerializer, RejectsForeignFile) {
  TempModel File("serve_foreign.nvm");
  std::ofstream Out(File.Path, std::ios::binary);
  Out << "definitely not a model file, but long enough to have a header";
  Out.close();
  NeuroVectorizer NV(testConfig());
  std::string Error;
  EXPECT_FALSE(NV.load(File.Path, &Error));
  EXPECT_FALSE(NV.load(File.Path + ".does-not-exist", &Error));
}

TEST(ModelSerializer, RejectsArchitectureMismatch) {
  TempModel File("serve_arch.nvm");
  NeuroVectorizer Small(testConfig());
  ASSERT_TRUE(Small.save(File.Path));

  NeuroVectorizerConfig BigConfig = testConfig();
  BigConfig.Embedding.CodeDim = 32; // Different code-vector width.
  NeuroVectorizer Big(BigConfig);
  std::string Error;
  EXPECT_FALSE(Big.load(File.Path, &Error));
  EXPECT_NE(Error.find("mismatch"), std::string::npos) << Error;
}

TEST(PlanCache, LRUEvictsOldest) {
  // One shard isolates the pure LRU semantics (all keys share the list).
  const ContextKey K1{1, 1}, K2{2, 2}, K3{3, 3};
  PlanCache Cache(2, /*Shards=*/1);
  Cache.insert(K1, {2, 2});
  Cache.insert(K2, {4, 4});
  VectorPlan Out;
  ASSERT_TRUE(Cache.lookup(K1, Out)); // Refreshes key 1.
  Cache.insert(K3, {8, 8});           // Evicts key 2.
  EXPECT_EQ(Cache.size(), 2u);
  EXPECT_TRUE(Cache.lookup(K1, Out));
  EXPECT_EQ(Out.VF, 2);
  EXPECT_FALSE(Cache.lookup(K2, Out));
  EXPECT_TRUE(Cache.lookup(K3, Out));
}

TEST(PlanCache, ShardedCapacityAndIsolation) {
  // 8 shards, capacity 64: each shard holds ceil(64/8) = 8 entries, and
  // keys spread by the Hi stream's top bits. Filling well under the total
  // capacity with realistic (well-mixed) keys must never evict.
  PlanCache Cache(64, /*Shards=*/8);
  EXPECT_EQ(Cache.shards(), 8);
  std::vector<ContextKey> Keys;
  for (uint32_t I = 0; I < 32; ++I) {
    // Realistic keys come out of contextBagKey (both halves mixed).
    Keys.push_back(contextBagKey({{static_cast<int>(I), 1, 2}}, false));
    Cache.insert(Keys.back(), {2, static_cast<int>(I)});
  }
  EXPECT_EQ(Cache.size(), 32u);
  VectorPlan Out;
  for (uint32_t I = 0; I < 32; ++I) {
    ASSERT_TRUE(Cache.lookup(Keys[I], Out)) << "key " << I;
    EXPECT_EQ(Out.IF, static_cast<int>(I));
  }
  Cache.clear();
  EXPECT_EQ(Cache.size(), 0u);
  EXPECT_FALSE(Cache.lookup(Keys[0], Out));
}

TEST(PlanCache, ZeroCapacityDisablesInsertion) {
  PlanCache Cache(0, /*Shards=*/4);
  Cache.insert({1, 1}, {4, 2});
  VectorPlan Out;
  EXPECT_FALSE(Cache.lookup({1, 1}, Out));
  EXPECT_EQ(Cache.size(), 0u);
}

TEST(PlanCache, HalfMatchingKeysDoNotCollide) {
  // The 128-bit key exists because one colliding 64-bit half must not be
  // enough to serve the wrong plan.
  PlanCache Cache(8);
  Cache.insert({42, 1}, {2, 2});
  VectorPlan Out;
  EXPECT_FALSE(Cache.lookup({42, 2}, Out)); // Same Lo, different Hi.
  EXPECT_FALSE(Cache.lookup({43, 1}, Out)); // Same Hi, different Lo.
  EXPECT_TRUE(Cache.lookup({42, 1}, Out));
}

TEST(ContextKey, DistinguishesBagsAndExtractionFlavour) {
  const std::vector<PathContext> BagA = {{1, 2, 3}, {4, 5, 6}};
  const std::vector<PathContext> BagB = {{1, 2, 3}, {4, 5, 7}};
  EXPECT_EQ(contextBagKey(BagA, false), contextBagKey(BagA, false));
  EXPECT_NE(contextBagKey(BagA, false), contextBagKey(BagB, false));
  // Same bag, other extraction flavour: a different identity, so an
  // inner-context model's plans can never answer outer-context lookups.
  EXPECT_NE(contextBagKey(BagA, false), contextBagKey(BagA, true));
  // Both halves populated (independent hash streams).
  const ContextKey Key = contextBagKey(BagA, false);
  EXPECT_NE(Key.Lo, 0u);
  EXPECT_NE(Key.Hi, 0u);
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  ThreadPool Pool(4);
  std::vector<std::atomic<int>> Seen(1000);
  Pool.parallelFor(0, Seen.size(), [&](size_t I) { ++Seen[I]; });
  for (size_t I = 0; I < Seen.size(); ++I)
    EXPECT_EQ(Seen[I].load(), 1) << "index " << I;
}

TEST(ThreadPool, ConcurrentParallelForCallsDoNotWaitOnEachOther) {
  // Regression: wait() used to block on the pool-global in-flight count,
  // so two concurrent parallelFor callers waited on each other's jobs.
  // With per-call completion this must be correct (each caller sees all
  // of its own indices done on return) under heavy interleaving.
  ThreadPool Pool(4);
  constexpr int Callers = 4, Rounds = 25, Range = 64;
  std::vector<std::thread> Threads;
  std::atomic<int> Failures{0};
  for (int C = 0; C < Callers; ++C) {
    Threads.emplace_back([&, C] {
      for (int R = 0; R < Rounds; ++R) {
        std::vector<std::atomic<int>> Seen(Range);
        Pool.parallelFor(0, Range,
                         [&](size_t I) { ++Seen[I]; });
        for (int I = 0; I < Range; ++I)
          if (Seen[I].load() != 1)
            ++Failures;
        (void)C;
      }
    });
  }
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Failures.load(), 0);
}

TEST(ThreadPool, NestedParallelForCompletes) {
  // A parallelFor issued from inside a pool job must finish even when
  // every worker is already busy (the caller claims indices itself).
  ThreadPool Pool(1);
  std::atomic<int> Count{0};
  Pool.parallelFor(0, 4, [&](size_t) {
    Pool.parallelFor(0, 8, [&](size_t) { ++Count; });
  });
  EXPECT_EQ(Count.load(), 32);
}

TEST(AnnotationService, MatchesSingleProgramAnnotate) {
  NeuroVectorizer NV(testConfig());
  ASSERT_TRUE(NV.addTrainingProgram("dot", DotProduct));
  NV.train(128);

  const std::vector<AnnotationRequest> Requests = generatedRequests(16);
  std::vector<AnnotationResult> Results = NV.annotateBatch(Requests);
  ASSERT_EQ(Results.size(), Requests.size());
  for (size_t I = 0; I < Requests.size(); ++I) {
    ASSERT_TRUE(Results[I].Ok) << Results[I].Error;
    EXPECT_EQ(Results[I].Annotated, NV.annotate(Requests[I].Source))
        << Requests[I].Name;
  }
}

TEST(AnnotationService, CacheHitsAreCorrectAndCounted) {
  NeuroVectorizer NV(testConfig());
  AnnotationService &Service = NV.service();
  const CounterDelta Misses("serve.cache_misses");
  const CounterDelta Hits("serve.cache_hits");

  const AnnotationResult First = Service.annotateOne("dot", DotProduct);
  ASSERT_TRUE(First.Ok);
  EXPECT_EQ(First.CachedSites, 0);
  EXPECT_EQ(Misses(), 1u);

  const AnnotationResult Second = Service.annotateOne("dot", DotProduct);
  ASSERT_TRUE(Second.Ok);
  EXPECT_EQ(Second.CachedSites, 1);
  EXPECT_EQ(Hits(), 1u);
  EXPECT_EQ(Second.Annotated, First.Annotated);
  ASSERT_EQ(Second.Plans.size(), First.Plans.size());
  EXPECT_EQ(Second.Plans[0], First.Plans[0]);
}

TEST(AnnotationService, DeduplicatesIdenticalLoopsWithinBatch) {
  NeuroVectorizer NV(testConfig());
  AnnotationService &Service = NV.service();
  const CounterDelta ForwardPasses("serve.forward_passes");
  const CounterDelta ForwardRows("serve.forward_rows");
  const CounterDelta Misses("serve.cache_misses");
  const CounterDelta Hits("serve.cache_hits");
  const CounterDelta DedupHits("serve.dedup_hits");

  std::vector<AnnotationRequest> Requests(10, {"dot", DotProduct});
  std::vector<AnnotationResult> Results = Service.annotateBatch(Requests);
  // Ten identical programs, one distinct loop: a single forward row, the
  // other nine sites served by intra-batch dedup.
  EXPECT_EQ(ForwardPasses(), 1u);
  EXPECT_EQ(ForwardRows(), 1u);
  EXPECT_EQ(Misses(), 1u);
  EXPECT_EQ(DedupHits(), 9u);
  // Hit rate: lookups answered without a fresh forward row.
  const double Answered = static_cast<double>(Hits() + DedupHits());
  EXPECT_GT(Answered / (Answered + static_cast<double>(Misses())), 0.85);
  for (const AnnotationResult &Res : Results) {
    ASSERT_TRUE(Res.Ok);
    EXPECT_EQ(Res.Annotated, Results.front().Annotated);
  }
}

TEST(AnnotationService, RejectsBadProgramsWithoutPoisoningBatch) {
  NeuroVectorizer NV(testConfig());
  const CounterDelta Rejected("serve.programs_rejected");
  std::vector<AnnotationRequest> Requests = {
      {"good", DotProduct},
      {"broken", "int 3x;"},
      {"noloops", "int x; void f() { x = 1; }"},
  };
  std::vector<AnnotationResult> Results = NV.annotateBatch(Requests);
  EXPECT_TRUE(Results[0].Ok);
  EXPECT_FALSE(Results[1].Ok);
  EXPECT_NE(Results[1].Error.find("parse"), std::string::npos);
  EXPECT_FALSE(Results[2].Ok);
  EXPECT_NE(Results[2].Error.find("no vectorizable"), std::string::npos);
  EXPECT_EQ(Rejected(), 2u);
}

TEST(AnnotationService, PoolSizeNeverChangesResults) {
  NeuroVectorizer NV(testConfig());
  ASSERT_TRUE(NV.addTrainingProgram("dot", DotProduct));
  NV.train(128);
  const std::vector<AnnotationRequest> Requests = generatedRequests(32);

  std::vector<std::string> Reference;
  for (int Threads : {1, 2, 8}) {
    ServeConfig Serve;
    Serve.Threads = Threads;
    std::vector<AnnotationResult> Results =
        NV.service(Serve).annotateBatch(Requests);
    if (Reference.empty()) {
      for (const AnnotationResult &Res : Results) {
        ASSERT_TRUE(Res.Ok) << Res.Error;
        Reference.push_back(Res.Annotated);
      }
      continue;
    }
    for (size_t I = 0; I < Results.size(); ++I)
      EXPECT_EQ(Results[I].Annotated, Reference[I])
          << "threads=" << Threads << " request " << I;
  }
}

TEST(AnnotationService, ConcurrentAnnotateBatchStress) {
  // Several client threads hammer one shared service with overlapping
  // batches (shared model lock, shared cache, shared pool). Every result
  // must match the single-threaded reference — and with the per-call
  // completion latch, no caller can return while its own phase work is
  // still running (which would show up here as missing annotations).
  NeuroVectorizer NV(testConfig());
  ASSERT_TRUE(NV.addTrainingProgram("dot", DotProduct));
  NV.train(128);

  const std::vector<AnnotationRequest> Requests = generatedRequests(24);
  std::vector<std::string> Reference;
  for (const AnnotationRequest &Req : Requests)
    Reference.push_back(NV.annotate(Req.Source));

  ServeConfig Serve;
  Serve.Threads = 4;
  AnnotationService &Service = NV.service(Serve);
  const CounterDelta Hits("serve.cache_hits");

  constexpr int Clients = 4, Rounds = 8;
  std::atomic<int> Mismatches{0};
  std::vector<std::thread> Threads;
  for (int C = 0; C < Clients; ++C) {
    Threads.emplace_back([&, C] {
      // Each client rotates through a different slice so batches overlap
      // without being identical.
      for (int R = 0; R < Rounds; ++R) {
        std::vector<AnnotationRequest> Slice;
        for (size_t I = C % 3; I < Requests.size(); I += 2)
          Slice.push_back(Requests[I]);
        std::vector<AnnotationResult> Results =
            Service.annotateBatch(Slice);
        for (size_t I = 0; I < Slice.size(); ++I) {
          const size_t Orig = (C % 3) + 2 * I;
          if (!Results[I].Ok || Results[I].Annotated != Reference[Orig])
            ++Mismatches;
        }
      }
    });
  }
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Mismatches.load(), 0);
  EXPECT_GE(Hits(), 1u);
}

TEST(AnnotationService, InnerContextModelRoundTripServesEnvSidePlans) {
  TempModel File("serve_inner_ctx.nvm");

  // A doubly nested loop where inner- and outer-context embeddings truly
  // differ.
  const char *Nested =
      "float A[64][64]; float x[64]; float y[64];\n"
      "void mv() { for (int i = 0; i < 64; i++) { float s = 0;\n"
      "  for (int j = 0; j < 64; j++) { s += A[i][j] * x[j]; }\n"
      "  y[i] = s; } }";

  // Train with the inner-context ablation (§3.3) active.
  NeuroVectorizer Trained(testConfig(/*Seed=*/21));
  Trained.env().setInnerContextOnly(true);
  ASSERT_TRUE(Trained.addTrainingProgram("mv", Nested));
  Trained.train(128);
  ASSERT_TRUE(Trained.save(File.Path));

  // A fresh default (outer-context) instance must pick the setting up
  // from the model file alone.
  NeuroVectorizer Loaded(testConfig(/*Seed=*/22));
  ASSERT_FALSE(Loaded.env().innerContextOnly());
  std::string Error;
  ASSERT_TRUE(Loaded.load(File.Path, &Error)) << Error;
  EXPECT_TRUE(Loaded.env().innerContextOnly());
  EXPECT_TRUE(Loaded.service().innerContextOnly());

  // Env-side greedy plans (the training-side view of this model).
  const std::vector<VectorPlan> EnvPlans = Trained.plansFor(Nested);

  // Serve-side plans from the loaded model must match them exactly; with
  // the pre-fix extraction (always outer) they would be computed from an
  // embedding the model never saw.
  const AnnotationResult Served = Loaded.service().annotateOne("mv", Nested);
  ASSERT_TRUE(Served.Ok) << Served.Error;
  ASSERT_EQ(Served.Plans.size(), EnvPlans.size());
  for (size_t S = 0; S < EnvPlans.size(); ++S)
    EXPECT_EQ(Served.Plans[S], EnvPlans[S]) << "site " << S;

  // And the annotated output must agree with the training-side annotate().
  EXPECT_EQ(Served.Annotated, Trained.annotate(Nested));
}

TEST(AnnotationService, LoadedModelServesIdenticalAnnotations) {
  TempModel File("serve_e2e.nvm");

  NeuroVectorizer Trained(testConfig(/*Seed=*/7));
  ASSERT_TRUE(Trained.addTrainingProgram("dot", DotProduct));
  Trained.train(256);
  ASSERT_TRUE(Trained.save(File.Path));

  NeuroVectorizer Fresh(testConfig(/*Seed=*/8));
  std::string Error;
  ASSERT_TRUE(Fresh.load(File.Path, &Error)) << Error;

  const std::vector<AnnotationRequest> Requests = generatedRequests(24);
  std::vector<AnnotationResult> A = Trained.annotateBatch(Requests);
  std::vector<AnnotationResult> B = Fresh.annotateBatch(Requests);
  for (size_t I = 0; I < Requests.size(); ++I) {
    ASSERT_TRUE(A[I].Ok && B[I].Ok);
    EXPECT_EQ(A[I].Annotated, B[I].Annotated) << Requests[I].Name;
  }
}

TEST(AnnotationService, ExistingServiceAnswersFromLaterTrainAndLoad) {
  // A service built by NeuroVectorizer::service() borrows the facade's
  // embedder and policy, so after train() or load() it must answer from
  // the new weights, not from plans cached under the old ones.
  const std::vector<AnnotationRequest> Requests = generatedRequests(12);
  auto ExpectSamePlans = [&](const std::vector<AnnotationResult> &A,
                             const std::vector<AnnotationResult> &B) {
    ASSERT_EQ(A.size(), Requests.size());
    ASSERT_EQ(B.size(), Requests.size());
    for (size_t I = 0; I < Requests.size(); ++I) {
      ASSERT_TRUE(A[I].Ok && B[I].Ok) << Requests[I].Name;
      EXPECT_EQ(A[I].Plans, B[I].Plans) << Requests[I].Name;
    }
  };
  ServeConfig Serve;
  Serve.Threads = 2;

  NeuroVectorizer NV(testConfig(/*Seed=*/22));
  ASSERT_TRUE(NV.addTrainingProgram("dot", DotProduct));
  NV.train(128);
  NV.service(Serve).annotateBatch(Requests); // Warm the plan cache.
  NeuroVectorizer Mirror(testConfig(/*Seed=*/22)); // Same run, never served.
  ASSERT_TRUE(Mirror.addTrainingProgram("dot", DotProduct));
  Mirror.train(128);
  NV.train(128);
  Mirror.train(128);
  ExpectSamePlans(NV.annotateBatch(Requests), Mirror.annotateBatch(Requests));

  TempModel File("serve_load_into_service.nvm");
  ASSERT_TRUE(Mirror.save(File.Path));
  NeuroVectorizer Fresh(testConfig(/*Seed=*/23));
  Fresh.service(Serve).annotateBatch(Requests); // Untrained weights' plans.
  std::string Error;
  ASSERT_TRUE(Fresh.load(File.Path, &Error)) << Error;
  ExpectSamePlans(Fresh.annotateBatch(Requests),
                  Mirror.annotateBatch(Requests));
}

TEST(AnnotationService, PerRequestMethodOverrideSelectsBackend) {
  NeuroVectorizer NV(testConfig());
  ASSERT_TRUE(NV.addTrainingProgram("dot", DotProduct));
  NV.train(128);
  NV.fitSupervised(/*MaxSamples=*/1);
  AnnotationService &Service = NV.service();
  std::vector<CounterDelta> MethodLoops;
  for (int M = 0; M < NumPredictMethods; ++M)
    MethodLoops.emplace_back(std::string("serve.method.") +
                             methodName(static_cast<PredictMethod>(M)) +
                             ".loops");
  const CounterDelta NNSMisses("serve.method.nns.misses");

  // One batch, every backend: each request must be answered by exactly
  // the backend it names, matching the facade's single-program path.
  std::vector<AnnotationRequest> Requests = {
      {"rl", DotProduct, PredictMethod::RL},
      {"nns", DotProduct, PredictMethod::NNS},
      {"tree", DotProduct, PredictMethod::DecisionTree},
      {"brute", DotProduct, PredictMethod::BruteForce},
      {"default", DotProduct, std::nullopt}, // ServeConfig default = RL.
  };
  std::vector<AnnotationResult> Results = Service.annotateBatch(Requests);
  for (size_t I = 0; I < Requests.size(); ++I)
    ASSERT_TRUE(Results[I].Ok) << Results[I].Error;
  const PredictMethod Expect[] = {PredictMethod::RL, PredictMethod::NNS,
                                  PredictMethod::DecisionTree,
                                  PredictMethod::BruteForce,
                                  PredictMethod::RL};
  for (size_t I = 0; I < Requests.size(); ++I) {
    EXPECT_EQ(Results[I].Method, Expect[I]);
    ASSERT_EQ(Results[I].Plans.size(), 1u);
    EXPECT_EQ(Results[I].Plans[0], NV.plansFor(DotProduct, Expect[I])[0])
        << Requests[I].Name;
  }
  // The default-method request deduped against the explicit RL one.
  EXPECT_EQ(Results[4].Annotated, Results[0].Annotated);

  // Per-backend counters saw exactly their own traffic.
  std::vector<uint64_t> Loops;
  for (const CounterDelta &D : MethodLoops)
    Loops.push_back(D());
  // Indexed by PredictMethod: baseline, rl, nns, tree, random, brute force.
  EXPECT_EQ(Loops, (std::vector<uint64_t>{0, 2, 1, 1, 0, 1}));
  EXPECT_EQ(NNSMisses(), 1u);
}

TEST(AnnotationService, BackendsNeverAnswerForEachOther) {
  NeuroVectorizer NV(testConfig());
  ASSERT_TRUE(NV.addTrainingProgram("dot", DotProduct));
  NV.train(128);
  NV.fitSupervised(/*MaxSamples=*/1);
  AnnotationService &Service = NV.service();
  const CounterDelta BFHits("serve.method.bruteforce.cache_hits");

  // Warm the cache with the RL answer, then ask for brute force: the
  // method is part of the cache key, so the second request must compute
  // rather than hit.
  const AnnotationResult RL =
      Service.annotateOne("dot", DotProduct, PredictMethod::RL);
  ASSERT_TRUE(RL.Ok);
  const AnnotationResult BF =
      Service.annotateOne("dot", DotProduct, PredictMethod::BruteForce);
  ASSERT_TRUE(BF.Ok);
  EXPECT_EQ(BF.CachedSites, 0);
  EXPECT_EQ(BFHits(), 0u);
  // And the brute-force answer itself is cached under its own key.
  const AnnotationResult BF2 =
      Service.annotateOne("dot", DotProduct, PredictMethod::BruteForce);
  EXPECT_EQ(BF2.CachedSites, 1);
  ASSERT_EQ(BF2.Plans.size(), 1u);
  EXPECT_EQ(BF2.Plans[0], BF.Plans[0]);
}

TEST(AnnotationService, UnfittedBackendDegradesDownTheLadder) {
  // Default config: the fallback ladder is on, so a request for an
  // unfitted supervised backend walks NNS -> tree (also unfitted) ->
  // baseline cost model and succeeds, flagged Degraded.
  NeuroVectorizer NV(testConfig());
  AnnotationService &Service = NV.service();
  const CounterDelta Degraded("serve.degraded_requests");
  const CounterDelta Rejected("serve.programs_rejected");
  const AnnotationResult Res =
      Service.annotateOne("dot", DotProduct, PredictMethod::NNS);
  EXPECT_TRUE(Res.Ok) << Res.Error;
  EXPECT_TRUE(Res.Degraded);
  EXPECT_EQ(Res.Method, PredictMethod::Baseline);
  EXPECT_EQ(Degraded(), 1u);
  EXPECT_EQ(Rejected(), 0u);
  // A healthy backend answers undegraded.
  const AnnotationResult RL =
      Service.annotateOne("dot", DotProduct, PredictMethod::RL);
  EXPECT_TRUE(RL.Ok);
  EXPECT_FALSE(RL.Degraded);
  EXPECT_EQ(RL.Method, PredictMethod::RL);
}

TEST(AnnotationService, UnfittedBackendRejectsPolitelyWhenStrict) {
  // Fallback off restores the strict contract: unavailable backend ->
  // per-request error, never a silent ladder walk.
  NeuroVectorizer NV(testConfig());
  ServeConfig Strict;
  Strict.Fallback = false;
  AnnotationService &Service = NV.service(Strict);
  const CounterDelta Rejected("serve.programs_rejected");
  const AnnotationResult Res =
      Service.annotateOne("dot", DotProduct, PredictMethod::NNS);
  EXPECT_FALSE(Res.Ok);
  EXPECT_NE(Res.Error.find("not fitted"), std::string::npos) << Res.Error;
  EXPECT_EQ(Rejected(), 1u);
  // The rejection must not poison later, valid requests.
  const AnnotationResult RL =
      Service.annotateOne("dot", DotProduct, PredictMethod::RL);
  EXPECT_TRUE(RL.Ok);
}

TEST(AnnotationService, RefittingSupervisedBackendsInvalidatesPlanCache) {
  NeuroVectorizer NV(testConfig());
  ASSERT_TRUE(NV.addTrainingProgram("dot", DotProduct));
  NV.train(128);
  NV.fitSupervised(/*MaxSamples=*/1);
  AnnotationService &Service = NV.service();

  ASSERT_TRUE(Service.annotateOne("dot", DotProduct,
                                  PredictMethod::NNS).Ok);
  EXPECT_EQ(Service.cacheSize(), 1u);
  // Refitting replaces the backends; plans cached from the old fit must
  // not survive to answer for the new one.
  NV.fitSupervised(/*MaxSamples=*/1);
  EXPECT_EQ(Service.cacheSize(), 0u);
  const AnnotationResult After =
      Service.annotateOne("dot", DotProduct, PredictMethod::NNS);
  ASSERT_TRUE(After.Ok);
  EXPECT_EQ(After.CachedSites, 0);
}

TEST(AnnotationService, RandomBackendIsServedButNeverCached) {
  NeuroVectorizer NV(testConfig());
  AnnotationService &Service = NV.service();
  const CounterDelta RandomLoops("serve.method.random.loops");
  const size_t CacheBefore = Service.cacheSize();
  for (int I = 0; I < 4; ++I) {
    const AnnotationResult Res =
        Service.annotateOne("dot", DotProduct, PredictMethod::Random);
    ASSERT_TRUE(Res.Ok) << Res.Error;
    EXPECT_EQ(Res.CachedSites, 0);
  }
  // Random plans never enter the plan cache (two requests for the same
  // loop are two independent draws).
  EXPECT_EQ(Service.cacheSize(), CacheBefore);
  EXPECT_EQ(RandomLoops(), 4u);
}

} // namespace
