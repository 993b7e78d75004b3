//===- tests/TelemetryTest.cpp - metrics, histograms, tracing tests --------===//
//
// Covers the observability layer: the log-bucketed histogram's pinned
// bucket layout and percentile contract, shard-merge equivalence and
// concurrent-recorder totals, the trace ring (nesting, wrap without
// tearing, chrome://tracing export), the JSON emitters, all-or-nothing
// counter publication, and the end-to-end serve wiring.
//
//===----------------------------------------------------------------------===//

#include "TestCounters.h"
#include "core/NeuroVectorizer.h"
#include "dataset/LoopGenerator.h"
#include "support/RNG.h"
#include "support/Telemetry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

using namespace nv;

namespace {

// --- A minimal strict JSON parser (validation only) ----------------------
// Enough of RFC 8259 to prove our emitters produce well-formed documents:
// parses the full grammar, rejects trailing garbage, trailing commas, and
// unescaped control characters.
namespace minijson {

void skipWs(const std::string &S, size_t &I) {
  while (I < S.size() && (S[I] == ' ' || S[I] == '\t' || S[I] == '\n' ||
                          S[I] == '\r'))
    ++I;
}

bool parseValue(const std::string &S, size_t &I);

bool parseString(const std::string &S, size_t &I) {
  if (I >= S.size() || S[I] != '"')
    return false;
  ++I;
  while (I < S.size()) {
    const unsigned char C = static_cast<unsigned char>(S[I]);
    if (C == '"') {
      ++I;
      return true;
    }
    if (C < 0x20)
      return false; // Unescaped control character.
    if (C == '\\') {
      ++I;
      if (I >= S.size())
        return false;
      const char E = S[I];
      if (E == 'u') {
        for (int K = 0; K < 4; ++K) {
          ++I;
          if (I >= S.size() || !isxdigit(static_cast<unsigned char>(S[I])))
            return false;
        }
      } else if (!strchr("\"\\/bfnrt", E)) {
        return false;
      }
    }
    ++I;
  }
  return false;
}

bool parseNumber(const std::string &S, size_t &I) {
  const size_t Start = I;
  if (I < S.size() && S[I] == '-')
    ++I;
  if (I >= S.size() || !isdigit(static_cast<unsigned char>(S[I])))
    return false;
  while (I < S.size() && isdigit(static_cast<unsigned char>(S[I])))
    ++I;
  if (I < S.size() && S[I] == '.') {
    ++I;
    if (I >= S.size() || !isdigit(static_cast<unsigned char>(S[I])))
      return false;
    while (I < S.size() && isdigit(static_cast<unsigned char>(S[I])))
      ++I;
  }
  if (I < S.size() && (S[I] == 'e' || S[I] == 'E')) {
    ++I;
    if (I < S.size() && (S[I] == '+' || S[I] == '-'))
      ++I;
    if (I >= S.size() || !isdigit(static_cast<unsigned char>(S[I])))
      return false;
    while (I < S.size() && isdigit(static_cast<unsigned char>(S[I])))
      ++I;
  }
  return I > Start;
}

bool parseObject(const std::string &S, size_t &I) {
  ++I; // '{'
  skipWs(S, I);
  if (I < S.size() && S[I] == '}') {
    ++I;
    return true;
  }
  for (;;) {
    skipWs(S, I);
    if (!parseString(S, I))
      return false;
    skipWs(S, I);
    if (I >= S.size() || S[I] != ':')
      return false;
    ++I;
    if (!parseValue(S, I))
      return false;
    skipWs(S, I);
    if (I < S.size() && S[I] == ',') {
      ++I;
      continue;
    }
    if (I < S.size() && S[I] == '}') {
      ++I;
      return true;
    }
    return false;
  }
}

bool parseArray(const std::string &S, size_t &I) {
  ++I; // '['
  skipWs(S, I);
  if (I < S.size() && S[I] == ']') {
    ++I;
    return true;
  }
  for (;;) {
    if (!parseValue(S, I))
      return false;
    skipWs(S, I);
    if (I < S.size() && S[I] == ',') {
      ++I;
      continue;
    }
    if (I < S.size() && S[I] == ']') {
      ++I;
      return true;
    }
    return false;
  }
}

bool parseValue(const std::string &S, size_t &I) {
  skipWs(S, I);
  if (I >= S.size())
    return false;
  switch (S[I]) {
  case '{':
    return parseObject(S, I);
  case '[':
    return parseArray(S, I);
  case '"':
    return parseString(S, I);
  case 't':
    if (S.compare(I, 4, "true") == 0) {
      I += 4;
      return true;
    }
    return false;
  case 'f':
    if (S.compare(I, 5, "false") == 0) {
      I += 5;
      return true;
    }
    return false;
  case 'n':
    if (S.compare(I, 4, "null") == 0) {
      I += 4;
      return true;
    }
    return false;
  default:
    return parseNumber(S, I);
  }
}

/// Whole-document validation: one value, nothing after it.
bool valid(const std::string &S) {
  size_t I = 0;
  if (!parseValue(S, I))
    return false;
  skipWs(S, I);
  return I == S.size();
}

} // namespace minijson

size_t countOccurrences(const std::string &Haystack,
                        const std::string &Needle) {
  size_t Count = 0;
  for (size_t Pos = Haystack.find(Needle); Pos != std::string::npos;
       Pos = Haystack.find(Needle, Pos + Needle.size()))
    ++Count;
  return Count;
}

// --- Histogram layout and percentile contract ----------------------------

TEST(Histogram, BucketBoundsRoundTripAndTile) {
  // Every bucket's own bounds map back to it, and consecutive buckets
  // tile the value space with no gaps or overlaps.
  for (size_t I = 0; I < HistogramLayout::SubBuckets + 20 * 16; ++I) {
    EXPECT_EQ(HistogramLayout::bucketOf(HistogramLayout::lowerBound(I)), I);
    EXPECT_EQ(HistogramLayout::bucketOf(HistogramLayout::upperBound(I)), I);
    if (I > 0)
      EXPECT_EQ(HistogramLayout::lowerBound(I),
                HistogramLayout::upperBound(I - 1) + 1);
  }
  // Spot values around a power-of-two boundary.
  EXPECT_EQ(HistogramLayout::bucketOf(31), 31u);
  EXPECT_EQ(HistogramLayout::bucketOf(32), 32u);
  EXPECT_EQ(HistogramLayout::bucketOf(33), 32u); // [32,33] share a bucket.
  EXPECT_EQ(HistogramLayout::bucketOf(UINT64_MAX),
            HistogramLayout::NumBuckets - 1);
}

TEST(Histogram, SmallValuesAreExact) {
  Histogram H;
  for (uint64_t V = 0; V < HistogramLayout::SubBuckets; ++V)
    H.record(V);
  // Unit buckets below SubBuckets: every quantile is an exact sample.
  EXPECT_EQ(H.percentile(0.50), 15u); // rank 16 of 0..31.
  EXPECT_EQ(H.percentile(1.00), 31u);
  EXPECT_EQ(H.min(), 0u);
  EXPECT_EQ(H.max(), 31u);
}

TEST(Histogram, PinnedPercentilesOneToHundred) {
  // The acceptance pin: 1..100 recorded once each reports these exact
  // values (upper bucket bounds, clamped to the observed max).
  Histogram H;
  for (uint64_t V = 1; V <= 100; ++V)
    H.record(V);
  EXPECT_EQ(H.count(), 100u);
  EXPECT_EQ(H.sum(), 5050u);
  EXPECT_EQ(H.min(), 1u);
  EXPECT_EQ(H.max(), 100u);
  EXPECT_EQ(H.percentile(0.50), 51u);
  EXPECT_EQ(H.percentile(0.90), 91u);
  EXPECT_EQ(H.percentile(0.99), 99u);
  EXPECT_EQ(H.percentile(0.999), 100u);
}

TEST(Histogram, ConstantDatasetExactAtEveryQuantile) {
  Histogram H;
  for (int I = 0; I < 1000; ++I)
    H.record(4242);
  for (double Q : {0.01, 0.5, 0.9, 0.99, 0.999, 1.0})
    EXPECT_EQ(H.percentile(Q), 4242u) << "q=" << Q;
  EXPECT_DOUBLE_EQ(H.mean(), 4242.0);
}

TEST(Histogram, PercentileBoundsVsSortedReference) {
  // Random samples: the reported quantile must bracket the exact one
  // within the layout's 1/16 relative-error bound.
  RNG Rng(2024);
  Histogram H;
  std::vector<uint64_t> Sorted;
  for (int I = 0; I < 20000; ++I) {
    const uint64_t V = Rng.next() % 1000000;
    H.record(V);
    Sorted.push_back(V);
  }
  std::sort(Sorted.begin(), Sorted.end());
  for (double Q : {0.5, 0.9, 0.99, 0.999}) {
    const uint64_t Exact =
        Sorted[static_cast<size_t>(std::ceil(Q * Sorted.size())) - 1];
    const uint64_t Reported = H.percentile(Q);
    EXPECT_GE(Reported, Exact) << "q=" << Q;
    EXPECT_LE(Reported, Exact + Exact / 16 + 1) << "q=" << Q;
  }
}

TEST(Histogram, MergeOfShardsEqualsSerialRecording) {
  // The same multiset recorded serially into a plain histogram and
  // concurrently into the sharded one must merge to identical state.
  constexpr int Threads = 8, PerThread = 5000;
  Histogram Serial;
  for (int T = 0; T < Threads; ++T)
    for (int I = 0; I < PerThread; ++I)
      Serial.record(static_cast<uint64_t>(T) * 1000 + I % 997);

  ShardedHistogram Sharded;
  std::vector<std::thread> Workers;
  for (int T = 0; T < Threads; ++T)
    Workers.emplace_back([&Sharded, T] {
      for (int I = 0; I < PerThread; ++I)
        Sharded.record(static_cast<uint64_t>(T) * 1000 + I % 997);
    });
  for (std::thread &W : Workers)
    W.join();

  EXPECT_TRUE(Sharded.snapshot() == Serial);
}

TEST(Histogram, ConcurrentRecorderTotals) {
  constexpr int Threads = 8;
  constexpr uint64_t PerThread = 20000;
  ShardedHistogram H;
  std::vector<std::thread> Workers;
  for (int T = 0; T < Threads; ++T)
    Workers.emplace_back([&H, T] {
      for (uint64_t I = 0; I < PerThread; ++I)
        H.record(static_cast<uint64_t>(T) + 1);
    });
  for (std::thread &W : Workers)
    W.join();
  const Histogram Snap = H.snapshot();
  EXPECT_EQ(Snap.count(), Threads * PerThread);
  // Sum of T*(T+1) over threads, PerThread each: 1+2+...+8 = 36.
  EXPECT_EQ(Snap.sum(), 36 * PerThread);
  EXPECT_EQ(Snap.min(), 1u);
  EXPECT_EQ(Snap.max(), static_cast<uint64_t>(Threads));
}

// --- Trace buffer --------------------------------------------------------

TEST(Trace, SpanNestingIsContained) {
  TraceBuffer TB(64);
  {
    TraceSpan Outer(&TB, "outer", 7);
    for (volatile int I = 0; I < 10000; ++I)
      ;
    TraceSpan Inner(&TB, "inner", 7);
    for (volatile int I = 0; I < 10000; ++I)
      ;
  }
  const std::vector<TraceEvent> Events = TB.snapshot();
  ASSERT_EQ(Events.size(), 2u);
  const TraceEvent *Outer = nullptr, *Inner = nullptr;
  for (const TraceEvent &E : Events) {
    if (std::string(E.Name) == "outer")
      Outer = &E;
    else if (std::string(E.Name) == "inner")
      Inner = &E;
  }
  ASSERT_TRUE(Outer && Inner);
  EXPECT_GE(Inner->TsMicros, Outer->TsMicros);
  EXPECT_LE(Inner->TsMicros + Inner->DurMicros,
            Outer->TsMicros + Outer->DurMicros);
  EXPECT_EQ(Outer->RequestId, 7u);
}

TEST(Trace, RingWrapsWithoutTearingUnderStress) {
  // Small rings, heavy multi-thread traffic, concurrent snapshots. Every
  // recorded event carries a self-consistency invariant (Dur = 2*Req+1,
  // Ts = Req) that a torn read would break.
  constexpr size_t Capacity = 64;
  constexpr int Threads = 4;
  constexpr uint64_t PerThread = 30000;
  TraceBuffer TB(Capacity);
  std::atomic<bool> Stop{false};
  std::atomic<bool> Failed{false};

  std::thread Reader([&] {
    while (!Stop.load()) {
      for (const TraceEvent &E : TB.snapshot()) {
        if (E.DurMicros != 2 * E.RequestId + 1 || E.TsMicros != E.RequestId)
          Failed.store(true);
      }
    }
  });
  std::vector<std::thread> Writers;
  for (int T = 0; T < Threads; ++T)
    Writers.emplace_back([&TB] {
      for (uint64_t K = 0; K < PerThread; ++K)
        TB.record("stress", /*TsMicros=*/K, /*DurMicros=*/2 * K + 1,
                  /*RequestId=*/K);
    });
  for (std::thread &W : Writers)
    W.join();
  Stop.store(true);
  Reader.join();

  EXPECT_FALSE(Failed.load());
  const std::vector<TraceEvent> Final = TB.snapshot();
  EXPECT_LE(Final.size(), Capacity * Threads);
  for (const TraceEvent &E : Final) {
    EXPECT_EQ(E.DurMicros, 2 * E.RequestId + 1);
    EXPECT_EQ(E.TsMicros, E.RequestId);
  }
  // Each ring kept its newest Capacity spans; the rest are counted lost.
  EXPECT_EQ(TB.dropped(), Threads * PerThread - Final.size());

  TB.clear();
  EXPECT_TRUE(TB.snapshot().empty());
}

TEST(Trace, SamplingKnob) {
  TraceBuffer TB;
  EXPECT_EQ(TB.sampleEvery(), 0u);
  for (int I = 0; I < 100; ++I)
    EXPECT_FALSE(TB.shouldSample()); // Off by default.
  TB.setSampleEvery(4);
  int Sampled = 0;
  for (int I = 0; I < 100; ++I)
    Sampled += TB.shouldSample();
  EXPECT_EQ(Sampled, 25);
}

TEST(Trace, NullBufferSpanIsFree) {
  TraceSpan S(nullptr, "nothing"); // Must not crash or record.
}

TEST(Trace, ChromeJsonExportIsWellFormed) {
  TraceBuffer TB(32);
  {
    TraceSpan A(&TB, "phase_a", 1);
    TraceSpan B(&TB, "phase_b", 2);
  }
  TB.record("with \"quotes\"? no — names are literals", 10, 5, 3);

  std::ostringstream OS;
  TB.exportChromeJson(OS);
  const std::string Doc = OS.str();

  // Round-trip: the document parses, declares the trace-event envelope,
  // and carries one complete ("ph":"X") event per retained span.
  EXPECT_TRUE(minijson::valid(Doc)) << Doc;
  EXPECT_NE(Doc.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(Doc.find("\"traceEvents\""), std::string::npos);
  EXPECT_EQ(countOccurrences(Doc, "\"ph\": \"X\""), TB.snapshot().size());
  EXPECT_EQ(countOccurrences(Doc, "\"args\""), TB.snapshot().size());
}

// --- JSON emitters and the registry --------------------------------------

TEST(Telemetry, JsonLineEscapesAndParses) {
  const std::string Line = JsonLine()
                               .field("text", "quo\"te\\back\nnew\ttab")
                               .field("num", 3.5)
                               .field("count", static_cast<uint64_t>(7))
                               .field("neg", -2)
                               .field("flag", true)
                               .raw("nested", "{\"x\": 1}")
                               .str();
  EXPECT_TRUE(minijson::valid(Line)) << Line;
  EXPECT_NE(Line.find("\\\""), std::string::npos);
  EXPECT_NE(Line.find("\\n"), std::string::npos);
}

TEST(Telemetry, RegistrySnapshotJsonParses) {
  MetricsRegistry Reg;
  Reg.counter("test.requests").add(5);
  Reg.gauge("test.depth").set(2.5);
  ShardedHistogram &H = Reg.histogram("test.latency_us");
  for (uint64_t V = 1; V <= 100; ++V)
    H.record(V);

  const std::string Doc = Reg.snapshotJson();
  EXPECT_TRUE(minijson::valid(Doc)) << Doc;
  EXPECT_NE(Doc.find("\"test.requests\": 5"), std::string::npos);
  // The pinned percentiles surface in the snapshot document.
  EXPECT_NE(Doc.find("\"p50_us\": 51"), std::string::npos);
  EXPECT_NE(Doc.find("\"p99_us\": 99"), std::string::npos);

  // Same instances on re-lookup: hot paths may cache the pointers.
  EXPECT_EQ(&Reg.counter("test.requests"), &Reg.counter("test.requests"));
  EXPECT_EQ(Reg.counter("test.requests").value(), 5u);
}

TEST(Telemetry, ProcessWideSnapshotParses) {
  Telemetry::metrics().counter("test.global").add();
  const std::string Doc = Telemetry::snapshotJson();
  EXPECT_TRUE(minijson::valid(Doc)) << Doc;
  EXPECT_NE(Doc.find("\"trace\""), std::string::npos);
  EXPECT_NE(Doc.find("\"sample_every\""), std::string::npos);
}

TEST(Telemetry, RunLogWritesParseableLines) {
  const std::string Path = ::testing::TempDir() + "nv_runlog_test.jsonl";
  std::remove(Path.c_str());
  {
    RunLog Log(Path);
    ASSERT_TRUE(Log.enabled());
    Log.write(JsonLine().field("event", "batch").field("step", 64));
    Log.write(JsonLine().field("event", "final").field("reward", 0.25));
    EXPECT_EQ(Log.lines(), 2u);
  }
  std::ifstream In(Path);
  std::string Line;
  int Lines = 0;
  while (std::getline(In, Line)) {
    ++Lines;
    EXPECT_TRUE(minijson::valid(Line)) << Line;
  }
  EXPECT_EQ(Lines, 2);
  std::remove(Path.c_str());

  RunLog Disabled("");
  EXPECT_FALSE(Disabled.enabled());
  Disabled.write(JsonLine().field("event", "x")); // No-op, no crash.
}

// --- Batch publication -----------------------------------------------------

TEST(MetricsRegistry, SnapshotSeesPublishesAllOrNothing) {
  // Each publish keeps fixed ratios between its counters; any snapshot
  // that catches one half-applied breaks them.
  MetricsRegistry Reg;
  Counter *const Targets[] = {&Reg.counter("t.batches"),
                              &Reg.counter("t.programs"),
                              &Reg.counter("t.hits"), &Reg.counter("t.misses")};
  const uint64_t Deltas[] = {1, 2, 3, 5};
  std::atomic<bool> Stop{false};
  std::atomic<bool> Failed{false};
  std::atomic<int> Snapshots{0};

  std::thread Reader([&] {
    while (!Stop.load()) {
      const std::string Json = Reg.snapshotJson();
      const uint64_t Batches = counterIn(Json, "t.batches");
      if (counterIn(Json, "t.programs") != 2 * Batches ||
          counterIn(Json, "t.hits") != 3 * Batches ||
          counterIn(Json, "t.misses") != 5 * Batches)
        Failed.store(true);
      ++Snapshots;
    }
  });
  // Writers keep publishing until the reader has looked many times, so
  // the snapshots overlap the publishes.
  std::atomic<uint64_t> Published{0};
  std::vector<std::thread> Writers;
  for (int T = 0; T < 4; ++T)
    Writers.emplace_back([&] {
      for (int I = 0; I < 2000 || Snapshots.load() < 200; ++I) {
        Reg.publish(Targets, Deltas, 4);
        ++Published;
      }
    });
  for (std::thread &W : Writers)
    W.join();
  Stop.store(true);
  Reader.join();

  EXPECT_FALSE(Failed.load());
  const std::string Final = Reg.snapshotJson();
  EXPECT_GE(Published.load(), 8000u);
  EXPECT_EQ(counterIn(Final, "t.batches"), Published.load());
  EXPECT_EQ(counterIn(Final, "t.hits"), 3 * Published.load());
  EXPECT_EQ(counterIn(Final, "t.misses"), 5 * Published.load());
}

TEST(ServeCounters, PerMethodCountsTravelWithBatch) {
  // One batch over three backends: each method's counters move by its own
  // traffic in the batch's publish, and the global lookup counts are the
  // sums of the per-method ones.
  NeuroVectorizerConfig Config;
  Config.Embedding.CodeDim = 16;
  Config.Embedding.TokenDim = 8;
  Config.Embedding.PathDim = 8;
  NeuroVectorizer NV(Config);
  const std::string Source =
      "float x[256]; float y[256]; void s() { for (int i = 0; i < 256; "
      "i++) { y[i] = y[i] + x[i]; } }";
  const std::vector<AnnotationRequest> Requests = {
      {"rl", Source, PredictMethod::RL},
      {"rl-again", Source, PredictMethod::RL},
      {"random", Source, PredictMethod::Random},
      {"baseline", Source, PredictMethod::Baseline}};
  const CounterDelta RLLoops("serve.method.rl.loops");
  const CounterDelta RLMisses("serve.method.rl.misses");
  const CounterDelta RLDedup("serve.method.rl.dedup_hits");
  const CounterDelta RandomLoops("serve.method.random.loops");
  const CounterDelta RandomMisses("serve.method.random.misses");
  const CounterDelta BaselineLoops("serve.method.baseline.loops");
  const CounterDelta BaselineMisses("serve.method.baseline.misses");
  const CounterDelta Hits("serve.cache_hits");
  const CounterDelta DedupHits("serve.dedup_hits");
  const CounterDelta Misses("serve.cache_misses");
  const CounterDelta Served("serve.programs_served");
  const CounterDelta LoopsServed("serve.loops_served");

  for (const AnnotationResult &Res : NV.annotateBatch(Requests))
    ASSERT_TRUE(Res.Ok) << Res.Error;

  EXPECT_EQ(RLLoops(), 2u);
  EXPECT_EQ(RLMisses(), 1u);
  EXPECT_EQ(RLDedup(), 1u);
  EXPECT_EQ(RandomLoops(), 1u);
  EXPECT_EQ(RandomMisses(), 1u);
  EXPECT_EQ(BaselineLoops(), 1u);
  EXPECT_EQ(BaselineMisses(), 1u);
  EXPECT_EQ(Hits(), 0u);
  EXPECT_EQ(DedupHits(), RLDedup());
  EXPECT_EQ(Misses(), RLMisses() + RandomMisses() + BaselineMisses());
  EXPECT_EQ(Served(), 4u);
  EXPECT_EQ(LoopsServed(), 4u);
}

// --- End-to-end serve wiring ----------------------------------------------

TEST(Telemetry, ServePipelineRecordsHistogramsAndSpans) {
  NeuroVectorizerConfig Config;
  Config.PPO.BatchSize = 64;
  Config.PPO.MiniBatchSize = 32;
  Config.Embedding.CodeDim = 16;
  Config.Embedding.TokenDim = 8;
  Config.Embedding.PathDim = 8;
  NeuroVectorizer NV(Config);
  LoopGenerator Gen(11);
  for (const GeneratedLoop &L : Gen.generateMany(4))
    ASSERT_TRUE(NV.addTrainingProgram(L.Name, L.Source));
  NV.train(64);

  // Trace every batch for this test, then restore the default (off).
  Telemetry::trace().clear();
  Telemetry::trace().setSampleEvery(1);

  ShardedHistogram &BatchUs = Telemetry::metrics().histogram("serve.batch_us");
  ShardedHistogram &ParseUs = Telemetry::metrics().histogram("serve.parse_us");
  ShardedHistogram &ExtractUs =
      Telemetry::metrics().histogram("serve.extract_us");
  ShardedHistogram &InferUs = Telemetry::metrics().histogram("serve.infer_us");
  const uint64_t BatchesBefore = BatchUs.snapshot().count();
  const uint64_t ParsesBefore = ParseUs.snapshot().count();
  const uint64_t ExtractsBefore = ExtractUs.snapshot().count();
  const uint64_t InfersBefore = InferUs.snapshot().count();
  const CounterDelta Served("serve.programs_served");

  std::vector<AnnotationRequest> Requests;
  for (const GeneratedLoop &L : Gen.generateMany(6))
    Requests.push_back({L.Name, L.Source});
  ServeConfig Serve;
  Serve.Threads = 2;
  std::vector<AnnotationResult> Results =
      NV.service(Serve).annotateBatch(Requests);
  Telemetry::trace().setSampleEvery(0);

  ASSERT_EQ(Results.size(), Requests.size());
  for (const AnnotationResult &Res : Results)
    EXPECT_TRUE(Res.Ok) << Res.Error;

  // Histograms advanced: one batch, one parse per request.
  EXPECT_EQ(BatchUs.snapshot().count(), BatchesBefore + 1);
  EXPECT_EQ(ExtractUs.snapshot().count(), ExtractsBefore + 1);
  EXPECT_EQ(InferUs.snapshot().count(), InfersBefore + 1);
  EXPECT_EQ(ParseUs.snapshot().count(), ParsesBefore + Requests.size());

  // The trace carries the batch and phase spans, and exports valid
  // chrome://tracing JSON.
  std::vector<TraceEvent> Events = Telemetry::trace().snapshot();
  auto Has = [&Events](const char *Name) {
    for (const TraceEvent &E : Events)
      if (std::string(E.Name) == Name)
        return true;
    return false;
  };
  EXPECT_TRUE(Has("serve.batch"));
  EXPECT_TRUE(Has("serve.extract"));
  EXPECT_TRUE(Has("serve.infer"));
  EXPECT_TRUE(Has("serve.render"));
  EXPECT_TRUE(Has("serve.parse"));

  std::ostringstream OS;
  Telemetry::trace().exportChromeJson(OS);
  EXPECT_TRUE(minijson::valid(OS.str()));

  // The full /statsz-style document stays well-formed with serve data in.
  EXPECT_TRUE(minijson::valid(Telemetry::snapshotJson()));

  EXPECT_EQ(Served(), Requests.size());
}

TEST(Telemetry, ServeTelemetryOffRecordsNothing) {
  NeuroVectorizerConfig Config;
  Config.PPO.BatchSize = 64;
  Config.PPO.MiniBatchSize = 32;
  Config.Embedding.CodeDim = 16;
  Config.Embedding.TokenDim = 8;
  Config.Embedding.PathDim = 8;
  NeuroVectorizer NV(Config);
  LoopGenerator Gen(12);
  for (const GeneratedLoop &L : Gen.generateMany(3))
    ASSERT_TRUE(NV.addTrainingProgram(L.Name, L.Source));
  NV.train(64);

  ShardedHistogram &BatchUs = Telemetry::metrics().histogram("serve.batch_us");
  const uint64_t Before = BatchUs.snapshot().count();
  const CounterDelta Served("serve.programs_served");

  ServeConfig Serve;
  Serve.Threads = 2;
  Serve.Telemetry = false;
  std::vector<AnnotationRequest> Requests;
  for (const GeneratedLoop &L : Gen.generateMany(3))
    Requests.push_back({L.Name, L.Source});
  NV.service(Serve).annotateBatch(Requests);

  EXPECT_EQ(BatchUs.snapshot().count(), Before); // Untouched.
  // The counters are published without telemetry too.
  EXPECT_EQ(Served(), Requests.size());
}

} // namespace
