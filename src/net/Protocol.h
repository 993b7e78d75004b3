//===- net/Protocol.h - Length-prefixed annotation wire format --*- C++ -*-===//
//
// Part of the NeuroVectorizer reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compact binary protocol the annotation daemon speaks. Frames are
/// length-prefixed so a stream reader always knows how many bytes to
/// wait for before touching the payload, and every frame is independent
/// (no connection state beyond the byte stream), so pipelining requests
/// on one connection is legal.
///
///   request:  u32 magic 'NVRP' | u8 verb | u32 bodyLen | body
///   response: u32 magic 'NVRP' | u8 verb | u8 status | u32 bodyLen | body
///
/// Verbs: ping (liveness, empty bodies), annotate (a batch of programs,
/// each with an optional PredictMethod override, plus a relative
/// deadline), statsz (returns the live model generation, server and
/// breaker status, and the full telemetry snapshot, whose counters hold
/// every serving count, as one JSON document), and
/// reload (hot-swaps the serving model to a v3 model file, zero
/// downtime; the response carries the new generation).
///
/// Status codes tell clients what to *do*: OVERLOADED means back off and
/// retry (admission control shed the request before it cost anything),
/// SHUTTING_DOWN means this daemon is draining — reconnect elsewhere,
/// RELOAD_FAILED means the pushed file was rejected and the old model
/// still serves, DEADLINE_EXCEEDED means the request sat past its own
/// budget. BAD_REQUEST/PARSE_ERROR are frame- and body-level malformed
/// input. Error bodies carry `u32 len | message`.
///
/// DEGRADED contract: inside an Ok annotate response, each result leads
/// with a status byte — 0 error, 1 ok, 2 ok-degraded. Degraded means the
/// requested predictor backend was unavailable (unfitted, failing, or
/// circuit-broken) and the plans came from a lower rung of the fallback
/// ladder (RL → tree → baseline cost model → identity). The plans are
/// still legal and usable; the flag tells the client the quality tier
/// dropped so it can re-request later or route elsewhere. The `Method`
/// byte in a degraded result names the backend that actually answered.
///
/// Multi-byte integers are host-endian (the daemon serves loopback /
/// same-arch fleets; both reference clients — net/Client.h and
/// tools/nv_client.py — match). All lengths are validated against the
/// enclosing frame, so truncated or hostile bodies fail decode cleanly.
///
//===----------------------------------------------------------------------===//

#ifndef NV_NET_PROTOCOL_H
#define NV_NET_PROTOCOL_H

#include "predictors/Predictor.h"
#include "serve/AnnotationService.h"

#include <cstdint>
#include <string>
#include <vector>

namespace nv {
namespace net {

/// 'NVRP' — NeuroVectorizer Remote Protocol.
constexpr uint32_t FrameMagic = 0x4E565250;

/// Hard ceiling on a frame body (64 MiB): a hostile or corrupt length
/// prefix must not make the server allocate unbounded memory.
constexpr uint32_t MaxFrameBody = 64u << 20;

constexpr size_t RequestHeaderSize = 9;   ///< magic + verb + bodyLen.
constexpr size_t ResponseHeaderSize = 10; ///< ... + status.

enum class Verb : uint8_t {
  Ping = 0,
  Annotate = 1,
  Statsz = 2,
  Reload = 3,
};
constexpr uint8_t NumVerbs = 4;

enum class WireStatus : uint8_t {
  Ok = 0,
  BadRequest = 1,       ///< Malformed frame or body.
  ParseError = 2,       ///< Body framing decoded but contents invalid.
  Overloaded = 3,       ///< Shed by admission control; retry with backoff.
  ShuttingDown = 4,     ///< Daemon is draining; reconnect elsewhere.
  ReloadFailed = 5,     ///< Model file rejected; old model still serves.
  DeadlineExceeded = 6, ///< Request outlived its own deadline budget.
  Error = 7,            ///< Internal failure.
};

/// Stable lowercase name ("ok", "overloaded", ...) for logs and JSON.
const char *statusName(WireStatus Status);

/// Parsed request/response headers.
struct RequestHeader {
  Verb V = Verb::Ping;
  uint32_t BodyLen = 0;
};
struct ResponseHeader {
  Verb V = Verb::Ping;
  WireStatus Status = WireStatus::Ok;
  uint32_t BodyLen = 0;
};

/// Header codecs. parse* requires at least the header size of \p Size
/// bytes and validates magic, verb range, and the body-length ceiling.
void appendRequestHeader(std::vector<char> &Out, Verb V, uint32_t BodyLen);
void appendResponseHeader(std::vector<char> &Out, Verb V, WireStatus Status,
                          uint32_t BodyLen);
bool parseRequestHeader(const char *Data, size_t Size, RequestHeader &Out);
bool parseResponseHeader(const char *Data, size_t Size, ResponseHeader &Out);

/// One program inside an annotate request.
struct WireProgram {
  std::string Name;
  std::string Source;
  bool HasMethod = false; ///< False: server's default backend.
  PredictMethod Method = PredictMethod::RL;
};

/// Annotate request body: a relative deadline (microseconds from server
/// receipt; 0 = none) and the batch.
struct AnnotateRequestBody {
  uint64_t DeadlineMicros = 0;
  std::vector<WireProgram> Programs;
};

/// One annotated program inside an annotate response.
struct WireResult {
  std::string Name;
  bool Ok = false;
  bool Degraded = false; ///< Ok, but from a fallback-ladder backend.
  PredictMethod Method = PredictMethod::RL;
  uint32_t CachedSites = 0;
  std::vector<VectorPlan> Plans;
  std::string Annotated; ///< Ok only.
  std::string Error;     ///< !Ok only.
};

/// Annotate response body. Generation is the model generation that
/// answered the whole batch (every result in one response comes from
/// exactly one generation — the hot-reload consistency contract).
struct AnnotateResponseBody {
  uint64_t Generation = 0;
  std::vector<WireResult> Results;
};

/// Body codecs. Encoders return a complete frame (header included);
/// decoders take the body only and reject any length that escapes it.
std::vector<char> encodePingRequest();
std::vector<char> encodeStatszRequest();
std::vector<char> encodeAnnotateRequest(const AnnotateRequestBody &Body);
std::vector<char> encodeReloadRequest(const std::string &Path);

bool decodeAnnotateRequest(const char *Body, size_t Size,
                           AnnotateRequestBody &Out);
bool decodeReloadRequest(const char *Body, size_t Size, std::string &Path);

/// Annotate response straight from the service's results.
std::vector<char>
encodeAnnotateResponse(uint64_t Generation,
                       const std::vector<AnnotationResult> &Results);
bool decodeAnnotateResponse(const char *Body, size_t Size,
                            AnnotateResponseBody &Out);

/// Generic responses: empty body, `u32 len | string` body (error
/// messages, statsz JSON), and the reload-success body (u64 generation).
std::vector<char> encodeEmptyResponse(Verb V, WireStatus Status);
std::vector<char> encodeStringResponse(Verb V, WireStatus Status,
                                       const std::string &Payload);
std::vector<char> encodeReloadOkResponse(uint64_t Generation);
bool decodeStringBody(const char *Body, size_t Size, std::string &Out);
bool decodeReloadOkBody(const char *Body, size_t Size, uint64_t &Generation);

} // namespace net
} // namespace nv

#endif // NV_NET_PROTOCOL_H
