//===- net/Protocol.cpp - Length-prefixed annotation wire format ----------===//

#include "net/Protocol.h"

#include "support/Wire.h"

using namespace nv;
using namespace nv::net;

const char *net::statusName(WireStatus Status) {
  switch (Status) {
  case WireStatus::Ok:
    return "ok";
  case WireStatus::BadRequest:
    return "bad_request";
  case WireStatus::ParseError:
    return "parse_error";
  case WireStatus::Overloaded:
    return "overloaded";
  case WireStatus::ShuttingDown:
    return "shutting_down";
  case WireStatus::ReloadFailed:
    return "reload_failed";
  case WireStatus::DeadlineExceeded:
    return "deadline_exceeded";
  case WireStatus::Error:
    return "error";
  }
  return "?";
}

void net::appendRequestHeader(std::vector<char> &Out, Verb V,
                              uint32_t BodyLen) {
  wire::appendValue(Out, FrameMagic);
  wire::appendValue(Out, static_cast<uint8_t>(V));
  wire::appendValue(Out, BodyLen);
}

void net::appendResponseHeader(std::vector<char> &Out, Verb V,
                               WireStatus Status, uint32_t BodyLen) {
  wire::appendValue(Out, FrameMagic);
  wire::appendValue(Out, static_cast<uint8_t>(V));
  wire::appendValue(Out, static_cast<uint8_t>(Status));
  wire::appendValue(Out, BodyLen);
}

bool net::parseRequestHeader(const char *Data, size_t Size,
                             RequestHeader &Out) {
  size_t Offset = 0;
  uint32_t Magic = 0;
  uint8_t V = 0;
  if (!wire::readValue(Data, Size, Offset, Magic) ||
      !wire::readValue(Data, Size, Offset, V) ||
      !wire::readValue(Data, Size, Offset, Out.BodyLen))
    return false;
  if (Magic != FrameMagic || V >= NumVerbs || Out.BodyLen > MaxFrameBody)
    return false;
  Out.V = static_cast<Verb>(V);
  return true;
}

bool net::parseResponseHeader(const char *Data, size_t Size,
                              ResponseHeader &Out) {
  size_t Offset = 0;
  uint32_t Magic = 0;
  uint8_t V = 0;
  uint8_t Status = 0;
  if (!wire::readValue(Data, Size, Offset, Magic) ||
      !wire::readValue(Data, Size, Offset, V) ||
      !wire::readValue(Data, Size, Offset, Status) ||
      !wire::readValue(Data, Size, Offset, Out.BodyLen))
    return false;
  if (Magic != FrameMagic || V >= NumVerbs ||
      Status > static_cast<uint8_t>(WireStatus::Error) ||
      Out.BodyLen > MaxFrameBody)
    return false;
  Out.V = static_cast<Verb>(V);
  Out.Status = static_cast<WireStatus>(Status);
  return true;
}

namespace {

void appendString32(std::vector<char> &Out, const std::string &S) {
  wire::appendValue(Out, static_cast<uint32_t>(S.size()));
  wire::appendBytes(Out, S.data(), S.size());
}

bool readString32(const char *Data, size_t Size, size_t &Offset,
                  std::string &Out) {
  uint32_t Len = 0;
  if (!wire::readValue(Data, Size, Offset, Len))
    return false;
  if (Offset + Len > Size)
    return false;
  Out.assign(Data + Offset, Len);
  Offset += Len;
  return true;
}

/// Frames \p Body (already encoded) under a request header.
std::vector<char> frameRequest(Verb V, std::vector<char> Body) {
  std::vector<char> Out;
  Out.reserve(RequestHeaderSize + Body.size());
  appendRequestHeader(Out, V, static_cast<uint32_t>(Body.size()));
  Out.insert(Out.end(), Body.begin(), Body.end());
  return Out;
}

/// Frames \p Body (already encoded) under a response header.
std::vector<char> frameResponse(Verb V, WireStatus Status,
                                std::vector<char> Body) {
  std::vector<char> Out;
  Out.reserve(ResponseHeaderSize + Body.size());
  appendResponseHeader(Out, V, Status, static_cast<uint32_t>(Body.size()));
  Out.insert(Out.end(), Body.begin(), Body.end());
  return Out;
}

} // namespace

std::vector<char> net::encodePingRequest() {
  return frameRequest(Verb::Ping, {});
}

std::vector<char> net::encodeStatszRequest() {
  return frameRequest(Verb::Statsz, {});
}

std::vector<char>
net::encodeAnnotateRequest(const AnnotateRequestBody &Body) {
  std::vector<char> B;
  wire::appendValue(B, Body.DeadlineMicros);
  wire::appendValue(B, static_cast<uint32_t>(Body.Programs.size()));
  for (const WireProgram &P : Body.Programs) {
    wire::appendValue(B, static_cast<uint8_t>(P.HasMethod ? 1 : 0));
    wire::appendValue(B, static_cast<uint8_t>(P.Method));
    appendString32(B, P.Name);
    appendString32(B, P.Source);
  }
  return frameRequest(Verb::Annotate, std::move(B));
}

bool net::decodeAnnotateRequest(const char *Body, size_t Size,
                                AnnotateRequestBody &Out) {
  size_t Offset = 0;
  uint32_t Count = 0;
  if (!wire::readValue(Body, Size, Offset, Out.DeadlineMicros) ||
      !wire::readValue(Body, Size, Offset, Count))
    return false;
  // Each program costs at least 10 body bytes; reject counts the body
  // cannot possibly hold before reserving anything.
  if (Count > (Size - Offset) / 10)
    return false;
  Out.Programs.clear();
  Out.Programs.reserve(Count);
  for (uint32_t I = 0; I < Count; ++I) {
    WireProgram P;
    uint8_t HasMethod = 0;
    uint8_t Method = 0;
    if (!wire::readValue(Body, Size, Offset, HasMethod) ||
        !wire::readValue(Body, Size, Offset, Method))
      return false;
    if (HasMethod > 1 || Method >= NumPredictMethods)
      return false;
    P.HasMethod = HasMethod != 0;
    P.Method = static_cast<PredictMethod>(Method);
    if (!readString32(Body, Size, Offset, P.Name) ||
        !readString32(Body, Size, Offset, P.Source))
      return false;
    Out.Programs.push_back(std::move(P));
  }
  return Offset == Size;
}

std::vector<char> net::encodeReloadRequest(const std::string &Path) {
  std::vector<char> B;
  appendString32(B, Path);
  return frameRequest(Verb::Reload, std::move(B));
}

bool net::decodeReloadRequest(const char *Body, size_t Size,
                              std::string &Path) {
  size_t Offset = 0;
  return readString32(Body, Size, Offset, Path) && Offset == Size;
}

std::vector<char>
net::encodeAnnotateResponse(uint64_t Generation,
                            const std::vector<AnnotationResult> &Results) {
  std::vector<char> B;
  wire::appendValue(B, Generation);
  wire::appendValue(B, static_cast<uint32_t>(Results.size()));
  for (const AnnotationResult &R : Results) {
    // Per-result status byte: 0 error, 1 ok, 2 ok-degraded (fallback
    // ladder answered — see the DEGRADED contract in Protocol.h).
    wire::appendValue(
        B, static_cast<uint8_t>(!R.Ok ? 0 : (R.Degraded ? 2 : 1)));
    wire::appendValue(B, static_cast<uint8_t>(R.Method));
    appendString32(B, R.Name);
    if (!R.Ok) {
      appendString32(B, R.Error);
      continue;
    }
    wire::appendValue(B, static_cast<uint32_t>(R.CachedSites));
    wire::appendValue(B, static_cast<uint32_t>(R.Plans.size()));
    for (const VectorPlan &Plan : R.Plans) {
      wire::appendValue(B, static_cast<uint32_t>(Plan.VF));
      wire::appendValue(B, static_cast<uint32_t>(Plan.IF));
    }
    appendString32(B, R.Annotated);
  }
  return frameResponse(Verb::Annotate, WireStatus::Ok, std::move(B));
}

bool net::decodeAnnotateResponse(const char *Body, size_t Size,
                                 AnnotateResponseBody &Out) {
  size_t Offset = 0;
  uint32_t Count = 0;
  if (!wire::readValue(Body, Size, Offset, Out.Generation) ||
      !wire::readValue(Body, Size, Offset, Count))
    return false;
  if (Count > (Size - Offset) / 6)
    return false;
  Out.Results.clear();
  Out.Results.reserve(Count);
  for (uint32_t I = 0; I < Count; ++I) {
    WireResult R;
    uint8_t Ok = 0;
    uint8_t Method = 0;
    if (!wire::readValue(Body, Size, Offset, Ok) ||
        !wire::readValue(Body, Size, Offset, Method))
      return false;
    if (Ok > 2 || Method >= NumPredictMethods)
      return false;
    R.Ok = Ok != 0;
    R.Degraded = Ok == 2;
    R.Method = static_cast<PredictMethod>(Method);
    if (!readString32(Body, Size, Offset, R.Name))
      return false;
    if (!R.Ok) {
      if (!readString32(Body, Size, Offset, R.Error))
        return false;
      Out.Results.push_back(std::move(R));
      continue;
    }
    uint32_t PlanCount = 0;
    if (!wire::readValue(Body, Size, Offset, R.CachedSites) ||
        !wire::readValue(Body, Size, Offset, PlanCount))
      return false;
    if (PlanCount > (Size - Offset) / 8)
      return false;
    R.Plans.reserve(PlanCount);
    for (uint32_t P = 0; P < PlanCount; ++P) {
      uint32_t VF = 0, IF = 0;
      if (!wire::readValue(Body, Size, Offset, VF) ||
          !wire::readValue(Body, Size, Offset, IF))
        return false;
      VectorPlan Plan;
      Plan.VF = static_cast<int>(VF);
      Plan.IF = static_cast<int>(IF);
      R.Plans.push_back(Plan);
    }
    if (!readString32(Body, Size, Offset, R.Annotated))
      return false;
    Out.Results.push_back(std::move(R));
  }
  return Offset == Size;
}

std::vector<char> net::encodeEmptyResponse(Verb V, WireStatus Status) {
  return frameResponse(V, Status, {});
}

std::vector<char> net::encodeStringResponse(Verb V, WireStatus Status,
                                            const std::string &Payload) {
  std::vector<char> B;
  appendString32(B, Payload);
  return frameResponse(V, Status, std::move(B));
}

std::vector<char> net::encodeReloadOkResponse(uint64_t Generation) {
  std::vector<char> B;
  wire::appendValue(B, Generation);
  return frameResponse(Verb::Reload, WireStatus::Ok, std::move(B));
}

bool net::decodeStringBody(const char *Body, size_t Size, std::string &Out) {
  size_t Offset = 0;
  return readString32(Body, Size, Offset, Out) && Offset == Size;
}

bool net::decodeReloadOkBody(const char *Body, size_t Size,
                             uint64_t &Generation) {
  size_t Offset = 0;
  return wire::readValue(Body, Size, Offset, Generation) && Offset == Size;
}
