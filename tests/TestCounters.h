//===- tests/TestCounters.h - Registry counters in tests --------*- C++ -*-===//
//
// Part of the NeuroVectorizer reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The telemetry registry is process-wide and every service in a test
/// binary counts into it, so tests assert how far a counter moved across
/// the operation under test, not its total. Counters are read in-process,
/// or out of a JSON document that embeds the registry (a snapshotJson()
/// or a statsz body).
///
//===----------------------------------------------------------------------===//

#ifndef NV_TESTS_TESTCOUNTERS_H
#define NV_TESTS_TESTCOUNTERS_H

#include "support/Telemetry.h"

#include <cstdint>
#include <cstdlib>
#include <string>

namespace nv {

/// How far the registry counter \p Name has moved since construction.
class CounterDelta {
public:
  explicit CounterDelta(const std::string &Name)
      : C(Telemetry::metrics().counter(Name)), Start(C.value()) {}

  uint64_t operator()() const { return C.value() - Start; }

private:
  const Counter &C;
  uint64_t Start;
};

/// The value of counter \p Name in a JSON document that embeds the
/// registry; 0 when the counter is absent.
inline uint64_t counterIn(const std::string &Json, const std::string &Name) {
  const std::string Key = "\"" + Name + "\": ";
  const size_t At = Json.find(Key);
  if (At == std::string::npos)
    return 0;
  return std::strtoull(Json.c_str() + At + Key.size(), nullptr, 10);
}

} // namespace nv

#endif // NV_TESTS_TESTCOUNTERS_H
