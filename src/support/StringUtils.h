//===- support/StringUtils.h - String helpers -------------------*- C++ -*-===//
//
// Part of the NeuroVectorizer reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small string utilities shared by the lexer, the pragma injector, and the
/// dataset generators.
///
//===----------------------------------------------------------------------===//

#ifndef NV_SUPPORT_STRINGUTILS_H
#define NV_SUPPORT_STRINGUTILS_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace nv {

/// Splits \p Text on \p Sep, keeping empty fields.
std::vector<std::string> split(const std::string &Text, char Sep);

/// Joins \p Parts with \p Sep.
std::string join(const std::vector<std::string> &Parts,
                 const std::string &Sep);

/// Removes leading and trailing whitespace.
std::string trim(const std::string &Text);

/// Returns true if \p Text starts with \p Prefix.
bool startsWith(const std::string &Text, const std::string &Prefix);

/// Returns true if \p Text contains \p Needle.
bool contains(const std::string &Text, const std::string &Needle);

/// Replaces every occurrence of \p From in \p Text with \p To.
std::string replaceAll(std::string Text, const std::string &From,
                       const std::string &To);

/// FNV-1a offset basis (the hash state of the empty string).
inline constexpr uint64_t Fnv1aOffset = 0xCBF29CE484222325ull;

/// Absorbs one byte into an FNV-1a hash state.
inline uint64_t fnv1aByte(uint64_t Hash, unsigned char Byte) {
  return (Hash ^ Byte) * 0x100000001B3ull;
}

/// Continues an FNV-1a hash over \p Text. Because FNV-1a is byte-serial,
/// hashing a concatenation equals chaining fnv1aContinue over the parts —
/// the interner and the path-context extractor rely on this to hash
/// without materializing the concatenated string.
inline uint64_t fnv1aContinue(uint64_t Hash, std::string_view Text) {
  for (char C : Text)
    Hash = fnv1aByte(Hash, static_cast<unsigned char>(C));
  return Hash;
}

/// Stable 64-bit FNV-1a hash; the embedding vocabularies hash token and
/// path strings with this so that vocab ids are platform independent.
inline uint64_t fnv1a(std::string_view Text) {
  return fnv1aContinue(Fnv1aOffset, Text);
}

/// splitmix64 finalizer: a fast, well-mixed 64 -> 64 bijection. Used as
/// the FNV-independent second hash stream (serve/ContextKey), the path
/// prefix-hash combinator, and the interner's probe mixer.
inline uint64_t splitmix64(uint64_t X) {
  X += 0x9E3779B97F4A7C15ull;
  X = (X ^ (X >> 30)) * 0xBF58476D1CE4E5B9ull;
  X = (X ^ (X >> 27)) * 0x94D049BB133111EBull;
  return X ^ (X >> 31);
}

} // namespace nv

#endif // NV_SUPPORT_STRINGUTILS_H
