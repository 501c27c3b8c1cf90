//===- support/CommandLine.h - Strict command-line value parsing -*- C++ -*-===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The numeric-flag parsers every command-line driver shares. Each parser
/// consumes its whole argument or rejects it: "10k" is not 10, "abc" is
/// not 0, and "-1" is not 4294967295. Drivers turn a rejection into a
/// diagnostic plus their usage line and exit code 2.
///
//===----------------------------------------------------------------------===//

#ifndef SMOKESTACK_SUPPORT_COMMANDLINE_H
#define SMOKESTACK_SUPPORT_COMMANDLINE_H

#include <cctype>
#include <cerrno>
#include <climits>
#include <cstdint>
#include <cstdlib>
#include <cstring>

namespace smokestack {

/// The text after \p Flag when \p Arg starts with it (flags are passed
/// with their '=', e.g. "-workers="), else null.
inline const char *flagValue(const char *Arg, const char *Flag) {
  size_t Len = std::strlen(Flag);
  return std::strncmp(Arg, Flag, Len) == 0 ? Arg + Len : nullptr;
}

/// Parses all of \p Text as an unsigned integer (decimal, 0x-hex, or
/// 0-octal); false on an empty string, a sign, trailing junk, or overflow.
inline bool parseU64(const char *Text, uint64_t &Out) {
  if (!std::isdigit(static_cast<unsigned char>(*Text)))
    return false;
  errno = 0;
  char *End = nullptr;
  unsigned long long V = std::strtoull(Text, &End, 0);
  if (*End != '\0' || errno == ERANGE)
    return false;
  Out = V;
  return true;
}

/// parseU64 limited to the range of unsigned.
inline bool parseUnsigned(const char *Text, unsigned &Out) {
  uint64_t V = 0;
  if (!parseU64(Text, V) || V > UINT_MAX)
    return false;
  Out = static_cast<unsigned>(V);
  return true;
}

/// Parses all of \p Text as a probability in [0, 1]; false on an empty
/// string, a sign, trailing junk, or a value outside the range.
inline bool parseRate(const char *Text, double &Out) {
  if (!std::isdigit(static_cast<unsigned char>(*Text)) && *Text != '.')
    return false;
  errno = 0;
  char *End = nullptr;
  double V = std::strtod(Text, &End);
  if (End == Text || *End != '\0' || errno == ERANGE || !(V >= 0 && V <= 1))
    return false;
  Out = V;
  return true;
}

} // namespace smokestack

#endif // SMOKESTACK_SUPPORT_COMMANDLINE_H
