//===- support/ParseNum.cpp - Strict command-line flag values ------------===//
//
// Part of the branch-on-random reproduction library.
//
//===----------------------------------------------------------------------===//

#include "support/ParseNum.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

bool bor::parseU64(const char *Text, uint64_t &Out) {
  // strtoull skips leading whitespace and negates a leading '-', so only
  // a string that opens with a digit can be a number here.
  if (!Text || *Text < '0' || *Text > '9')
    return false;
  errno = 0;
  char *End = nullptr;
  unsigned long long Parsed = std::strtoull(Text, &End, 0);
  if (errno == ERANGE || *End != '\0')
    return false;
  Out = Parsed;
  return true;
}

uint64_t bor::parseU64Flag(const char *Tool, const char *Flag,
                           const char *Text) {
  uint64_t Value = 0;
  if (!parseU64(Text, Value)) {
    std::fprintf(stderr, "%s: %s needs a whole number, got '%s'\n", Tool,
                 Flag, Text ? Text : "");
    std::exit(2);
  }
  return Value;
}

bool bor::parseF64(const char *Text, double &Out) {
  // The same opening-digit rule as parseU64: strtod would otherwise skip
  // whitespace and accept a sign, "inf" and "nan".
  if (!Text || *Text < '0' || *Text > '9')
    return false;
  errno = 0;
  char *End = nullptr;
  double Parsed = std::strtod(Text, &End);
  if (errno == ERANGE || *End != '\0' || !std::isfinite(Parsed))
    return false;
  Out = Parsed;
  return true;
}

double bor::parseF64Flag(const char *Tool, const char *Flag,
                         const char *Text) {
  double Value = 0;
  if (!parseF64(Text, Value)) {
    std::fprintf(stderr, "%s: %s needs a finite number >= 0, got '%s'\n",
                 Tool, Flag, Text ? Text : "");
    std::exit(2);
  }
  return Value;
}

const char *bor::flagValue(const char *Tool, const char *Flag, char **Argv,
                           int Argc, int &I) {
  const char *A = Argv[I];
  size_t N = std::strlen(Flag);
  if (std::strncmp(A, Flag, N) != 0)
    return nullptr;
  if (A[N] == '=')
    return A + N + 1;
  if (A[N] != '\0')
    return nullptr;
  if (I + 1 >= Argc) {
    std::fprintf(stderr, "%s: %s needs a value\n", Tool, Flag);
    std::exit(2);
  }
  return Argv[++I];
}

const char *bor::pathFlag(const char *Tool, const char *Flag,
                          const char *Text) {
  if (*Text == '\0') {
    std::fprintf(stderr, "%s: %s needs a path\n", Tool, Flag);
    std::exit(2);
  }
  return Text;
}
