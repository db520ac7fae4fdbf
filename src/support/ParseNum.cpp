//===- support/ParseNum.cpp - Strict numeric command-line values ---------===//
//
// Part of the branch-on-random reproduction library.
//
//===----------------------------------------------------------------------===//

#include "support/ParseNum.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

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
