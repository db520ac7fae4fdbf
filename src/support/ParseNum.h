//===- support/ParseNum.h - Strict numeric command-line values -----------===//
//
// Part of the branch-on-random reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one parser every tool uses for an unsigned numeric flag value. A
/// value that is not exactly a number is a usage error naming the flag,
/// never a silently misread budget: "1e6" is not 1, "lots" is not 0 and
/// "-1" is not 2^64-1.
///
//===----------------------------------------------------------------------===//

#ifndef BOR_SUPPORT_PARSENUM_H
#define BOR_SUPPORT_PARSENUM_H

#include <cstdint>

namespace bor {

/// Strict unsigned parse: \p Text must be, in full, a number in decimal,
/// 0x-prefixed hex or 0-prefixed octal that fits in 64 bits. A sign, any
/// whitespace, trailing characters or overflow make it fail. Returns false
/// (leaving \p Out untouched) on failure.
bool parseU64(const char *Text, uint64_t &Out);

/// The value of numeric flag \p Flag of tool \p Tool: parseU64(\p Text), or
/// else "<Tool>: <Flag> needs a whole number, got '<Text>'" on stderr and
/// exit status 2.
uint64_t parseU64Flag(const char *Tool, const char *Flag, const char *Text);

} // namespace bor

#endif // BOR_SUPPORT_PARSENUM_H
