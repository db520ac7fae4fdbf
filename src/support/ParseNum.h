//===- support/ParseNum.h - Strict command-line flag values --------------===//
//
// Part of the branch-on-random reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The parsers the tools use for flag values. A value that is not
/// exactly a number is a usage error naming the flag, never a silently
/// misread budget: "1e6" is not 1, "lots" is not 0, "-1" is not 2^64-1
/// and "nan" is not a threshold. Likewise an empty path is a usage error,
/// never an output silently dropped or sent to a default file.
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

/// Strict non-negative real parse, by parseU64's rules: \p Text must open
/// with a digit and be, in full, a finite decimal or hex floating-point
/// number. Whitespace, a sign, "inf", "nan", trailing characters or a
/// value out of double's range make it fail. Returns false (leaving \p
/// Out untouched) on failure.
bool parseF64(const char *Text, double &Out);

/// The value of real-valued flag \p Flag of tool \p Tool: parseF64(\p
/// Text), or else "<Tool>: <Flag> needs a finite number >= 0, got
/// '<Text>'" on stderr and exit status 2.
double parseF64Flag(const char *Tool, const char *Flag, const char *Text);

/// The value of flag \p Flag when \p Argv[\p I] is that flag, given either
/// as "<Flag>=value" or as "<Flag> value"; the detached form advances \p I
/// past the value. Returns nullptr when \p Argv[\p I] is another flag. A
/// detached value that is missing is "<Tool>: <Flag> needs a value" on
/// stderr and exit status 2.
const char *flagValue(const char *Tool, const char *Flag, char **Argv,
                      int Argc, int &I);

/// The value of path-valued flag \p Flag of tool \p Tool: \p Text, or else,
/// when it is empty, "<Tool>: <Flag> needs a path" on stderr and exit
/// status 2.
const char *pathFlag(const char *Tool, const char *Flag, const char *Text);

} // namespace bor

#endif // BOR_SUPPORT_PARSENUM_H
