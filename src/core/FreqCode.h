//===- core/FreqCode.h - The brr 4-bit frequency encoding ----------------===//
//
// Part of the branch-on-random reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The branch-on-random instruction encodes its taken-frequency in a 4-bit
/// field, freq, mapped to the probability (1/2)^(freq+1) (Section 3.2).
/// This gives sixteen frequencies from 50% (freq=0) down to about 0.0015%
/// (freq=15); the "+1" avoids wasting an encoding on a 100%-taken branch,
/// which is just an unconditional jump.
///
//===----------------------------------------------------------------------===//

#ifndef BOR_CORE_FREQCODE_H
#define BOR_CORE_FREQCODE_H

#include <cassert>
#include <cstdint>

namespace bor {

/// The 4-bit frequency field of a branch-on-random instruction.
class FreqCode {
public:
  static constexpr unsigned NumValues = 16;

  /// Constructs from the raw 4-bit field value (0..15).
  explicit FreqCode(unsigned Raw) : Raw(Raw) {
    assert(Raw < NumValues && "freq field is 4 bits");
  }

  unsigned raw() const { return Raw; }

  /// Taken probability, (1/2)^(freq+1).
  double probability() const;

  /// Expected number of instruction executions per taken branch, 2^(freq+1).
  uint64_t expectedInterval() const { return 1ULL << (Raw + 1); }

  /// Number of (nominally independent) random bits that must all be 1 for
  /// the branch to be taken: freq+1 (Section 3.3's AND-gate sizes 2..16 are
  /// for freq >= 1; freq=0 sources a single LFSR bit directly).
  unsigned numRandomBits() const { return Raw + 1; }

  /// The encoding whose expected interval is \p Interval, which must be a
  /// power of two in [2, 65536].
  static FreqCode forInterval(uint64_t Interval);

  friend bool operator==(FreqCode A, FreqCode B) { return A.Raw == B.Raw; }
  friend bool operator!=(FreqCode A, FreqCode B) { return !(A == B); }

private:
  unsigned Raw;
};

} // namespace bor

#endif // BOR_CORE_FREQCODE_H
