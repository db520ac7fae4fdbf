//===- core/DeterministicBrr.h - Counter-triggered brr (Section 4.1) -----===//
//
// Part of the branch-on-random reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's accuracy study compares LFSR-driven sampling against taking
/// the branch at *defined intervals* — "essentially a hardware counter
/// triggered by the branch-on-random instruction" (Section 4.1). This file
/// models that unit: a countdown register that fires exactly every
/// 2^(freq+1)-th evaluation. It has perfect interval regularity, which is
/// exactly the property that makes it resonate with periodic code patterns
/// (the jython/pmd pathology of Figures 9 and 10).
///
//===----------------------------------------------------------------------===//

#ifndef BOR_CORE_DETERMINISTICBRR_H
#define BOR_CORE_DETERMINISTICBRR_H

#include "core/FreqCode.h"

#include <cstdint>

namespace bor {

/// Branch-on-random implemented as a deterministic hardware countdown: the
/// branch is taken on every 2^(freq+1)-th evaluation.
class HwCounterUnit {
public:
  /// \p Phase offsets where in the interval the counter starts (0 means the
  /// first taken evaluation is the 2^(freq+1)-th one).
  explicit HwCounterUnit(uint64_t Phase = 0) : Count(Phase) {}

  /// Evaluates one branch-on-random of frequency \p Freq. Like the paper's
  /// hardware counter, a single count register is shared by all sites; the
  /// interval is taken from the instruction being evaluated.
  bool evaluate(FreqCode Freq) {
    // Intervals are powers of two, so the mask is the modulo.
    uint64_t Interval = Freq.expectedInterval();
    ++Count;
    return (Count & (Interval - 1)) == 0;
  }

  uint64_t evaluationCount() const { return Count; }

private:
  uint64_t Count;
};

} // namespace bor

#endif // BOR_CORE_DETERMINISTICBRR_H
