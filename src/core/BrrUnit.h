//===- core/BrrUnit.h - The decode-stage branch-on-random unit -----------===//
//
// Part of the branch-on-random reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Models the hardware of Section 3.3: an LFSR whose bits feed fifteen AND
/// gates (one of each size from 2 to 16 inputs, plus the single-bit 50%
/// output), a 16-input mux driven by the instruction's freq field, and
/// clock gating so the LFSR only advances on cycles in which a
/// branch-on-random is actually decoded.
///
/// The architectural contract (Section 3.2) deliberately does NOT promise
/// any particular outcome sequence, only that the taken fraction approaches
/// (1/2)^(freq+1) asymptotically. That freedom is what lets implementations
/// update the LFSR speculatively without checkpointing.
///
//===----------------------------------------------------------------------===//

#ifndef BOR_CORE_BRRUNIT_H
#define BOR_CORE_BRRUNIT_H

#include "core/BitSelection.h"
#include "core/FreqCode.h"
#include "lfsr/Lfsr.h"

#include <array>
#include <cstdint>
#include <vector>

namespace bor {

/// Configuration of a single branch-on-random evaluation unit.
struct BrrUnitConfig {
  unsigned LfsrWidth = 20;
  /// Zero means "use the default maximal tap set for LfsrWidth".
  uint64_t TapMask = 0;
  uint64_t Seed = 0x2c9277b5;
  BitSelectPolicy Policy = BitSelectPolicy::Spaced;
};

/// One decode-slot branch-on-random unit.
class BrrUnit {
public:
  explicit BrrUnit(const BrrUnitConfig &Config = BrrUnitConfig());

  /// Evaluates a branch-on-random with frequency \p Freq: reads the muxed
  /// AND-gate output for the current LFSR state, then clocks the LFSR (the
  /// register only advances when a brr is decoded). Returns true if the
  /// branch is taken.
  bool evaluate(FreqCode Freq) {
    uint64_t Mask = AndMasks[Freq.raw()];
    bool Taken = (Register.state() & Mask) == Mask;
    clockLfsr();
    return Taken;
  }

  /// All sixteen AND-gate outputs for the *current* LFSR state, as the
  /// hardware computes them in parallel before the mux; index = freq field.
  /// Does not advance the LFSR.
  std::array<bool, FreqCode::NumValues> andOutputs() const;

  /// The AND-input mask used for frequency \p Freq (for tests and the cost
  /// model).
  uint64_t andMaskFor(FreqCode Freq) const {
    return AndMasks[Freq.raw()];
  }

  const Lfsr &lfsr() const { return Register; }
  Lfsr &lfsr() { return Register; }

  const BrrUnitConfig &config() const { return Config; }

  /// Number of evaluations performed (LFSR clock ticks).
  uint64_t evaluationCount() const { return Evaluations; }

  /// Checkpoint restore: re-installs an evaluation count captured together
  /// with the LFSR state, so a resumed run's tick accounting continues
  /// where the snapshotted run left off.
  void restoreEvaluationCount(uint64_t Count) { Evaluations = Count; }

protected:
  /// Advances the LFSR one tick, returning the shifted-out bit; the
  /// deterministic subclass records it for shift-back recovery.
  bool clockLfsr() {
    ++Evaluations;
    return Register.step();
  }

private:
  BrrUnitConfig Config;
  Lfsr Register;
  std::array<uint64_t, FreqCode::NumValues> AndMasks;
  uint64_t Evaluations = 0;
};

/// Deterministic branch-on-random unit (Section 3.4): identical datapath,
/// but every LFSR step records the shifted-out bit in a small FIFO so that
/// steps belonging to squashed (wrong-path) instructions can be undone by
/// shifting back, restoring a precise architectural sequence. The FIFO depth
/// bounds how many branch-on-randoms may be speculatively in flight.
class DeterministicBrrUnit : public BrrUnit {
public:
  DeterministicBrrUnit(const BrrUnitConfig &Config, unsigned MaxInFlight);

  bool evaluate(FreqCode Freq);

  /// Undoes the \p N youngest speculative evaluations (e.g. those decoded
  /// after a mispredicted branch). Asserts that at most the number of
  /// currently-unretired evaluations is undone.
  void squashYoungest(unsigned N);

  /// Marks the \p N oldest in-flight evaluations as retired; their recovery
  /// bits are released (cannot be squashed anymore).
  void retireOldest(unsigned N);

  unsigned inFlight() const { return static_cast<unsigned>(History.size()); }
  unsigned maxInFlight() const { return MaxInFlight; }

private:
  unsigned MaxInFlight;
  /// Shifted-out bits of un-retired evaluations, oldest first. One bit per
  /// speculative branch-on-random, exactly the storage Section 3.4 sizes.
  std::vector<bool> History;
};

} // namespace bor

#endif // BOR_CORE_BRRUNIT_H
