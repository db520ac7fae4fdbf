//===- core/HwCostModel.h - State/gate estimates (Section 3.3) -----------===//
//
// Part of the branch-on-random reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reproduces the paper's hardware cost estimates: branch-on-random needs
/// roughly 20 bits of state and fewer than 100 gates on a single-issue
/// machine, growing to under 100 bits and under 400 gates for a 4-wide
/// superscalar with replicated units (Section 3.3, Summary; abstract).
///
/// Two gate counts are reported: "macro" gates count each multi-input AND
/// and the 16:1 mux the way the paper does (15 AND gates, one of each size
/// from 2 to 16 inputs), while the 2-input-equivalent count decomposes every
/// structure into 2-input gates for a technology-neutral comparison.
///
//===----------------------------------------------------------------------===//

#ifndef BOR_CORE_HWCOSTMODEL_H
#define BOR_CORE_HWCOSTMODEL_H

namespace bor {

/// Parameters of a branch-on-random implementation to be costed.
struct HwCostInputs {
  unsigned LfsrWidth = 20;
  /// Feedback taps of the LFSR polynomial (a w-bit maximal LFSR needs
  /// NumTaps-1 XOR2 gates of feedback logic).
  unsigned NumTaps = 2;
  /// Frequencies supported (16 for the 4-bit encoding).
  unsigned NumFreqs = 16;
  unsigned DecodeWidth = 1;
  /// Replicate the unit per decoder (true) or share one LFSR behind a
  /// priority encoder (false).
  bool Replicated = true;
  /// Deterministic implementation (Section 3.4): adds the shift-back
  /// recovery bits and the in-flight counter.
  bool Deterministic = false;
  /// Maximum speculative brrs in flight (sizes the recovery buffer when
  /// Deterministic is set).
  unsigned MaxInFlight = 0;
};

/// The resulting estimate.
struct HwCostEstimate {
  unsigned StateBits = 0;
  unsigned MacroGates = 0;
  unsigned TwoInputEquivGates = 0;
};

/// Estimates the hardware cost of the configuration \p In.
HwCostEstimate estimateBrrCost(const HwCostInputs &In);

} // namespace bor

#endif // BOR_CORE_HWCOSTMODEL_H
