//===- core/HwCostModel.cpp - State/gate estimates (Section 3.3) ---------===//

#include "core/HwCostModel.h"

#include <bit>
#include <cassert>

using namespace bor;

static unsigned ceilLog2(unsigned X) {
  assert(X > 0);
  return X == 1 ? 0 : 32 - std::countl_zero(X - 1);
}

HwCostEstimate bor::estimateBrrCost(const HwCostInputs &In) {
  assert(In.NumTaps >= 2 && "maximal LFSRs have at least two taps");
  assert(In.NumFreqs >= 2 && "need at least two frequencies");
  assert((!In.Deterministic || In.MaxInFlight > 0) &&
         "deterministic units must size the recovery buffer");

  HwCostEstimate Per; // Cost of one evaluation unit.

  // State: the LFSR register itself; a deterministic unit also keeps one
  // recovery bit per speculative brr in flight plus a counter wide enough to
  // remember how many to shift back (Section 3.4).
  Per.StateBits = In.LfsrWidth;
  if (In.Deterministic)
    Per.StateBits += In.MaxInFlight + ceilLog2(In.MaxInFlight + 1);

  // Gates, macro view (the paper's accounting):
  //  * feedback XOR network: NumTaps-1 two-input XORs,
  //  * NumFreqs-1 AND gates, one of each size from 2 inputs up (the 50%
  //    output taps a register bit directly and needs no gate),
  //  * one NumFreqs-input mux driven by the freq field,
  //  * decode-recognition and BTB-suppression control, a small constant.
  constexpr unsigned ControlGates = 8;
  Per.MacroGates =
      (In.NumTaps - 1) + (In.NumFreqs - 1) + 1 + ControlGates;

  // Gates, 2-input-equivalent view: a k-input AND is k-1 AND2s, so the AND
  // tree costs sum_{k=2}^{NumFreqs} (k-1); an N:1 mux is N-1 2:1 muxes at
  // ~3 gates each.
  unsigned AndTree = 0;
  for (unsigned K = 2; K <= In.NumFreqs; ++K)
    AndTree += K - 1;
  unsigned Mux = (In.NumFreqs - 1) * 3;
  Per.TwoInputEquivGates =
      (In.NumTaps - 1) + AndTree + Mux + ControlGates;

  HwCostEstimate Total;
  if (In.Replicated) {
    Total.StateBits = Per.StateBits * In.DecodeWidth;
    Total.MacroGates = Per.MacroGates * In.DecodeWidth;
    Total.TwoInputEquivGates = Per.TwoInputEquivGates * In.DecodeWidth;
    return Total;
  }

  // Shared design: one LFSR, but each decoder still needs its own AND tree
  // and mux to evaluate in parallel with target computation; arbitration
  // adds a priority encoder of roughly DecodeWidth gates.
  Total.StateBits = Per.StateBits;
  Total.MacroGates = (In.NumTaps - 1) + ControlGates +
                     In.DecodeWidth * (In.NumFreqs - 1 + 1) + In.DecodeWidth;
  Total.TwoInputEquivGates = (In.NumTaps - 1) + ControlGates +
                             In.DecodeWidth * (AndTree + Mux) +
                             In.DecodeWidth;
  return Total;
}
