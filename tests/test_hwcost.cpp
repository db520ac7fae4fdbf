//===- tests/test_hwcost.cpp - Hardware cost model tests ------------------===//

#include "core/HwCostModel.h"

#include <gtest/gtest.h>

using namespace bor;

// The abstract's headline claims: ~20 bits of state and <100 gates for a
// simple processor; <100 bits and at most a few hundred gates for an
// aggressive 4-wide superscalar.
TEST(HwCostModel, SingleIssueMatchesPaperClaims) {
  HwCostInputs In; // defaults: 20-bit LFSR, 2 taps, 16 freqs, 1-wide
  HwCostEstimate E = estimateBrrCost(In);
  EXPECT_EQ(E.StateBits, 20u);
  EXPECT_LT(E.MacroGates, 100u);
}

TEST(HwCostModel, FourWideReplicatedMatchesPaperClaims) {
  HwCostInputs In;
  In.DecodeWidth = 4;
  In.Replicated = true;
  HwCostEstimate E = estimateBrrCost(In);
  EXPECT_LE(E.StateBits, 100u);
  EXPECT_EQ(E.StateBits, 80u); // 4 x 20-bit LFSR
  EXPECT_LT(E.MacroGates, 400u);
}

TEST(HwCostModel, MacroGateAccountingMatchesSection33Summary) {
  // "15 AND gates, one of each size from 2 to 16, a 16-input mux", plus
  // feedback XORs and a small control constant.
  HwCostInputs In;
  In.NumTaps = 2;
  HwCostEstimate E = estimateBrrCost(In);
  // 1 XOR + 15 ANDs + 1 mux + 8 control = 25.
  EXPECT_EQ(E.MacroGates, 25u);
}

TEST(HwCostModel, TwoInputEquivalentExceedsMacro) {
  HwCostInputs In;
  HwCostEstimate E = estimateBrrCost(In);
  EXPECT_GT(E.TwoInputEquivGates, E.MacroGates);
  // AND tree alone is sum_{k=2..16}(k-1) = 120 two-input gates.
  EXPECT_GE(E.TwoInputEquivGates, 120u);
}

TEST(HwCostModel, DeterministicAddsRecoveryState) {
  HwCostInputs Base;
  HwCostInputs Det = Base;
  Det.Deterministic = true;
  Det.MaxInFlight = 8;
  HwCostEstimate EBase = estimateBrrCost(Base);
  HwCostEstimate EDet = estimateBrrCost(Det);
  // 8 recovery bits + a 4-value... ceil(log2(9)) = 4-bit counter.
  EXPECT_EQ(EDet.StateBits, EBase.StateBits + 8 + 4);
}

TEST(HwCostModel, SharedDesignSavesState) {
  HwCostInputs Repl, Shared;
  Repl.DecodeWidth = Shared.DecodeWidth = 4;
  Repl.Replicated = true;
  Shared.Replicated = false;
  HwCostEstimate ER = estimateBrrCost(Repl);
  HwCostEstimate ES = estimateBrrCost(Shared);
  EXPECT_LT(ES.StateBits, ER.StateBits);
  EXPECT_EQ(ES.StateBits, 20u);
}

TEST(HwCostModel, GatesScaleLinearlyWithDecodeWidth) {
  HwCostInputs One, Four;
  Four.DecodeWidth = 4;
  HwCostEstimate E1 = estimateBrrCost(One);
  HwCostEstimate E4 = estimateBrrCost(Four);
  EXPECT_EQ(E4.MacroGates, 4 * E1.MacroGates);
  EXPECT_EQ(E4.StateBits, 4 * E1.StateBits);
}

TEST(HwCostModel, WiderLfsrCostsOnlyState) {
  HwCostInputs W16, W32;
  W16.LfsrWidth = 16;
  W32.LfsrWidth = 32;
  HwCostEstimate E16 = estimateBrrCost(W16);
  HwCostEstimate E32 = estimateBrrCost(W32);
  EXPECT_EQ(E32.StateBits - E16.StateBits, 16u);
  EXPECT_EQ(E32.MacroGates, E16.MacroGates);
}

TEST(HwCostModelDeath, DeterministicWithoutBufferAsserts) {
  HwCostInputs In;
  In.Deterministic = true;
  In.MaxInFlight = 0;
  EXPECT_DEATH(estimateBrrCost(In), "recovery buffer");
}
