//===- tests/test_brrunit.cpp - Decode-stage brr unit tests ---------------===//

#include "core/BrrUnit.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace bor;

TEST(BrrUnit, AndOutputsMatchMaskedState) {
  BrrUnit U;
  auto Outputs = U.andOutputs();
  uint64_t State = U.lfsr().state();
  for (unsigned Raw = 0; Raw != FreqCode::NumValues; ++Raw) {
    uint64_t Mask = U.andMaskFor(FreqCode(Raw));
    EXPECT_EQ(Outputs[Raw], (State & Mask) == Mask);
  }
}

TEST(BrrUnit, EvaluateReturnsMuxedOutputThenClocks) {
  BrrUnit U;
  for (int I = 0; I != 1000; ++I) {
    auto Outputs = U.andOutputs();
    uint64_t StateBefore = U.lfsr().state();
    bool Taken = U.evaluate(FreqCode(2));
    EXPECT_EQ(Taken, Outputs[2]);
    EXPECT_NE(U.lfsr().state(), StateBefore) << "LFSR must clock";
  }
}

TEST(BrrUnit, EvaluationCountTracksClocks) {
  BrrUnit U;
  for (int I = 0; I != 37; ++I)
    U.evaluate(FreqCode(0));
  EXPECT_EQ(U.evaluationCount(), 37u);
}

TEST(BrrUnit, ContiguousMasksAreNested) {
  BrrUnitConfig C;
  C.Policy = BitSelectPolicy::Contiguous;
  BrrUnit U(C);
  for (unsigned Raw = 1; Raw != FreqCode::NumValues; ++Raw) {
    uint64_t Smaller = U.andMaskFor(FreqCode(Raw - 1));
    uint64_t Larger = U.andMaskFor(FreqCode(Raw));
    EXPECT_EQ(Smaller & Larger, Smaller)
        << "contiguous AND masks should nest";
  }
}

// Property (the headline architectural contract, Section 3.2): the taken
// fraction converges to (1/2)^(freq+1) for every encodable frequency.
class BrrConvergence
    : public ::testing::TestWithParam<std::tuple<unsigned, BitSelectPolicy>> {
};

TEST_P(BrrConvergence, TakenFractionMatchesEncoding) {
  auto [Raw, Policy] = GetParam();
  BrrUnitConfig C;
  C.Policy = Policy;
  BrrUnit U(C);
  FreqCode F(Raw);

  double P = F.probability();
  // Enough trials that 6 sigma is still a tight relative bound.
  uint64_t N = static_cast<uint64_t>(std::max(400000.0, 400.0 / P));
  uint64_t Taken = 0;
  for (uint64_t I = 0; I != N; ++I)
    Taken += U.evaluate(F);

  double Sigma = std::sqrt(P * (1 - P) / static_cast<double>(N));
  EXPECT_NEAR(static_cast<double>(Taken) / static_cast<double>(N), P,
              6 * Sigma + 1e-9)
      << "freq=" << Raw;
}

INSTANTIATE_TEST_SUITE_P(
    AllFrequencies, BrrConvergence,
    ::testing::Combine(::testing::Range(0u, 11u),
                       ::testing::Values(BitSelectPolicy::Contiguous,
                                         BitSelectPolicy::Spaced)),
    [](const auto &Info) {
      return std::string("freq") + std::to_string(std::get<0>(Info.param)) +
             "_" + bitSelectPolicyName(std::get<1>(Info.param));
    });

// Section 3.3's correlation discussion: with ADJACENT bits ANDed, the
// conditional probability of taking a 25% branch right after a taken 25%
// branch is 50% (one input is yesterday's other input, already known 1).
// Spaced selections restore near-independence.
TEST(BrrUnit, AdjacentBitsCorrelateConsecutiveOutcomes) {
  BrrUnitConfig C;
  C.Policy = BitSelectPolicy::Contiguous;
  BrrUnit U(C);
  FreqCode F(1); // 25%

  uint64_t TakenPairs = 0, TakenFirst = 0;
  bool Prev = U.evaluate(F);
  for (int I = 0; I != 2000000; ++I) {
    bool Cur = U.evaluate(F);
    if (Prev) {
      ++TakenFirst;
      TakenPairs += Cur;
    }
    Prev = Cur;
  }
  double Conditional =
      static_cast<double>(TakenPairs) / static_cast<double>(TakenFirst);
  EXPECT_NEAR(Conditional, 0.5, 0.02);
}

TEST(BrrUnit, SpacedBitsDecorrelateConsecutiveOutcomes) {
  BrrUnitConfig C;
  C.Policy = BitSelectPolicy::Spaced;
  BrrUnit U(C);
  FreqCode F(1); // 25%

  uint64_t TakenPairs = 0, TakenFirst = 0;
  bool Prev = U.evaluate(F);
  for (int I = 0; I != 2000000; ++I) {
    bool Cur = U.evaluate(F);
    if (Prev) {
      ++TakenFirst;
      TakenPairs += Cur;
    }
    Prev = Cur;
  }
  double Conditional =
      static_cast<double>(TakenPairs) / static_cast<double>(TakenFirst);
  // Not perfectly independent (shared register), but far below the 50%
  // pathology of adjacent bits.
  EXPECT_LT(Conditional, 0.35);
}

TEST(BrrUnit, DifferentSeedsGiveDifferentStreams) {
  BrrUnitConfig A, B;
  A.Seed = 0x1111;
  B.Seed = 0x2222;
  BrrUnit UA(A), UB(B);
  int Differences = 0;
  for (int I = 0; I != 1000; ++I)
    Differences += UA.evaluate(FreqCode(0)) != UB.evaluate(FreqCode(0));
  EXPECT_GT(Differences, 100);
}

TEST(BrrUnit, ConfigDefaultsMatchPaperDesignPoint) {
  // Section 3.3 suggests a 20-bit LFSR as a reasonable design point.
  BrrUnit U;
  EXPECT_EQ(U.config().LfsrWidth, 20u);
  EXPECT_EQ(U.config().Policy, BitSelectPolicy::Spaced);
  EXPECT_EQ(U.lfsr().width(), 20u);
}

TEST(DeterministicBrrUnit, SquashRestoresState) {
  BrrUnitConfig C;
  DeterministicBrrUnit U(C, /*MaxInFlight=*/16);
  for (int I = 0; I != 5; ++I)
    U.evaluate(FreqCode(3));
  U.retireOldest(5);

  uint64_t Checkpoint = U.lfsr().state();
  for (int I = 0; I != 7; ++I)
    U.evaluate(FreqCode(3));
  EXPECT_EQ(U.inFlight(), 7u);
  U.squashYoungest(7);
  EXPECT_EQ(U.lfsr().state(), Checkpoint);
  EXPECT_EQ(U.inFlight(), 0u);
}

TEST(DeterministicBrrUnit, ReplayAfterSquashIsIdentical) {
  // The whole point of the deterministic implementation (Section 3.4):
  // squashed wrong-path evaluations leave no trace, so re-executing
  // produces the same outcomes.
  BrrUnitConfig C;
  DeterministicBrrUnit U(C, 32);
  std::vector<bool> First;
  for (int I = 0; I != 10; ++I)
    First.push_back(U.evaluate(FreqCode(2)));
  U.squashYoungest(10);
  for (int I = 0; I != 10; ++I)
    EXPECT_EQ(U.evaluate(FreqCode(2)), First[I]);
}

TEST(DeterministicBrrUnit, RandomSquashBurstsReplayTheUnspeculatedStream) {
  // Section 3.4's shift-back recovery under a random misprediction
  // pattern: commit a few real evaluations, speculate down a wrong path of
  // random frequency codes, squash it, and repeat. The committed outcomes
  // must be exactly those of a unit that never speculates.
  constexpr unsigned NumEvaluations = 4000;
  BrrUnitConfig C;
  BrrUnit Reference(C);
  DeterministicBrrUnit U(C, 32);
  Xoshiro256 Rng(0x5eed);
  unsigned Evaluated = 0;
  uint64_t Squashed = 0;
  while (Evaluated < NumEvaluations) {
    uint64_t Commit = 1 + Rng.nextBelow(4);
    for (uint64_t I = 0; I != Commit && Evaluated < NumEvaluations;
         ++I, ++Evaluated)
      ASSERT_EQ(U.evaluate(FreqCode(2)), Reference.evaluate(FreqCode(2)))
          << "evaluation " << Evaluated;
    U.retireOldest(U.inFlight());
    uint64_t Wrong = Rng.nextBelow(20);
    for (uint64_t I = 0; I != Wrong; ++I)
      U.evaluate(FreqCode(static_cast<unsigned>(Rng.nextBelow(16))));
    U.squashYoungest(static_cast<unsigned>(Wrong));
    Squashed += Wrong;
  }
  EXPECT_GT(Squashed, NumEvaluations);
  EXPECT_EQ(U.lfsr().state(), Reference.lfsr().state());
}

TEST(DeterministicBrrUnit, PartialSquashKeepsOlderEvaluations) {
  BrrUnitConfig C;
  DeterministicBrrUnit U(C, 32);
  for (int I = 0; I != 4; ++I)
    U.evaluate(FreqCode(1));
  uint64_t StateAfter4 = U.lfsr().state();
  for (int I = 0; I != 3; ++I)
    U.evaluate(FreqCode(1));
  U.squashYoungest(3);
  EXPECT_EQ(U.lfsr().state(), StateAfter4);
  EXPECT_EQ(U.inFlight(), 4u);
}

TEST(DeterministicBrrUnit, RetireFreesBufferSpace) {
  BrrUnitConfig C;
  DeterministicBrrUnit U(C, 4);
  for (int I = 0; I != 4; ++I)
    U.evaluate(FreqCode(0));
  U.retireOldest(2);
  EXPECT_EQ(U.inFlight(), 2u);
  U.evaluate(FreqCode(0));
  U.evaluate(FreqCode(0));
  EXPECT_EQ(U.inFlight(), 4u);
}

TEST(DeterministicBrrUnitDeath, OverflowingRecoveryBufferAsserts) {
  BrrUnitConfig C;
  DeterministicBrrUnit U(C, 2);
  U.evaluate(FreqCode(0));
  U.evaluate(FreqCode(0));
  EXPECT_DEATH(U.evaluate(FreqCode(0)), "recovery buffer");
}

TEST(DeterministicBrrUnitDeath, OverSquashAsserts) {
  BrrUnitConfig C;
  DeterministicBrrUnit U(C, 4);
  U.evaluate(FreqCode(0));
  EXPECT_DEATH(U.squashYoungest(2), "more brrs than are in flight");
}
