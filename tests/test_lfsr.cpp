//===- tests/test_lfsr.cpp - LFSR model tests -----------------------------===//

#include "lfsr/Lfsr.h"
#include "lfsr/TapCatalog.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <ostream>
#include <unordered_set>

using namespace bor;

namespace bor {
// gtest's fallback printer dumps a TapSet's raw bytes, std::string heap
// pointer included, and CMake copies that dump into the ctest name of every
// parameterized case below, so the names changed from one build to the
// next. Print the polynomial exponents instead (the case name already
// carries the catalog name).
static void PrintTo(const TapSet &T, std::ostream *OS) {
  *OS << "(";
  for (size_t I = 0; I != T.PolyTaps.size(); ++I)
    *OS << (I ? "," : "") << T.PolyTaps[I];
  *OS << ")";
}
} // namespace bor

// The paper's Figure 6: a 4-bit LFSR with the right two bits XORed cycles
// through all 15 nonzero values. In polynomial notation those taps are
// (4, 3). The figure's full sequence, starting from 0001:
TEST(Lfsr, Figure6ExactSequence) {
  Lfsr L = Lfsr::fromPolynomial(4, {4, 3}, 0b0001);
  const uint64_t Expected[] = {0b1000, 0b0100, 0b0010, 0b1001, 0b1100,
                               0b0110, 0b1011, 0b0101, 0b1010, 0b1101,
                               0b1110, 0b1111, 0b0111, 0b0011, 0b0001};
  for (uint64_t Want : Expected) {
    L.step();
    EXPECT_EQ(L.state(), Want);
  }
}

TEST(Lfsr, Figure6SingleUpdate) {
  // The worked example in the figure: 0110 updates to 1011.
  Lfsr L = Lfsr::fromPolynomial(4, {4, 3}, 0b0110);
  L.step();
  EXPECT_EQ(L.state(), 0b1011u);
}

TEST(Lfsr, SeedIsMaskedToWidth) {
  Lfsr L = Lfsr::fromPolynomial(4, {4, 3}, 0xf1);
  EXPECT_EQ(L.state(), 0x1u);
}

TEST(Lfsr, FeedbackBitMatchesTapParity) {
  Lfsr L = Lfsr::fromPolynomial(4, {4, 3}, 0b0110);
  // Taps are bits 0 and 1; state 0110 has bit1 set only -> feedback 1.
  EXPECT_TRUE(L.feedbackBit());
  L.seed(0b0100);
  EXPECT_FALSE(L.feedbackBit());
}

TEST(Lfsr, BitAccessors) {
  Lfsr L = Lfsr::fromPolynomial(8, {8, 6, 5, 4}, 0b10100101);
  EXPECT_TRUE(L.bit(0));
  EXPECT_FALSE(L.bit(1));
  EXPECT_TRUE(L.bit(2));
  EXPECT_TRUE(L.bit(7));
}

// Property: every catalog tap set of width <= 24 is maximal-length: the
// period from any nonzero state is exactly 2^w - 1.
class LfsrPeriodTest : public ::testing::TestWithParam<TapSet> {};

TEST_P(LfsrPeriodTest, PeriodIsMaximal) {
  const TapSet &T = GetParam();
  if (T.Width > 24)
    GTEST_SKIP() << "period too long to enumerate";
  Lfsr L = T.makeLfsr(1);
  EXPECT_EQ(L.measurePeriod(), (1ULL << T.Width) - 1);
}

TEST_P(LfsrPeriodTest, StateNeverZero) {
  const TapSet &T = GetParam();
  Lfsr L = T.makeLfsr(1);
  for (int I = 0; I != 100000; ++I) {
    L.step();
    ASSERT_NE(L.state(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Catalog, LfsrPeriodTest,
                         ::testing::ValuesIn(allTapSets()),
                         [](const auto &Info) { return Info.param.Name; });

// Property: the paper's four 32-bit sensitivity tap sets produce at least
// 2^20 distinct states before any repeat (a maximal 32-bit LFSR repeats
// only after 2^32 - 1).
class PaperTapSetTest : public ::testing::TestWithParam<TapSet> {};

TEST_P(PaperTapSetTest, LongRunOfDistinctStates) {
  Lfsr L = GetParam().makeLfsr(0xace1);
  std::unordered_set<uint64_t> Seen;
  Seen.reserve(1u << 20);
  for (unsigned I = 0; I != (1u << 20); ++I) {
    ASSERT_TRUE(Seen.insert(L.state()).second)
        << "state repeated after " << I << " steps";
    L.step();
  }
}

TEST_P(PaperTapSetTest, BitBiasNearHalf) {
  // Any single register bit should be 1 about half the time.
  Lfsr L = GetParam().makeLfsr(0xace1);
  uint64_t Ones = 0;
  const uint64_t N = 200000;
  for (uint64_t I = 0; I != N; ++I) {
    Ones += L.bit(0);
    L.step();
  }
  EXPECT_NEAR(static_cast<double>(Ones) / N, 0.5, 0.01);
}

INSTANTIATE_TEST_SUITE_P(Sensitivity, PaperTapSetTest,
                         ::testing::ValuesIn(paperSensitivityTapSets()),
                         [](const auto &Info) {
                           std::string N = Info.param.Name;
                           for (char &C : N)
                             if (C == '-')
                               C = '_';
                           return N;
                         });

// Property (Section 3.4): a step can be exactly undone given the bit it
// shifted out.
TEST(Lfsr, StepBackInvertsStep) {
  for (const TapSet &T : allTapSets()) {
    Lfsr L = T.makeLfsr(0x5a5a % ((1ULL << T.Width) - 1) + 1);
    for (int Trial = 0; Trial != 200; ++Trial) {
      uint64_t Before = L.state();
      bool Out = L.step();
      L.stepBack(Out);
      ASSERT_EQ(L.state(), Before) << T.Name;
      L.step();
    }
  }
}

TEST(Lfsr, MultiStepShiftBackRecovery) {
  // Squash recovery: undo a whole burst of speculative steps.
  Lfsr L = Lfsr::fromPolynomial(20, {20, 17}, 0xbeef);
  Xoshiro256 Rng(5);
  for (int Trial = 0; Trial != 100; ++Trial) {
    uint64_t Checkpoint = L.state();
    unsigned Burst = 1 + Rng.nextBelow(17);
    std::vector<bool> Outs;
    for (unsigned I = 0; I != Burst; ++I)
      Outs.push_back(L.step());
    for (unsigned I = 0; I != Burst; ++I) {
      L.stepBack(Outs.back());
      Outs.pop_back();
    }
    ASSERT_EQ(L.state(), Checkpoint);
  }
}

TEST(Lfsr, FromPolynomialMapsExponentsToBits) {
  // Exponent t maps to bit Width - t: for (16,15,13,4) the taps are bits
  // 0, 1, 3 and 12.
  Lfsr L = Lfsr::fromPolynomial(16, {16, 15, 13, 4});
  EXPECT_EQ(L.tapMask(), (1u << 0) | (1u << 1) | (1u << 3) | (1u << 12));
}

TEST(Lfsr, DefaultTapSetLookup) {
  EXPECT_EQ(defaultTapSet(16).Width, 16u);
  EXPECT_EQ(defaultTapSet(20).Width, 20u);
  EXPECT_EQ(defaultTapSet(20).PolyTaps, (std::vector<unsigned>{20, 17}));
}

TEST(LfsrDeath, ZeroSeedAsserts) {
  EXPECT_DEATH(Lfsr::fromPolynomial(4, {4, 3}, 0), "absorbing");
}

TEST(LfsrDeath, OutOfRangeBitAsserts) {
  Lfsr L = Lfsr::fromPolynomial(4, {4, 3}, 1);
  EXPECT_DEATH((void)L.bit(4), "out of range");
}
