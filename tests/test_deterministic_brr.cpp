//===- tests/test_deterministic_brr.cpp - Hardware-counter brr tests ------===//

#include "core/DeterministicBrr.h"

#include <gtest/gtest.h>

using namespace bor;

// Property: the Section 4.1 hardware counter fires exactly every
// 2^(freq+1)-th evaluation, for every encodable frequency.
class HwCounterInterval : public ::testing::TestWithParam<unsigned> {};

TEST_P(HwCounterInterval, FiresExactlyEveryInterval) {
  unsigned Raw = GetParam();
  FreqCode F(Raw);
  uint64_t Interval = F.expectedInterval();
  HwCounterUnit U;

  uint64_t Budget = Interval * 5;
  uint64_t SinceLast = 0;
  uint64_t Fires = 0;
  for (uint64_t I = 0; I != Budget; ++I) {
    ++SinceLast;
    if (U.evaluate(F)) {
      EXPECT_EQ(SinceLast, Interval);
      SinceLast = 0;
      ++Fires;
    }
  }
  EXPECT_EQ(Fires, 5u);
}

INSTANTIATE_TEST_SUITE_P(AllFrequencies, HwCounterInterval,
                         ::testing::Range(0u, 12u),
                         [](const auto &Info) {
                           return "freq" + std::to_string(Info.param);
                         });

TEST(HwCounterUnit, PhaseShiftsFirstFire) {
  FreqCode F(1); // interval 4
  HwCounterUnit U(/*Phase=*/2);
  // Counter starts at 2: fires after 2 more evaluations, then every 4.
  EXPECT_FALSE(U.evaluate(F));
  EXPECT_TRUE(U.evaluate(F));
  EXPECT_FALSE(U.evaluate(F));
  EXPECT_FALSE(U.evaluate(F));
  EXPECT_FALSE(U.evaluate(F));
  EXPECT_TRUE(U.evaluate(F));
}

TEST(HwCounterUnit, EvaluationCountIncludesPhase) {
  HwCounterUnit U(7);
  EXPECT_EQ(U.evaluationCount(), 7u);
  U.evaluate(FreqCode(0));
  EXPECT_EQ(U.evaluationCount(), 8u);
}

TEST(HwCounterUnit, ResonatesWithMatchingPeriod) {
  // The footnote-7 pathology reproduced in miniature: a loop invoking two
  // methods alternately, sampled with an even interval, only ever samples
  // one of them.
  FreqCode F(1); // interval 4 (even)
  HwCounterUnit U;
  uint64_t SampledA = 0, SampledB = 0;
  for (int Iter = 0; Iter != 1000; ++Iter) {
    if (U.evaluate(F))
      ++SampledA; // method A occupies even positions
    if (U.evaluate(F))
      ++SampledB; // method B occupies odd positions
  }
  // All samples land on one phase.
  EXPECT_EQ(SampledA + SampledB, 500u);
  EXPECT_TRUE(SampledA == 0 || SampledB == 0)
      << "A=" << SampledA << " B=" << SampledB;
}

// The masked test in evaluate() against the modulo it replaced, with the
// frequency changing at every evaluation (one count register is shared by
// all sites) and a phase that starts the count near 2^64 so it wraps.
TEST(HwCounterUnit, MaskMatchesModuloReference) {
  for (uint64_t Phase : {uint64_t{0}, uint64_t{5}, ~uint64_t{0} - 100000}) {
    HwCounterUnit U(Phase);
    uint64_t Count = Phase;
    for (unsigned I = 0; I != 400000; ++I) {
      FreqCode F((I * 7 + I / 13) % FreqCode::NumValues);
      ++Count;
      ASSERT_EQ(U.evaluate(F), Count % F.expectedInterval() == 0)
          << "evaluation " << I << " phase " << Phase;
    }
    EXPECT_EQ(U.evaluationCount(), Count);
  }
}
