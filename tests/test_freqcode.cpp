//===- tests/test_freqcode.cpp - 4-bit frequency encoding tests -----------===//

#include "core/FreqCode.h"

#include <gtest/gtest.h>

using namespace bor;

TEST(FreqCode, ProbabilityFormula) {
  // Section 3.2: probability = (1/2)^(freq+1); 50% down to ~0.0015%.
  EXPECT_DOUBLE_EQ(FreqCode(0).probability(), 0.5);
  EXPECT_DOUBLE_EQ(FreqCode(1).probability(), 0.25);
  EXPECT_DOUBLE_EQ(FreqCode(9).probability(), 1.0 / 1024.0);
  EXPECT_DOUBLE_EQ(FreqCode(15).probability(), 1.0 / 65536.0);
  EXPECT_NEAR(FreqCode(15).probability(), 0.000015, 1e-6);
}

TEST(FreqCode, ExpectedInterval) {
  EXPECT_EQ(FreqCode(0).expectedInterval(), 2u);
  EXPECT_EQ(FreqCode(9).expectedInterval(), 1024u);
  EXPECT_EQ(FreqCode(12).expectedInterval(), 8192u);
  EXPECT_EQ(FreqCode(15).expectedInterval(), 65536u);
}

TEST(FreqCode, NumRandomBits) {
  for (unsigned Raw = 0; Raw != FreqCode::NumValues; ++Raw)
    EXPECT_EQ(FreqCode(Raw).numRandomBits(), Raw + 1);
}

TEST(FreqCode, ForIntervalRoundTripsAllEncodings) {
  for (unsigned Raw = 0; Raw != FreqCode::NumValues; ++Raw) {
    FreqCode F(Raw);
    EXPECT_EQ(FreqCode::forInterval(F.expectedInterval()), F);
  }
}

TEST(FreqCode, Equality) {
  EXPECT_EQ(FreqCode(3), FreqCode(3));
  EXPECT_NE(FreqCode(3), FreqCode(4));
}

TEST(FreqCodeDeath, RawFieldIsFourBits) {
  EXPECT_DEATH(FreqCode(16), "4 bits");
}

TEST(FreqCodeDeath, ForIntervalRejectsNonPowers) {
  EXPECT_DEATH(FreqCode::forInterval(1000), "powers of two");
  EXPECT_DEATH(FreqCode::forInterval(1), "outside brr range");
}
