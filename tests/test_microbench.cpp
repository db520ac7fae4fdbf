//===- tests/test_microbench.cpp - Microbenchmark builder tests -----------===//

#include "workloads/Microbench.h"

#include "sim/Interpreter.h"

#include <gtest/gtest.h>

using namespace bor;

namespace {

struct MicrobenchRun {
  MicrobenchProgram MB;
  Machine M;
  RunStats Stats;
  std::vector<int32_t> Markers;

  MicrobenchRun(const InstrumentationConfig &Instr, size_t NumChars,
                BrrDecider &D) {
    MicrobenchConfig C;
    C.Text.NumChars = NumChars;
    C.Instr = Instr;
    MB = buildMicrobench(C);
    Interpreter I(MB.Prog, M, D);
    I.setMarkerHook([this](int32_t Id) { Markers.push_back(Id); });
    Stats = I.run(200 * NumChars + 10000);
  }

  uint64_t result(unsigned Slot) const {
    return M.memory().readU64(MB.ResultBase + 8 * Slot);
  }
  uint64_t edgeCount(unsigned Site) const {
    return M.memory().readU64(MB.ProfileBase + 8 * Site);
  }
};

InstrumentationConfig config(SamplingFramework F, DuplicationMode Dup,
                             uint64_t Interval, bool Body = true) {
  InstrumentationConfig C;
  C.Framework = F;
  C.Dup = Dup;
  C.Interval = Interval;
  C.IncludeBody = Body;
  return C;
}

} // namespace

TEST(Microbench, BaselineComputesReferenceChecksums) {
  NeverTakenDecider D;
  MicrobenchRun R(InstrumentationConfig(), 20000, D);

  // Checksums must equal the byte sums per class of the generated text.
  TextConfig TC;
  TC.NumChars = 20000;
  std::vector<uint8_t> Text = generateText(TC);
  uint64_t Upper = 0, Lower = 0, Other = 0;
  for (uint8_t Ch : Text) {
    if (Ch >= 'A' && Ch <= 'Z')
      Upper += Ch;
    else if (Ch >= 'a' && Ch <= 'z')
      Lower += Ch;
    else
      Other += Ch;
  }
  EXPECT_EQ(R.result(0), Upper);
  EXPECT_EQ(R.result(1), Lower);
  EXPECT_EQ(R.result(2), Other);
}

TEST(Microbench, MarkersBracketTheLoop) {
  NeverTakenDecider D;
  MicrobenchRun R(InstrumentationConfig(), 5000, D);
  EXPECT_EQ(R.Markers,
            (std::vector<int32_t>{MarkerRoiBegin, MarkerRoiEnd}));
}

TEST(Microbench, AllVariantsComputeIdenticalChecksums) {
  const size_t N = 20000;
  NeverTakenDecider Never;
  MicrobenchRun Baseline(InstrumentationConfig(), N, Never);
  uint64_t U = Baseline.result(0), L = Baseline.result(1),
           O = Baseline.result(2);

  std::vector<InstrumentationConfig> Configs = {
      config(SamplingFramework::Full, DuplicationMode::NoDuplication, 64),
      config(SamplingFramework::CounterBased,
             DuplicationMode::NoDuplication, 64),
      config(SamplingFramework::CounterBased,
             DuplicationMode::FullDuplication, 64),
      config(SamplingFramework::BrrBased, DuplicationMode::NoDuplication,
             64),
      config(SamplingFramework::BrrBased, DuplicationMode::FullDuplication,
             64),
      config(SamplingFramework::CounterBased,
             DuplicationMode::NoDuplication, 64, false),
      config(SamplingFramework::BrrBased, DuplicationMode::FullDuplication,
             64, false),
  };
  for (const InstrumentationConfig &C : Configs) {
    BrrUnitDecider D;
    MicrobenchRun R(C, N, D);
    EXPECT_EQ(R.result(0), U) << describeConfig(C);
    EXPECT_EQ(R.result(1), L) << describeConfig(C);
    EXPECT_EQ(R.result(2), O) << describeConfig(C);
  }
}

TEST(Microbench, FullInstrumentationEdgeProfileIsExact) {
  const size_t N = 30000;
  NeverTakenDecider D;
  MicrobenchRun R(
      config(SamplingFramework::Full, DuplicationMode::NoDuplication, 64),
      N, D);
  TextConfig TC;
  TC.NumChars = N;
  TextStats S = classifyText(generateText(TC));
  EXPECT_EQ(R.edgeCount(0), N); // loop-entry edge: every character
  EXPECT_EQ(R.edgeCount(1), S.Upper);
  EXPECT_EQ(R.edgeCount(2), S.Lower);
  EXPECT_EQ(R.edgeCount(3), S.Other);
  EXPECT_EQ(R.edgeCount(4), N); // rejoin edge: every character
}

TEST(Microbench, CounterSamplingCollectsOneInIntervalSamples) {
  const size_t N = 32768;
  NeverTakenDecider D;
  MicrobenchRun R(config(SamplingFramework::CounterBased,
                         DuplicationMode::NoDuplication, 64),
                  N, D);
  uint64_t Total = 0;
  for (unsigned Site = 0; Site != 5; ++Site)
    Total += R.edgeCount(Site);
  EXPECT_EQ(Total, 3 * N / 64); // three site visits per character
}

TEST(Microbench, BrrSamplingCollectsApproxOneInInterval) {
  const size_t N = 65536;
  BrrUnitDecider D;
  MicrobenchRun R(config(SamplingFramework::BrrBased,
                         DuplicationMode::NoDuplication, 64),
                  N, D);
  uint64_t Total = 0;
  for (unsigned Site = 0; Site != 5; ++Site)
    Total += R.edgeCount(Site);
  EXPECT_NEAR(static_cast<double>(Total), 3 * N / 64.0,
              0.25 * 3 * N / 64.0);
}

TEST(Microbench, BrrSampleCountsDependOnlyOnSeed) {
  // Section 3.4's software determinism: a brr-sampled run's per-site
  // counts are a function of the LFSR seed alone, so one seed reproduces
  // them exactly and another seed gives a different profile.
  auto Counts = [](uint64_t Seed) {
    BrrUnitConfig Cfg;
    Cfg.Seed = Seed;
    BrrUnitDecider D(Cfg);
    MicrobenchRun R(config(SamplingFramework::BrrBased,
                           DuplicationMode::NoDuplication, 64),
                    100000, D);
    std::vector<uint64_t> PerSite;
    for (unsigned Site = 0; Site != R.MB.NumStaticSites; ++Site)
      PerSite.push_back(R.edgeCount(Site));
    return PerSite;
  };
  std::vector<uint64_t> First = Counts(0xace1);
  EXPECT_EQ(Counts(0xace1), First);
  EXPECT_NE(Counts(0xbeef), First);
}

TEST(Microbench, SampledEdgeProfileMatchesFullShape) {
  // The sampled profile's per-class fractions should approximate the true
  // class mix (this is the accuracy claim at microbenchmark scale).
  const size_t N = 131072;
  BrrUnitDecider D;
  MicrobenchRun R(config(SamplingFramework::BrrBased,
                         DuplicationMode::NoDuplication, 16),
                  N, D);
  TextConfig TC;
  TC.NumChars = N;
  TextStats S = classifyText(generateText(TC));
  uint64_t ClassTotal = R.edgeCount(1) + R.edgeCount(2) + R.edgeCount(3);
  ASSERT_GT(ClassTotal, 0u);
  EXPECT_NEAR(static_cast<double>(R.edgeCount(2)) / ClassTotal,
              static_cast<double>(S.Lower) / N, 0.03);
}

TEST(Microbench, DynamicSiteVisitsEqualsCharacterCount) {
  NeverTakenDecider D;
  MicrobenchRun R(InstrumentationConfig(), 7777, D);
  EXPECT_EQ(R.MB.DynamicSiteVisits, 3u * 7777u);
  EXPECT_EQ(R.MB.NumStaticSites, 5u);
}

TEST(Microbench, FrameworkOnlyLeavesCountersZero) {
  const size_t N = 16384;
  BrrUnitDecider D;
  MicrobenchRun R(config(SamplingFramework::BrrBased,
                         DuplicationMode::NoDuplication, 64, false),
                  N, D);
  uint64_t Total = 0;
  for (unsigned Site = 0; Site != 5; ++Site)
    Total += R.edgeCount(Site);
  EXPECT_EQ(Total, 0u);
}

TEST(Microbench, SymbolsExported) {
  MicrobenchConfig C;
  C.Text.NumChars = 1000;
  MicrobenchProgram MB = buildMicrobench(C);
  EXPECT_TRUE(MB.Prog.hasSymbol("text"));
  EXPECT_TRUE(MB.Prog.hasSymbol("edges"));
  EXPECT_TRUE(MB.Prog.hasSymbol("results"));
  EXPECT_TRUE(MB.Prog.hasSymbol("dist"));
}
