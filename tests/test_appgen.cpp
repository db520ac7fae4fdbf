//===- tests/test_appgen.cpp - Synthetic application generator tests ------===//

#include "workloads/AppGen.h"

#include "sim/Interpreter.h"
#include "workloads/Microbench.h" // marker ids

#include <gtest/gtest.h>

#include <numeric>

using namespace bor;

namespace {

AppConfig smallApp() {
  AppConfig C;
  C.NumMethods = 12;
  C.NumTopCalls = 800;
  C.InnerIters = 3;
  C.Seed = 0x1234;
  return C;
}

struct AppRun {
  AppProgram App;
  Machine M;
  RunStats Stats;

  AppRun(const AppConfig &C, BrrDecider &D) {
    App = buildApp(C);
    const DecodedProgram DP(App.Prog);
    Interpreter I(DP, M, D);
    Stats = I.run(100000000);
  }

  std::vector<uint64_t> invocationCounts() const {
    std::vector<uint64_t> Counts(App.NumMethods);
    for (uint32_t I = 0; I != App.NumMethods; ++I)
      Counts[I] = M.memory().readU64(App.ProfileBase + 8 * I);
    return Counts;
  }
};

} // namespace

TEST(AppGen, RunsToCompletion) {
  AppConfig C = smallApp();
  NeverTakenDecider D;
  AppRun R(C, D);
  EXPECT_TRUE(R.Stats.Halted);
  EXPECT_GT(R.Stats.Insts, C.NumTopCalls * 10);
}

TEST(AppGen, FullInstrumentationCountsEveryInvocation) {
  AppConfig C = smallApp();
  C.Instr.Framework = SamplingFramework::Full;
  NeverTakenDecider D;
  AppRun R(C, D);
  std::vector<uint64_t> Counts = R.invocationCounts();
  uint64_t Total = std::accumulate(Counts.begin(), Counts.end(), 0ull);
  EXPECT_EQ(Total, R.App.DynamicSiteVisits);
}

TEST(AppGen, BaselineLeavesCountersZero) {
  AppConfig C = smallApp();
  NeverTakenDecider D;
  AppRun R(C, D);
  for (uint64_t Count : R.invocationCounts())
    EXPECT_EQ(Count, 0u);
}

TEST(AppGen, CounterSamplingTotalIsExact) {
  AppConfig C = smallApp();
  C.NumTopCalls = 4000;
  C.Instr.Framework = SamplingFramework::CounterBased;
  C.Instr.Interval = 32;
  NeverTakenDecider D;
  AppRun R(C, D);
  std::vector<uint64_t> Counts = R.invocationCounts();
  uint64_t Total = std::accumulate(Counts.begin(), Counts.end(), 0ull);
  EXPECT_EQ(Total, R.App.DynamicSiteVisits / 32);
}

TEST(AppGen, BrrSamplingTotalIsStatistical) {
  AppConfig C = smallApp();
  C.NumTopCalls = 16000;
  C.Instr.Framework = SamplingFramework::BrrBased;
  C.Instr.Interval = 32;
  BrrUnitDecider D;
  AppRun R(C, D);
  std::vector<uint64_t> Counts = R.invocationCounts();
  double Total = static_cast<double>(
      std::accumulate(Counts.begin(), Counts.end(), 0ull));
  double Expected = static_cast<double>(R.App.DynamicSiteVisits) / 32;
  EXPECT_NEAR(Total, Expected, 0.2 * Expected + 5);
}

TEST(AppGen, FullDuplicationVariantsPreserveInvocationBehaviour) {
  // The set of executed methods (and the halt) must not depend on the
  // sampling framework.
  AppConfig Base = smallApp();
  NeverTakenDecider D0;
  AppRun Baseline(Base, D0);

  for (SamplingFramework F :
       {SamplingFramework::CounterBased, SamplingFramework::BrrBased}) {
    AppConfig C = smallApp();
    C.Instr.Framework = F;
    C.Instr.Dup = DuplicationMode::FullDuplication;
    C.Instr.Interval = 64;
    BrrUnitDecider D;
    AppRun R(C, D);
    EXPECT_TRUE(R.Stats.Halted) << frameworkName(F);
    EXPECT_EQ(R.App.DynamicSiteVisits, Baseline.App.DynamicSiteVisits);
  }
}

TEST(AppGen, SampledHotMethodRankingMatchesTruth) {
  // With enough samples, the hottest method under sampling is the hottest
  // method in truth.
  AppConfig Truth = smallApp();
  Truth.NumTopCalls = 20000;
  Truth.Instr.Framework = SamplingFramework::Full;
  NeverTakenDecider D0;
  AppRun Full(Truth, D0);

  AppConfig Sampled = Truth;
  Sampled.Instr.Framework = SamplingFramework::BrrBased;
  Sampled.Instr.Interval = 16;
  BrrUnitDecider D1;
  AppRun Brr(Sampled, D1);

  auto ArgMax = [](const std::vector<uint64_t> &V) {
    return std::max_element(V.begin(), V.end()) - V.begin();
  };
  EXPECT_EQ(ArgMax(Full.invocationCounts()),
            ArgMax(Brr.invocationCounts()));
}

TEST(AppGen, DacapoAnaloguesAreWellFormed) {
  std::vector<AppConfig> Apps = dacapoAppAnalogues();
  ASSERT_EQ(Apps.size(), 5u);
  EXPECT_EQ(Apps[0].Name, "bloat");
  EXPECT_EQ(Apps[4].Name, "jython");
  for (const AppConfig &C : Apps) {
    EXPECT_GE(C.NumMethods, 16u);
    EXPECT_GE(C.NumTopCalls, 10000u);
  }
}

TEST(AppGen, SeedChangesCallSequenceNotStructure) {
  AppConfig A = smallApp();
  AppConfig B = smallApp();
  B.Seed = 0x9999;
  AppProgram PA = buildApp(A);
  AppProgram PB = buildApp(B);
  EXPECT_EQ(PA.NumMethods, PB.NumMethods);
  EXPECT_NE(PA.DynamicSiteVisits, PB.DynamicSiteVisits);
}
