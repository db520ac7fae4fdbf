//===- tests/test_integration.cpp - End-to-end paper-shape tests ----------===//
//
// These tests run the full stack (workload generator -> instrumentation
// transform -> timing simulation) at reduced scale and check the *shape* of
// the paper's headline results: branch-on-random's framework overhead is a
// small fraction of counter-based sampling's at moderate-to-low sampling
// rates, and Full-Duplication helps both. They also check that the
// trace-level sampling behind Figures 9/10 is exact against the ISA.
//
//===----------------------------------------------------------------------===//

#include "profile/SamplingPolicy.h"
#include "sim/Interpreter.h"
#include "uarch/Pipeline.h"
#include "workloads/AppGen.h"
#include "workloads/Microbench.h"

#include <gtest/gtest.h>

#include <string>
#include <tuple>

using namespace bor;

namespace {

constexpr size_t TestChars = 40000;

/// Runs a microbenchmark variant through the timing model and returns the
/// region-of-interest cycle count (between the two markers).
uint64_t roiCycles(const InstrumentationConfig &Instr) {
  MicrobenchConfig C;
  C.Text.NumChars = TestChars;
  C.Instr = Instr;
  MicrobenchProgram MB = buildMicrobench(C);
  Pipeline Pipe(MB.Prog, PipelineConfig());
  const std::vector<MarkerEvent> Events = Pipe.run(100000000).Markers;
  EXPECT_EQ(Events.size(), 2u);
  return Events[1].CommitCycle - Events[0].CommitCycle;
}

InstrumentationConfig config(SamplingFramework F, DuplicationMode Dup,
                             uint64_t Interval, bool Body) {
  InstrumentationConfig C;
  C.Framework = F;
  C.Dup = Dup;
  C.Interval = Interval;
  C.IncludeBody = Body;
  return C;
}

} // namespace

TEST(Integration, MicrobenchBaselineIpcIsPlausible) {
  MicrobenchConfig C;
  C.Text.NumChars = TestChars;
  MicrobenchProgram MB = buildMicrobench(C);
  Pipeline Pipe(MB.Prog, PipelineConfig());
  PipelineStats S = Pipe.run(100000000).Stats;
  // Data-dependent branches hold the baseline well under peak, but the
  // machine is not pathological either.
  EXPECT_GT(S.ipc(), 0.7);
  EXPECT_LT(S.ipc(), 3.0);
  // Section 5.3: baseline caches hit over 99.5% once warm.
  EXPECT_GT(Pipe.memHier().l1d().stats().hitRate(), 0.99);
  EXPECT_GT(Pipe.memHier().l1i().stats().hitRate(), 0.99);
}

TEST(Integration, BrrFrameworkOverheadFarBelowCounterAt1024) {
  uint64_t Base = roiCycles(InstrumentationConfig());
  uint64_t Cbs = roiCycles(config(SamplingFramework::CounterBased,
                                  DuplicationMode::NoDuplication, 1024,
                                  false));
  uint64_t Brr = roiCycles(config(SamplingFramework::BrrBased,
                                  DuplicationMode::NoDuplication, 1024,
                                  false));
  ASSERT_GT(Cbs, Base);
  ASSERT_GE(Brr, Base);
  uint64_t CbsOver = Cbs - Base;
  uint64_t BrrOver = Brr - Base;
  // The paper's order-of-magnitude claim; allow 5x as the test-scale bound.
  EXPECT_LT(BrrOver * 5, CbsOver)
      << "cbs=" << CbsOver << " brr=" << BrrOver;
}

TEST(Integration, OverheadShrinksWithInterval) {
  uint64_t Base = roiCycles(InstrumentationConfig());
  uint64_t Brr16 = roiCycles(config(SamplingFramework::BrrBased,
                                    DuplicationMode::NoDuplication, 16,
                                    false));
  uint64_t Brr1024 = roiCycles(config(SamplingFramework::BrrBased,
                                      DuplicationMode::NoDuplication, 1024,
                                      false));
  EXPECT_GT(Brr16, Brr1024);
  EXPECT_GE(Brr1024, Base);
}

TEST(Integration, FullDuplicationReducesCounterOverhead) {
  uint64_t Base = roiCycles(InstrumentationConfig());
  uint64_t NoDup = roiCycles(config(SamplingFramework::CounterBased,
                                    DuplicationMode::NoDuplication, 1024,
                                    false));
  uint64_t FullDup = roiCycles(config(SamplingFramework::CounterBased,
                                      DuplicationMode::FullDuplication, 1024,
                                      false));
  // Figure 13: Full-Duplication amortizes the three per-site checks into
  // one per-iteration check.
  EXPECT_LT(FullDup - Base, NoDup - Base);
}

TEST(Integration, InstrumentationBodyAddsVariableCost) {
  uint64_t FrameworkOnly = roiCycles(config(
      SamplingFramework::BrrBased, DuplicationMode::NoDuplication, 16,
      false));
  uint64_t WithInst = roiCycles(config(SamplingFramework::BrrBased,
                                       DuplicationMode::NoDuplication, 16,
                                       true));
  EXPECT_GT(WithInst, FrameworkOnly);
}

TEST(Integration, FullInstrumentationCostsCyclesPerSite) {
  uint64_t Base = roiCycles(InstrumentationConfig());
  uint64_t Full = roiCycles(config(SamplingFramework::Full,
                                   DuplicationMode::NoDuplication, 1024,
                                   true));
  // Three site visits per character; Section 5.3's reference point is 4.3
  // cycles per site, and ours lands in the same ballpark.
  double PerSite = static_cast<double>(Full - Base) / (3.0 * TestChars);
  EXPECT_GT(PerSite, 0.5);
  EXPECT_LT(PerSite, 12.0);
}

TEST(Integration, AppOverheadOrderingMatchesFigure12) {
  AppConfig App = dacapoAppAnalogues()[2]; // luindex analogue
  // Enough driver calls that cold-I-cache warmup (paid equally by every
  // variant, but magnified by Full-Duplication's code growth) amortizes.
  App.NumTopCalls = 24000;

  auto Cycles = [&](SamplingFramework F) {
    AppConfig C = App;
    C.Instr.Framework = F;
    C.Instr.Dup = DuplicationMode::FullDuplication;
    C.Instr.Interval = 1024;
    AppProgram P = buildApp(C);
    Pipeline Pipe(P.Prog, PipelineConfig());
    const std::vector<MarkerEvent> Events = Pipe.run(200000000).Markers;
    EXPECT_EQ(Events.size(), 2u);
    return Events[1].CommitCycle - Events[0].CommitCycle;
  };

  uint64_t Base = Cycles(SamplingFramework::None);
  uint64_t Cbs = Cycles(SamplingFramework::CounterBased);
  uint64_t Brr = Cycles(SamplingFramework::BrrBased);
  double CbsOver = 100.0 * (static_cast<double>(Cbs) - Base) / Base;
  double BrrOver = 100.0 * (static_cast<double>(Brr) - Base) / Base;
  EXPECT_GT(CbsOver, BrrOver) << "Figure 12 ordering";
  EXPECT_GT(CbsOver, 0.5);
  EXPECT_LT(BrrOver, CbsOver / 2);
}

namespace {

/// A framework (counter-based or brr) and its sampling interval.
using IsaCase = std::tuple<SamplingFramework, uint64_t>;

class IsaValidation : public testing::TestWithParam<IsaCase> {};

} // namespace

// Figures 9/10 sample at trace level: the policies consume the stream of
// site visits directly, as the paper's accuracy runs used SIGILL emulation
// instead of timing simulation (Section 4.1). That shortcut is exact: the
// ISA run of the instrumented microbenchmark and the trace-level policy
// over the same text's site visits collect identical per-site counts. The
// counter schedules are the same, and BrrPolicy wraps the very BrrUnit the
// ISA decider uses, seeded identically.
TEST_P(IsaValidation, TraceLevelSamplingMatchesIsaSimulation) {
  constexpr size_t NumChars = 200000;
  constexpr unsigned NumSites = 5;
  const auto [F, Interval] = GetParam();
  const bool Counter = F == SamplingFramework::CounterBased;

  MicrobenchConfig C;
  C.Text.NumChars = NumChars;
  C.Instr.Framework = F;
  C.Instr.Interval = Interval;
  MicrobenchProgram MB = buildMicrobench(C);
  BrrUnitConfig Cfg; // the same default unit and seed on both sides
  NeverTakenDecider Never;
  BrrUnitDecider Brr(Cfg);
  Machine M;
  Interpreter I(MB.Prog, M,
                Counter ? static_cast<BrrDecider &>(Never) : Brr);
  I.run(1ULL << 34);
  std::vector<uint64_t> Isa;
  for (unsigned Site = 0; Site != NumSites; ++Site)
    Isa.push_back(M.memory().readU64(MB.ProfileBase + 8 * Site));

  // Each character visits the entry edge, its class edge (upper, lower,
  // other) and the rejoin edge, in that order.
  SwCounterPolicy Sw(Interval);
  BrrPolicy Rand(Interval, Cfg);
  SamplingPolicy &Policy =
      Counter ? static_cast<SamplingPolicy &>(Sw) : Rand;
  std::vector<uint64_t> Trace(NumSites, 0);
  for (uint8_t Ch : generateText(C.Text)) {
    unsigned Class = Ch >= 'A' && Ch <= 'Z'   ? 1
                     : Ch >= 'a' && Ch <= 'z' ? 2
                                              : 3;
    for (unsigned Site : {0u, Class, 4u})
      if (Policy.sample())
        ++Trace[Site];
  }
  EXPECT_GT(Trace[0], 0u);
  EXPECT_EQ(Isa, Trace);
}

INSTANTIATE_TEST_SUITE_P(
    Section41, IsaValidation,
    testing::Combine(testing::Values(SamplingFramework::CounterBased,
                                     SamplingFramework::BrrBased),
                     testing::Values<uint64_t>(16, 256)),
    [](const testing::TestParamInfo<IsaCase> &Info) {
      const char *Name =
          std::get<0>(Info.param) == SamplingFramework::CounterBased
              ? "counter"
              : "brr";
      return std::string(Name) + "_" +
             std::to_string(std::get<1>(Info.param));
    });
