//===- tests/test_transform.cpp - Sampling-framework transform tests ------===//

#include "instr/Transform.h"

#include "instr/Sites.h"
#include "sim/Interpreter.h"

#include <gtest/gtest.h>

using namespace bor;

namespace {

/// Builds a minimal program with one instrumented site inside a counted
/// loop: each iteration visits the site once; the instrumentation body
/// increments profile counter 0.
struct SiteLoop {
  Program Prog;
  uint64_t CounterAddr;

  SiteLoop(const InstrumentationConfig &Config, uint64_t Iters) {
    ProgramBuilder B;
    // The profile table is allocated first so its address (and thus the
    // prologue code) is identical across frameworks; the counter-based
    // framework's globals land just behind it.
    ProfileTable Table(B, "counters", 1);
    SamplingFrameworkEmitter Emitter(B, Config, DefaultDataBase);
    CounterAddr = Table.counterAddr(0);

    B.emitLoadConst(RegGlobals, DefaultDataBase);
    B.emitLoadConst(RegProfBase, Table.baseAddr());
    Emitter.emitSetup();
    B.emitLoadConst(2, Iters);
    auto Loop = B.label();
    B.bind(Loop);
    auto Body = [&Table](ProgramBuilder &PB) {
      Table.emitIncrement(PB, 0, RegProfBase, Table.baseAddr(), 14);
    };
    if (Config.Dup == DuplicationMode::FullDuplication &&
        (Config.Framework == SamplingFramework::CounterBased ||
         Config.Framework == SamplingFramework::BrrBased)) {
      auto Dup = B.label();
      auto Done = B.label();
      Emitter.emitDuplicationCheck(Dup);
      B.emit(Inst::add(4, 4, 2)); // clean body work
      B.emitJmp(Done);
      B.bind(Dup);
      Emitter.emitDupPrologue();
      Emitter.emitUnconditionalSite(Body);
      B.emit(Inst::add(4, 4, 2)); // duplicated body work
      B.bind(Done);
    } else {
      Emitter.emitSite(Body);
      B.emit(Inst::add(4, 4, 2));
    }
    B.emit(Inst::addi(2, 2, -1));
    B.emitBranch(Opcode::Bne, 2, 0, Loop);
    B.emit(Inst::halt());
    Emitter.flushOutOfLine();
    Prog = B.finish();
  }

  /// Runs to completion and returns (counter value, r4 work accumulator).
  std::pair<uint64_t, uint64_t> run(BrrDecider &D, uint64_t Iters) {
    Machine M;
    const DecodedProgram DP(Prog);
    Interpreter I(DP, M, D);
    I.run(200 * Iters + 1000);
    return {M.memory().readU64(CounterAddr), M.readReg(4)};
  }
};

} // namespace

TEST(Transform, FullInstrumentationCountsEveryVisit) {
  InstrumentationConfig C;
  C.Framework = SamplingFramework::Full;
  SiteLoop L(C, 1000);
  NeverTakenDecider D;
  auto [Counter, Work] = L.run(D, 1000);
  EXPECT_EQ(Counter, 1000u);
}

TEST(Transform, BaselineEmitsNothingAndCountsNothing) {
  InstrumentationConfig C;
  C.Framework = SamplingFramework::None;
  SiteLoop L(C, 1000);
  NeverTakenDecider D;
  auto [Counter, Work] = L.run(D, 1000);
  EXPECT_EQ(Counter, 0u);
}

TEST(Transform, CounterSamplingFiresExactlyEveryInterval) {
  for (uint64_t Interval : {4ull, 16ull, 64ull, 256ull}) {
    InstrumentationConfig C;
    C.Framework = SamplingFramework::CounterBased;
    C.Interval = Interval;
    const uint64_t Iters = Interval * 10;
    SiteLoop L(C, Iters);
    NeverTakenDecider D;
    auto [Counter, Work] = L.run(D, Iters);
    EXPECT_EQ(Counter, 10u) << "interval " << Interval;
  }
}

TEST(Transform, BrrSamplingMatchesFrequencyStatistically) {
  InstrumentationConfig C;
  C.Framework = SamplingFramework::BrrBased;
  C.Interval = 16;
  const uint64_t Iters = 64000;
  SiteLoop L(C, Iters);
  BrrUnitDecider D;
  auto [Counter, Work] = L.run(D, Iters);
  double Rate = static_cast<double>(Counter) / Iters;
  EXPECT_NEAR(Rate, 1.0 / 16, 0.01);
}

TEST(Transform, SamplingPreservesProgramSemantics) {
  // The non-instrumentation work (r4) must be identical across all
  // frameworks and modes: instrumentation may never perturb the program.
  const uint64_t Iters = 2048;
  uint64_t Expected = 0;
  {
    InstrumentationConfig C; // baseline
    SiteLoop L(C, Iters);
    NeverTakenDecider D;
    Expected = L.run(D, Iters).second;
  }
  std::vector<InstrumentationConfig> Configs;
  for (SamplingFramework F :
       {SamplingFramework::Full, SamplingFramework::CounterBased,
        SamplingFramework::BrrBased}) {
    InstrumentationConfig C;
    C.Framework = F;
    C.Interval = 64;
    Configs.push_back(C);
    if (F != SamplingFramework::Full) {
      C.Dup = DuplicationMode::FullDuplication;
      Configs.push_back(C);
      C.Dup = DuplicationMode::NoDuplication;
      C.IncludeBody = false;
      Configs.push_back(C);
    }
  }
  for (const InstrumentationConfig &C : Configs) {
    SiteLoop L(C, Iters);
    BrrUnitDecider D;
    EXPECT_EQ(L.run(D, Iters).second, Expected) << describeConfig(C);
  }
}

TEST(Transform, FrameworkOnlyRunsCollectNoSamples) {
  InstrumentationConfig C;
  C.Framework = SamplingFramework::CounterBased;
  C.Interval = 8;
  C.IncludeBody = false;
  SiteLoop L(C, 800);
  NeverTakenDecider D;
  EXPECT_EQ(L.run(D, 800).first, 0u);
}

TEST(Transform, FullDuplicationCounterSamplesOncePerInterval) {
  InstrumentationConfig C;
  C.Framework = SamplingFramework::CounterBased;
  C.Dup = DuplicationMode::FullDuplication;
  C.Interval = 32;
  const uint64_t Iters = 32 * 8;
  SiteLoop L(C, Iters);
  NeverTakenDecider D;
  auto [Counter, Work] = L.run(D, Iters);
  // Each firing runs the instrumented copy once, then the counter resets.
  EXPECT_NEAR(static_cast<double>(Counter), 8.0, 1.0);
}

TEST(Transform, FullDuplicationBrrSelectsDupAtFrequency) {
  InstrumentationConfig C;
  C.Framework = SamplingFramework::BrrBased;
  C.Dup = DuplicationMode::FullDuplication;
  C.Interval = 8;
  const uint64_t Iters = 32000;
  SiteLoop L(C, Iters);
  BrrUnitDecider D;
  auto [Counter, Work] = L.run(D, Iters);
  EXPECT_NEAR(static_cast<double>(Counter) / Iters, 1.0 / 8, 0.01);
}

TEST(Transform, BrrSiteIsOneInstructionCbsIsFour) {
  // Figure 4's instruction-count comparison, measured on the generated
  // code: count the framework instructions on the common path.
  auto CommonPathLen = [](SamplingFramework F) {
    InstrumentationConfig C;
    C.Framework = F;
    C.Interval = 64;
    SiteLoop L(C, 4);
    return L.Prog.numInsts();
  };
  size_t Baseline = CommonPathLen(SamplingFramework::None);
  size_t Brr = CommonPathLen(SamplingFramework::BrrBased);
  size_t Cbs = CommonPathLen(SamplingFramework::CounterBased);
  // brr adds: 1 brr + (out of line: body 3 + jmp) = 5 static.
  EXPECT_EQ(Brr - Baseline, 5u);
  // cbs adds: ld/beq/addi/st inline + (out of line: ld reset + body 3 +
  // jmp) = 9 static.
  EXPECT_EQ(Cbs - Baseline, 9u);
}

TEST(Transform, DescribeConfigStrings) {
  InstrumentationConfig C;
  EXPECT_EQ(describeConfig(C), "baseline");
  C.Framework = SamplingFramework::Full;
  EXPECT_EQ(describeConfig(C), "full-instrumentation");
  C.Framework = SamplingFramework::BrrBased;
  C.Dup = DuplicationMode::FullDuplication;
  C.Interval = 128;
  C.IncludeBody = false;
  EXPECT_EQ(describeConfig(C), "brr full-dup interval=128 framework-only");
  C.Framework = SamplingFramework::CounterBased;
  C.Dup = DuplicationMode::NoDuplication;
  C.IncludeBody = true;
  EXPECT_EQ(describeConfig(C), "cbs no-dup interval=128 +inst");
}

TEST(Transform, NamesAreStable) {
  EXPECT_STREQ(frameworkName(SamplingFramework::None), "baseline");
  EXPECT_STREQ(frameworkName(SamplingFramework::BrrBased), "brr");
  EXPECT_STREQ(duplicationName(DuplicationMode::NoDuplication), "no-dup");
  EXPECT_STREQ(duplicationName(DuplicationMode::FullDuplication),
               "full-dup");
}

TEST(ProfileTableTest, ReadBackMatchesMemory) {
  ProgramBuilder B;
  ProfileTable T(B, "t", 4);
  B.emit(Inst::halt());
  Program P = B.finish();
  Machine M;
  M.loadProgram(P);
  M.memory().writeU64(T.counterAddr(2), 77);
  std::vector<uint64_t> Values = T.read(M);
  EXPECT_EQ(Values, (std::vector<uint64_t>{0, 0, 77, 0}));
}

TEST(Transform, RegisterCounterFiresExactlyEveryInterval) {
  for (uint64_t Interval : {4ull, 64ull, 1024ull}) {
    InstrumentationConfig C;
    C.Framework = SamplingFramework::CounterBased;
    C.CounterPlacement = CounterHome::Register;
    C.Interval = Interval;
    const uint64_t Iters = Interval * 10;
    SiteLoop L(C, Iters);
    NeverTakenDecider D;
    auto [Counter, Work] = L.run(D, Iters);
    EXPECT_EQ(Counter, 10u) << "interval " << Interval;
  }
}

TEST(Transform, RegisterCounterMatchesMemoryCounterDecisions) {
  // Same sampling schedule regardless of where the countdown lives.
  const uint64_t Iters = 2000;
  InstrumentationConfig Mem;
  Mem.Framework = SamplingFramework::CounterBased;
  Mem.Interval = 128;
  InstrumentationConfig Reg = Mem;
  Reg.CounterPlacement = CounterHome::Register;

  NeverTakenDecider D1, D2;
  SiteLoop MemLoop(Mem, Iters);
  SiteLoop RegLoop(Reg, Iters);
  EXPECT_EQ(MemLoop.run(D1, Iters).first, RegLoop.run(D2, Iters).first);
}

TEST(Transform, RegisterCounterUsesFewerInstructions) {
  // Section 2 items 3-4: the register form's check/decrement is 2 inline
  // instructions instead of 4 (no load, no store), at the price of one
  // prologue setup instruction and a permanently-reserved register.
  auto ProgramLen = [](CounterHome Home) {
    InstrumentationConfig C;
    C.Framework = SamplingFramework::CounterBased;
    C.CounterPlacement = Home;
    C.Interval = 64;
    SiteLoop L(C, 4);
    return L.Prog.numInsts();
  };
  // One site: -2 inline, +1 setup, out-of-line block same length.
  EXPECT_EQ(ProgramLen(CounterHome::Memory) -
                ProgramLen(CounterHome::Register),
            1u);
}

TEST(Transform, RegisterCounterFullDuplication) {
  InstrumentationConfig C;
  C.Framework = SamplingFramework::CounterBased;
  C.CounterPlacement = CounterHome::Register;
  C.Dup = DuplicationMode::FullDuplication;
  C.Interval = 32;
  const uint64_t Iters = 32 * 8;
  SiteLoop L(C, Iters);
  NeverTakenDecider D;
  auto [Counter, Work] = L.run(D, Iters);
  EXPECT_NEAR(static_cast<double>(Counter), 8.0, 1.0);
}

TEST(Transform, DescribeConfigMentionsRegisterCounter) {
  InstrumentationConfig C;
  C.Framework = SamplingFramework::CounterBased;
  C.CounterPlacement = CounterHome::Register;
  C.Interval = 64;
  EXPECT_EQ(describeConfig(C), "cbs-reg no-dup interval=64 +inst");
}
