//===- tests/test_pipeline.cpp - Timing model tests -----------------------===//

#include "uarch/Pipeline.h"

#include "isa/ProgramBuilder.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

using namespace bor;

namespace {

/// A hot loop of \p Body instructions repeated \p Iters times; returns the
/// finished program. r2 is the loop counter.
Program loopProgram(uint64_t Iters,
                    const std::function<void(ProgramBuilder &)> &Body) {
  ProgramBuilder B;
  B.emitLoadConst(2, Iters);
  auto Loop = B.label();
  B.bind(Loop);
  Body(B);
  B.emit(Inst::addi(2, 2, -1));
  B.emitBranch(Opcode::Bne, 2, 0, Loop);
  B.emit(Inst::halt());
  return B.finish();
}

PipelineStats timeProgram(const Program &P, BrrDecider *D = nullptr,
                          uint64_t MaxInsts = 20000000) {
  const DecodedProgram DP(P);
  Pipeline Pipe(DP, PipelineConfig(), D);
  return Pipe.run(MaxInsts).Stats;
}

} // namespace

TEST(Pipeline, IndependentAluLoopApproachesFetchWidth) {
  // 10 independent ALU ops + loop overhead per iteration; fetch (3-wide,
  // stopping at the taken loop branch) is the bottleneck.
  Program P = loopProgram(2000, [](ProgramBuilder &B) {
    for (uint8_t R = 4; R != 14; ++R)
      B.emit(Inst::add(R, 0, 0));
  });
  PipelineStats S = timeProgram(P);
  EXPECT_GT(S.ipc(), 2.0);
  EXPECT_LE(S.ipc(), 3.05);
}

TEST(Pipeline, DependencyChainLimitsIpcToOne) {
  Program P = loopProgram(2000, [](ProgramBuilder &B) {
    for (int I = 0; I != 10; ++I)
      B.emit(Inst::add(4, 4, 4)); // serial chain
  });
  PipelineStats S = timeProgram(P);
  EXPECT_LT(S.ipc(), 1.3);
  EXPECT_GT(S.ipc(), 0.8);
}

TEST(Pipeline, LoopBranchIsPredictedAfterWarmup) {
  Program P = loopProgram(5000, [](ProgramBuilder &B) {
    B.emit(Inst::add(4, 4, 4));
  });
  PipelineStats S = timeProgram(P);
  EXPECT_EQ(S.CondBranches, 5000u);
  EXPECT_LT(S.CondMispredicts, 50u);
}

TEST(Pipeline, L1LoadLatencyThrottlesPointerChase) {
  // A self-referential load chain: each iteration's load feeds the next
  // load's address. L1D-hit latency (2 cycles) must show in the IPC.
  ProgramBuilder B;
  uint64_t Cell = B.allocData(8, 8);
  B.initDataU64(Cell, Cell); // points at itself
  B.emitLoadConst(1, Cell);
  B.emitLoadConst(2, 20000);
  auto Loop = B.label();
  B.bind(Loop);
  B.emit(Inst::ld(1, 1, 0));
  B.emit(Inst::addi(2, 2, -1));
  B.emitBranch(Opcode::Bne, 2, 0, Loop);
  B.emit(Inst::halt());
  PipelineStats S = timeProgram(B.finish());
  // >= 2 cycles per iteration (3 insts): IPC well under the ALU loop's.
  EXPECT_LT(S.ipc(), 1.6);
}

TEST(Pipeline, ColdMemoryMissesAreExpensive) {
  // Walk 64 KiB of data with 64B stride: every load is a cold L1D+L2 miss.
  ProgramBuilder B;
  uint64_t Buf = B.allocData(64 * 1024, 64);
  B.emitLoadConst(1, Buf);
  B.emitLoadConst(2, 1024);
  auto Loop = B.label();
  B.bind(Loop);
  B.emit(Inst::ld(4, 1, 0));
  B.emit(Inst::add(5, 5, 4)); // consume the load
  B.emit(Inst::addi(1, 1, 64));
  B.emit(Inst::addi(2, 2, -1));
  B.emitBranch(Opcode::Bne, 2, 0, Loop);
  B.emit(Inst::halt());
  PipelineStats S = timeProgram(B.finish());
  // The 80-entry ROB bounds memory-level parallelism: each 80-instruction
  // window is held open for a full memory latency, so the 5K-instruction
  // run needs several thousand cycles where a hot loop would need ~2K.
  EXPECT_GT(S.Cycles, 6000u);
}

TEST(Pipeline, BackendMispredictPenaltyNearElevenCycles) {
  // Branch on pre-generated random bytes; both outcomes execute one add
  // before rejoining, so path lengths match and the cycle delta against an
  // always-not-taken twin isolates the misprediction penalty.
  auto Build = [](bool Random) {
    ProgramBuilder B;
    const uint64_t N = 20000;
    uint64_t Buf = B.allocData(N, 8);
    std::vector<uint8_t> Bytes(N, 0);
    if (Random) {
      Xoshiro256 Rng(77);
      for (auto &V : Bytes)
        V = Rng.nextBelow(2);
    }
    B.initDataBytes(Buf, Bytes);
    B.emitLoadConst(1, Buf);
    B.emitLoadConst(2, N);
    auto Loop = B.label();
    auto TakenPath = B.label();
    auto Join = B.label();
    B.bind(Loop);
    B.emit(Inst::ldb(5, 1, 0));
    B.emit(Inst::addi(1, 1, 1));
    B.emitBranch(Opcode::Bne, 5, 0, TakenPath);
    B.emit(Inst::add(7, 7, 5));
    B.emitJmp(Join);
    B.bind(TakenPath);
    B.emit(Inst::add(7, 7, 5));
    B.bind(Join);
    B.emit(Inst::addi(2, 2, -1));
    B.emitBranch(Opcode::Bne, 2, 0, Loop);
    B.emit(Inst::halt());
    return B.finish();
  };

  PipelineStats Biased = timeProgram(Build(false));
  PipelineStats Rand = timeProgram(Build(true));
  EXPECT_LT(Biased.CondMispredicts, 2000u);
  EXPECT_GT(Rand.CondMispredicts, 7000u); // ~ N/2 on the data branch
  double Penalty =
      static_cast<double>(Rand.Cycles - Biased.Cycles) /
      static_cast<double>(Rand.CondMispredicts - Biased.CondMispredicts);
  // Section 5.1: minimum back-end misprediction penalty of 11 cycles.
  EXPECT_GE(Penalty, 8.0);
  EXPECT_LE(Penalty, 15.0);
}

TEST(Pipeline, BrrNotTakenIsNearlyFree) {
  // Identical loops, one with a never-taken brr in the body. The brr
  // commits at decode: its only cost is a fetch/decode slot.
  auto Body = [](ProgramBuilder &B) {
    for (int I = 0; I != 6; ++I)
      B.emit(Inst::add(static_cast<uint8_t>(4 + I), 0, 0));
  };
  Program Plain = loopProgram(20000, Body);
  Program WithBrr = loopProgram(20000, [&](ProgramBuilder &B) {
    auto Skip = B.label();
    B.emitBrr(FreqCode(9), Skip);
    Body(B);
    B.bind(Skip);
  });

  NeverTakenDecider Never1, Never2;
  PipelineStats SPlain = timeProgram(Plain, &Never1);
  PipelineStats SBrr = timeProgram(WithBrr, &Never2);
  double ExtraPerIter =
      static_cast<double>(SBrr.Cycles - SPlain.Cycles) / 20000.0;
  EXPECT_LT(ExtraPerIter, 1.0);
  EXPECT_EQ(SBrr.BrrExecuted, 20000u);
  EXPECT_EQ(SBrr.BrrTaken, 0u);
}

TEST(Pipeline, BrrTakenPaysShortFrontEndFlush) {
  // brr taken every time vs never: the delta per taken brr is the decode-
  // resolved front-end flush (~5 cycles), far below the back-end penalty.
  Program P = [] {
    ProgramBuilder B;
    B.emitLoadConst(2, 20000);
    auto Loop = B.label();
    auto Target = B.label();
    auto Back = B.label();
    B.bind(Loop);
    B.emitBrr(FreqCode(0), Target);
    B.bind(Back);
    B.emit(Inst::addi(2, 2, -1));
    B.emitBranch(Opcode::Bne, 2, 0, Loop);
    B.emit(Inst::halt());
    B.bind(Target);
    B.emitJmp(Back);
    return B.finish();
  }();

  AlwaysTakenDecider Always;
  NeverTakenDecider Never;
  PipelineStats STaken = timeProgram(P, &Always);
  PipelineStats SNever = timeProgram(P, &Never);
  double PerTaken =
      static_cast<double>(STaken.Cycles - SNever.Cycles) / 20000.0;
  EXPECT_GE(PerTaken, 3.0);
  EXPECT_LE(PerTaken, 9.0);
  EXPECT_EQ(STaken.BrrTaken, 20000u);
  EXPECT_GT(STaken.FrontendFlushCycles, 0u);
  EXPECT_EQ(SNever.FrontendFlushCycles, 0u);
}

TEST(Pipeline, BrrNeverTouchesPredictorOrBtb) {
  Program P = loopProgram(5000, [](ProgramBuilder &B) {
    auto Skip = B.label();
    B.emitBrr(FreqCode(1), Skip);
    B.bind(Skip);
    B.emit(Inst::add(4, 4, 4));
  });
  BrrUnitDecider D;
  const DecodedProgram DP(P);
  Pipeline Pipe(DP, PipelineConfig(), &D);
  PipelineStats S = Pipe.run(20000000).Stats;
  // Only the loop branch predicts/updates; the 5000 brrs are invisible.
  EXPECT_EQ(Pipe.predictor().stats().Predictions, S.CondBranches);
  // BTB entries: loop branch (+ nothing from brr). Taken brrs would have
  // inserted targets if they polluted the BTB.
  EXPECT_LE(Pipe.btb().stats().Inserts, S.CondBranches + 2);
  EXPECT_GT(S.BrrTaken, 1000u); // 25% of 5000 plus slack
}

TEST(Pipeline, BrrAsBackendBranchAblationIsSlower) {
  // The ablation of DESIGN.md: forcing brr through the back-end branch
  // path (predictor, BTB, execute-time resolution) must cost more than the
  // decode-resolved design at a high taken rate.
  Program P = loopProgram(20000, [](ProgramBuilder &B) {
    auto Skip = B.label();
    B.emitBrr(FreqCode(0), Skip); // 50%: heavy misprediction pressure
    B.bind(Skip);
    B.emit(Inst::add(4, 4, 4));
  });

  PipelineConfig Fast;
  PipelineConfig Ablated;
  Ablated.BrrAsBackendBranch = true;

  BrrUnitDecider D1, D2;
  const DecodedProgram DP(P);
  Pipeline PipeFast(DP, Fast, &D1);
  Pipeline PipeAblated(DP, Ablated, &D2);
  uint64_t FastCycles = PipeFast.run(20000000).Stats.Cycles;
  uint64_t AblatedCycles = PipeAblated.run(20000000).Stats.Cycles;
  EXPECT_GT(AblatedCycles, FastCycles + FastCycles / 10);
}

TEST(Pipeline, MarkersRecordRegionOfInterest) {
  ProgramBuilder B;
  B.emit(Inst::marker(1));
  for (int I = 0; I != 50; ++I)
    B.emit(Inst::add(4, 4, 4));
  B.emit(Inst::marker(2));
  B.emit(Inst::halt());
  Program P = B.finish();
  const DecodedProgram DP(P);
  Pipeline Pipe(DP, PipelineConfig());
  const std::vector<MarkerEvent> Events = Pipe.run(1000).Markers;
  ASSERT_EQ(Events.size(), 2u);
  EXPECT_EQ(Events[0].Id, 1);
  EXPECT_EQ(Events[1].Id, 2);
  EXPECT_GT(Events[1].CommitCycle, Events[0].CommitCycle);
  EXPECT_EQ(Events[1].InstsRetired - Events[0].InstsRetired, 51u);
}

TEST(Pipeline, ReturnsPredictViaRas) {
  // Call/return pairs in a loop: after warmup, returns hit in the RAS and
  // indirect mispredictions stay rare.
  ProgramBuilder B;
  B.emitLoadConst(2, 3000);
  auto Loop = B.label();
  auto Func = B.label();
  B.bind(Loop);
  B.emitJal(RegLr, Func);
  B.emit(Inst::addi(2, 2, -1));
  B.emitBranch(Opcode::Bne, 2, 0, Loop);
  B.emit(Inst::halt());
  B.bind(Func);
  B.emit(Inst::add(4, 4, 4));
  B.emit(Inst::ret());

  PipelineStats S = timeProgram(B.finish());
  EXPECT_EQ(S.IndirectBranches, 3000u);
  EXPECT_LT(S.IndirectMispredicts, 30u);
}

TEST(Pipeline, IcacheStallsOnHugeCodeFootprint) {
  // A straight-line block much larger than the 32KB L1I, executed twice:
  // the second pass still misses (capacity) and fetch stalls accumulate.
  ProgramBuilder B;
  B.emitLoadConst(2, 2);
  auto Loop = B.label();
  B.bind(Loop);
  for (int I = 0; I != 20000; ++I) // 80 KB of code
    B.emit(Inst::add(4, 4, 4));
  B.emit(Inst::addi(2, 2, -1));
  B.emitBranch(Opcode::Bne, 2, 0, Loop);
  B.emit(Inst::halt());
  PipelineStats S = timeProgram(B.finish());
  EXPECT_GT(S.FetchIcacheStallCycles, 10000u);
}

TEST(Pipeline, RobLimitsInflightMemoryMisses) {
  PipelineConfig Small;
  Small.RobEntries = 8;
  PipelineConfig Big;
  Big.RobEntries = 80;

  auto Build = [] {
    ProgramBuilder B;
    uint64_t Buf = B.allocData(256 * 1024, 64);
    B.emitLoadConst(1, Buf);
    B.emitLoadConst(2, 2000);
    auto Loop = B.label();
    B.bind(Loop);
    B.emit(Inst::ld(4, 1, 0)); // independent misses
    B.emit(Inst::ld(5, 1, 64));
    B.emit(Inst::addi(1, 1, 128));
    B.emit(Inst::addi(2, 2, -1));
    B.emitBranch(Opcode::Bne, 2, 0, Loop);
    B.emit(Inst::halt());
    return B.finish();
  };

  Program ProgSmall = Build();
  Program ProgBig = Build();
  const DecodedProgram DecSmall(ProgSmall);
  const DecodedProgram DecBig(ProgBig);
  Pipeline PSmall(DecSmall, Small);
  Pipeline PBig(DecBig, Big);
  uint64_t CSmall = PSmall.run(20000000).Stats.Cycles;
  uint64_t CBig = PBig.run(20000000).Stats.Cycles;
  EXPECT_GT(CSmall, CBig) << "a tiny ROB must hurt memory-level parallelism";
}

TEST(Pipeline, StatsCyclesNonZeroAndInstsExact) {
  Program P = loopProgram(10, [](ProgramBuilder &B) {
    B.emit(Inst::nop());
  });
  PipelineStats S = timeProgram(P);
  // emitLoadConst(2, 10) = 1 inst; 10 iters x 3 insts; halt.
  EXPECT_EQ(S.Insts, 1 + 10 * 3 + 1u);
  EXPECT_GT(S.Cycles, 10u);
}

TEST(Pipeline, PerfectPredictionRemovesBranchCosts) {
  Program P = loopProgram(10000, [](ProgramBuilder &B) {
    auto Skip = B.label();
    B.emitBrr(FreqCode(0), Skip); // 50%: expensive without the oracle
    B.bind(Skip);
    B.emit(Inst::add(4, 4, 4));
  });

  PipelineConfig Oracle;
  Oracle.PerfectBranchPrediction = true;

  BrrUnitDecider D1, D2;
  const DecodedProgram DP(P);
  Pipeline Real(DP, PipelineConfig(), &D1);
  Pipeline Perfect(DP, Oracle, &D2);
  PipelineStats SReal = Real.run(20000000).Stats;
  PipelineStats SPerfect = Perfect.run(20000000).Stats;

  EXPECT_LT(SPerfect.Cycles, SReal.Cycles);
  EXPECT_EQ(SPerfect.CondMispredicts, 0u);
  EXPECT_EQ(SPerfect.FrontendFlushCycles, 0u);
  EXPECT_EQ(SPerfect.BackendFlushCycles, 0u);
  // Control instructions are still counted.
  EXPECT_EQ(SPerfect.CondBranches, 10000u);
  EXPECT_EQ(SPerfect.BrrExecuted, 10000u);
}

TEST(Pipeline, PerfectPredictionSameArchitecturalWork) {
  Program P = loopProgram(1000, [](ProgramBuilder &B) {
    B.emit(Inst::add(4, 4, 4));
  });
  PipelineConfig Oracle;
  Oracle.PerfectBranchPrediction = true;
  const DecodedProgram DP(P);
  Pipeline Perfect(DP, Oracle);
  PipelineStats S = Perfect.run(20000000).Stats;
  EXPECT_EQ(S.Insts, 1 + 1000 * 3 + 1u);
}

TEST(Pipeline, DescribeStatsMentionsKeyFields) {
  Program P = loopProgram(100, [](ProgramBuilder &B) {
    auto Skip = B.label();
    B.emitBrr(FreqCode(2), Skip);
    B.bind(Skip);
  });
  const DecodedProgram DP(P);
  Pipeline Pipe(DP, PipelineConfig());
  PipelineStats S = Pipe.run(1000000).Stats;
  std::string Text = describeStats(S);
  EXPECT_NE(Text.find("cycles"), std::string::npos);
  EXPECT_NE(Text.find("IPC"), std::string::npos);
  EXPECT_NE(Text.find("brr executed"), std::string::npos);
  EXPECT_NE(Text.find("100"), std::string::npos);
}
