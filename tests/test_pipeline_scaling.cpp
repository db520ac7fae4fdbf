//===- tests/test_pipeline_scaling.cpp - Resource monotonicity laws -------===//
//
// Property tests that the timing model responds sanely to resources: for a
// fixed program, giving the machine strictly more of any resource (width,
// ROB entries, cache, prediction quality, forwarding speed) must never
// make it slower, and starving a resource must never make it faster.
//
//===----------------------------------------------------------------------===//

#include "isa/ProgramBuilder.h"
#include "uarch/Pipeline.h"
#include "workloads/Microbench.h"

#include <gtest/gtest.h>

using namespace bor;

namespace {

/// A mixed workload exercising fetch, memory and branches.
Program mixedProgram() {
  MicrobenchConfig C;
  C.Text.NumChars = 20000;
  C.Instr.Framework = SamplingFramework::CounterBased;
  C.Instr.Interval = 32;
  return buildMicrobench(C).Prog;
}

uint64_t cyclesWith(const Program &P, const PipelineConfig &Cfg) {
  HwCounterDecider D;
  const DecodedProgram DP(P);
  Pipeline Pipe(DP, Cfg, &D);
  return Pipe.run(1ULL << 40).Stats.Cycles;
}

} // namespace

TEST(PipelineScaling, WiderMachinesAreNeverSlower) {
  Program P = mixedProgram();
  uint64_t Prev = ~0ULL;
  for (unsigned Width : {1u, 2u, 3u, 4u}) {
    PipelineConfig Cfg;
    Cfg.FetchWidth = Width;
    Cfg.DecodeWidth = Width;
    Cfg.IssueWidth = Width;
    Cfg.CommitWidth = Width;
    uint64_t Cycles = cyclesWith(P, Cfg);
    EXPECT_LE(Cycles, Prev) << "width " << Width;
    Prev = Cycles;
  }
}

TEST(PipelineScaling, BiggerRobIsNeverSlower) {
  Program P = mixedProgram();
  uint64_t Prev = ~0ULL;
  for (unsigned Rob : {8u, 16u, 40u, 80u, 160u}) {
    PipelineConfig Cfg;
    Cfg.RobEntries = Rob;
    uint64_t Cycles = cyclesWith(P, Cfg);
    EXPECT_LE(Cycles, Prev) << "rob " << Rob;
    Prev = Cycles;
  }
}

TEST(PipelineScaling, FasterForwardingIsNeverSlower) {
  Program P = mixedProgram();
  uint64_t Prev = 0;
  for (unsigned Delay : {1u, 3u, 8u}) {
    PipelineConfig Cfg;
    Cfg.StoreForwardDelay = Delay;
    uint64_t Cycles = cyclesWith(P, Cfg);
    EXPECT_GE(Cycles, Prev) << "forward delay " << Delay;
    Prev = Cycles;
  }
}

TEST(PipelineScaling, PerfectPredictionIsNeverSlower) {
  Program P = mixedProgram();
  PipelineConfig Real;
  PipelineConfig Oracle;
  Oracle.PerfectBranchPrediction = true;
  EXPECT_LE(cyclesWith(P, Oracle), cyclesWith(P, Real));
}

TEST(PipelineScaling, LargerMispredictPenaltyIsNeverFaster) {
  Program P = mixedProgram();
  uint64_t Prev = 0;
  for (unsigned Redirect : {1u, 3u, 10u}) {
    PipelineConfig Cfg;
    Cfg.MispredictRedirect = Redirect;
    uint64_t Cycles = cyclesWith(P, Cfg);
    EXPECT_GE(Cycles, Prev) << "redirect " << Redirect;
    Prev = Cycles;
  }
}

TEST(PipelineScaling, ContinuingFetchPastTakenBranchesHelps) {
  // The fetch-stop ablation (DESIGN.md decision 3): an ideal front end
  // that refills across taken branches is never slower, and on this
  // branch-heavy loop measurably faster.
  Program P = mixedProgram();
  PipelineConfig Stops;
  PipelineConfig Continues;
  Continues.FetchStopsAtTakenBranch = false;
  uint64_t WithStops = cyclesWith(P, Stops);
  uint64_t Without = cyclesWith(P, Continues);
  EXPECT_LT(Without, WithStops);
}

TEST(PipelineScaling, SlowerMemoryIsNeverFaster) {
  Program P = mixedProgram();
  uint64_t Prev = 0;
  for (unsigned Mem : {60u, 140u, 300u}) {
    PipelineConfig Cfg;
    Cfg.MemHier.MemCycles = Mem;
    uint64_t Cycles = cyclesWith(P, Cfg);
    EXPECT_GE(Cycles, Prev) << "memory " << Mem;
    Prev = Cycles;
  }
}

TEST(PipelineScaling, TinyIcacheIsNeverFaster) {
  Program P = mixedProgram();
  PipelineConfig Big;   // 32 KB
  PipelineConfig Tiny;
  Tiny.MemHier.L1I = {1024, 2, 64};
  EXPECT_GE(cyclesWith(P, Tiny), cyclesWith(P, Big));
}

TEST(PipelineScaling, ArchitecturalWorkIsResourceIndependent) {
  // Whatever the machine shape, the same instructions commit.
  Program P = mixedProgram();
  PipelineConfig Narrow;
  Narrow.FetchWidth = 1;
  Narrow.DecodeWidth = 1;
  Narrow.IssueWidth = 1;
  Narrow.CommitWidth = 1;
  Narrow.RobEntries = 4;

  HwCounterDecider D1, D2;
  const DecodedProgram DP(P);
  Pipeline Wide(DP, PipelineConfig(), &D1);
  Pipeline Thin(DP, Narrow, &D2);
  PipelineStats SW = Wide.run(1ULL << 40).Stats;
  PipelineStats ST = Thin.run(1ULL << 40).Stats;
  EXPECT_EQ(SW.Insts, ST.Insts);
  EXPECT_EQ(SW.BrrExecuted, ST.BrrExecuted);
  EXPECT_EQ(SW.CondBranches, ST.CondBranches);
}
