//===- tests/test_pipeline_invariants.cpp - Timing-model structural laws --===//
//
// Property tests over the pipeline's per-instruction timestamps (via the
// observer API): for arbitrary random programs the stage ordering, stage
// widths, and ROB occupancy limits of the configured machine must hold for
// every committed instruction.
//
//===----------------------------------------------------------------------===//

#include "isa/ProgramBuilder.h"
#include "support/Rng.h"
#include "uarch/Pipeline.h"

#include <gtest/gtest.h>

#include <map>

using namespace bor;

namespace {

/// A random but structured program: a counted loop of ALU/memory/branch
/// soup (simplified variant of the differential test's generator).
Program randomProgram(uint64_t Seed) {
  Xoshiro256 Rng(Seed);
  ProgramBuilder B;
  uint64_t Buf = B.allocData(512, 8);
  B.emitLoadConst(20, Buf);
  B.emitLoadConst(2, 60);
  auto Loop = B.label();
  B.bind(Loop);
  unsigned Body = 10 + Rng.nextBelow(30);
  for (unsigned I = 0; I != Body; ++I) {
    uint8_t Rd = static_cast<uint8_t>(3 + Rng.nextBelow(8));
    uint8_t Rs = static_cast<uint8_t>(3 + Rng.nextBelow(8));
    switch (Rng.nextBelow(5)) {
    case 0:
      B.emit(Inst::add(Rd, Rs, 3));
      break;
    case 1:
      B.emit(Inst::alu(Opcode::Mul, Rd, Rs, 4));
      break;
    case 2:
      B.emit(Inst::ld(Rd, 20, static_cast<int32_t>(8 * Rng.nextBelow(64))));
      break;
    case 3:
      B.emit(Inst::st(Rs, 20, static_cast<int32_t>(8 * Rng.nextBelow(64))));
      break;
    case 4: {
      auto Skip = B.label();
      B.emitBrr(FreqCode(1), Skip);
      B.emit(Inst::add(Rd, Rd, Rd));
      B.bind(Skip);
      break;
    }
    }
  }
  B.emit(Inst::addi(2, 2, -1));
  B.emitBranch(Opcode::Bne, 2, 0, Loop);
  B.emit(Inst::halt());
  return B.finish();
}

} // namespace

class PipelineInvariants : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PipelineInvariants, StageLawsHoldForEveryInstruction) {
  Program P = randomProgram(GetParam());
  PipelineConfig Cfg;

  std::vector<InstTimestamps> Trace;
  const DecodedProgram DP(P);
  Pipeline Pipe(DP, Cfg);
  Pipe.setObserver([&Trace](const InstTimestamps &TS) {
    Trace.push_back(TS);
  });
  PipelineStats S = Pipe.run(10000000).Stats;
  ASSERT_EQ(Trace.size(), S.Insts);

  std::map<uint64_t, unsigned> IssuePerCycle;
  std::map<uint64_t, unsigned> CommitPerCycle;
  std::map<uint64_t, unsigned> DecodePerCycle;
  uint64_t LastDecode = 0;
  uint64_t LastCommit = 0;

  // Sliding ROB-occupancy check: dispatch of instruction i must wait for
  // the commit of the instruction RobEntries slots earlier.
  std::vector<const InstTimestamps *> RobOrder;

  for (const InstTimestamps &TS : Trace) {
    // Front-end depth and ordering.
    EXPECT_GE(TS.Decode, TS.Fetch + Cfg.FetchToDecode) << "pc " << TS.Pc;
    EXPECT_GE(TS.Decode, LastDecode) << "decode must be in order";
    LastDecode = TS.Decode;
    ++DecodePerCycle[TS.Decode];

    if (TS.CommittedAtDecode) {
      EXPECT_TRUE(TS.I.isBrr());
      EXPECT_EQ(TS.Commit, TS.Decode);
      continue;
    }

    // Back-end ordering.
    EXPECT_GE(TS.Dispatch, TS.Decode + Cfg.DecodeToDispatch);
    EXPECT_GE(TS.Issue, TS.Dispatch + Cfg.DispatchToIssue);
    EXPECT_GT(TS.Done, TS.Issue);
    EXPECT_GE(TS.Commit, TS.Done + 1);
    EXPECT_GE(TS.Commit, LastCommit) << "commit must be in order";
    LastCommit = TS.Commit;

    ++IssuePerCycle[TS.Issue];
    ++CommitPerCycle[TS.Commit];

    RobOrder.push_back(&TS);
    size_t N = RobOrder.size();
    if (N > Cfg.RobEntries) {
      const InstTimestamps *Evictee = RobOrder[N - 1 - Cfg.RobEntries];
      EXPECT_GE(RobOrder.back()->Dispatch, Evictee->Commit + 1)
          << "ROB occupancy exceeded " << Cfg.RobEntries;
    }
  }

  for (const auto &[Cycle, Count] : DecodePerCycle)
    EXPECT_LE(Count, Cfg.DecodeWidth) << "decode width at cycle " << Cycle;
  for (const auto &[Cycle, Count] : IssuePerCycle)
    EXPECT_LE(Count, Cfg.IssueWidth) << "issue width at cycle " << Cycle;
  for (const auto &[Cycle, Count] : CommitPerCycle)
    EXPECT_LE(Count, Cfg.CommitWidth) << "commit width at cycle " << Cycle;
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineInvariants,
                         ::testing::Range<uint64_t>(100, 112),
                         [](const auto &Info) {
                           return "seed" + std::to_string(Info.param);
                         });

TEST(PipelineObserver, BrrFastPathIsVisible) {
  ProgramBuilder B;
  auto Skip = B.label();
  B.emitBrr(FreqCode(9), Skip);
  B.bind(Skip);
  B.emit(Inst::add(3, 3, 3));
  B.emit(Inst::halt());

  Program P = B.finish();
  std::vector<InstTimestamps> Trace;
  NeverTakenDecider D;
  const DecodedProgram DP(P);
  Pipeline Pipe(DP, PipelineConfig(), &D);
  Pipe.setObserver([&Trace](const InstTimestamps &TS) {
    Trace.push_back(TS);
  });
  Pipe.run(100);
  ASSERT_EQ(Trace.size(), 3u);
  EXPECT_TRUE(Trace[0].CommittedAtDecode);
  EXPECT_FALSE(Trace[1].CommittedAtDecode);
  EXPECT_EQ(Trace[0].Commit, Trace[0].Decode);
}

TEST(PipelineObserver, DisabledByDefaultAndDetachable) {
  ProgramBuilder B;
  B.emit(Inst::halt());
  Program P = B.finish();
  const DecodedProgram DP(P);
  Pipeline Pipe(DP, PipelineConfig());
  int Calls = 0;
  Pipe.setObserver([&Calls](const InstTimestamps &) { ++Calls; });
  Pipe.setObserver(nullptr);
  Pipe.run(10);
  EXPECT_EQ(Calls, 0);
}

TEST(PipelineInvariantsConfig, NarrowMachineRespectsItsWidths) {
  Program P = randomProgram(4242);
  PipelineConfig Narrow;
  Narrow.FetchWidth = 1;
  Narrow.DecodeWidth = 1;
  Narrow.IssueWidth = 1;
  Narrow.CommitWidth = 1;
  Narrow.RobEntries = 4;

  std::map<uint64_t, unsigned> CommitPerCycle;
  const DecodedProgram DP(P);
  Pipeline Pipe(DP, Narrow);
  Pipe.setObserver([&CommitPerCycle](const InstTimestamps &TS) {
    if (!TS.CommittedAtDecode)
      ++CommitPerCycle[TS.Commit];
  });
  PipelineStats S = Pipe.run(10000000).Stats;
  for (const auto &[Cycle, Count] : CommitPerCycle)
    EXPECT_LE(Count, 1u);
  EXPECT_LT(S.ipc(), 1.01);
}
