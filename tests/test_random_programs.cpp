//===- tests/test_random_programs.cpp - Differential simulator testing ----===//
//
// Property: the timing pipeline's functional oracle is exactly the
// functional interpreter, so for any program and any *deterministic* brr
// decider, a timed run must retire the same instruction stream and leave
// identical architectural state (registers and memory) as a functional
// run. We fuzz this with randomly generated structured programs covering
// ALU ops, memory traffic, forward branches, brr skips and calls.
//
//===----------------------------------------------------------------------===//

#include "RandomProgramGen.h"

#include "sim/Interpreter.h"
#include "uarch/Pipeline.h"

#include <gtest/gtest.h>

using namespace bor;

namespace {

using namespace bor::testgen;

struct ArchState {
  std::array<uint64_t, 32> Regs;
  std::vector<uint64_t> BufWords;
  uint64_t Insts;
};

ArchState captureState(Machine &M, const Program &P, uint64_t Insts) {
  ArchState S;
  for (unsigned R = 0; R != 32; ++R)
    S.Regs[R] = M.readReg(R);
  uint64_t Buf = P.symbol("buf");
  for (size_t I = 0; I != BufBytes / 8; ++I)
    S.BufWords.push_back(M.memory().readU64(Buf + 8 * I));
  S.Insts = Insts;
  return S;
}

} // namespace

class RandomProgramDifferential : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(RandomProgramDifferential, PipelineMatchesInterpreter) {
  Program P = randomProgram(GetParam());

  // Both runs use deterministic hardware-counter brr deciders so they make
  // identical sampling decisions.
  Machine FuncMachine;
  HwCounterDecider FuncDecider;
  const DecodedProgram DP(P);
  Interpreter Func(DP, FuncMachine, FuncDecider);
  RunStats FuncStats = Func.run(4000000);
  ASSERT_TRUE(FuncStats.Halted);

  HwCounterDecider TimedDecider;
  Pipeline Timed(DP, PipelineConfig(), &TimedDecider);
  PipelineStats TimedStats = Timed.run(4000000).Stats;

  ArchState A = captureState(FuncMachine, P, FuncStats.Insts);
  ArchState B = captureState(Timed.machine(), P, TimedStats.Insts);

  EXPECT_EQ(A.Insts, B.Insts) << "instruction counts diverged";
  for (unsigned R = 0; R != 32; ++R)
    EXPECT_EQ(A.Regs[R], B.Regs[R]) << "r" << R;
  EXPECT_EQ(A.BufWords, B.BufWords) << "memory diverged";
  EXPECT_GT(TimedStats.Cycles, 0u);
  EXPECT_EQ(TimedStats.BrrExecuted, FuncStats.BrrExecuted);
  EXPECT_EQ(TimedStats.BrrTaken, FuncStats.BrrTaken);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramDifferential,
                         ::testing::Range<uint64_t>(1, 21),
                         [](const auto &Info) {
                           return "seed" + std::to_string(Info.param);
                         });
