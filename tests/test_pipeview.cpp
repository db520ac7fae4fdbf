//===- tests/test_pipeview.cpp - Pipeline diagram tests -------------------===//

#include "uarch/Pipeview.h"

#include "isa/ProgramBuilder.h"

#include <gtest/gtest.h>

using namespace bor;

namespace {

Program tinyProgram() {
  ProgramBuilder B;
  auto Skip = B.label();
  B.emit(Inst::add(3, 1, 2));
  B.emitBrr(FreqCode(9), Skip);
  B.bind(Skip);
  B.emit(Inst::ld(4, 0, 0x100));
  B.emit(Inst::halt());
  return B.finish();
}

} // namespace

TEST(Pipeview, RecordsBoundedWindow) {
  Program P = tinyProgram();
  NeverTakenDecider D;
  const DecodedProgram DP(P);
  Pipeline Pipe(DP, PipelineConfig(), &D);
  PipeviewRecorder R(2);
  R.attach(Pipe);
  Pipe.run(100);
  EXPECT_EQ(R.records().size(), 2u);
  EXPECT_EQ(R.records()[0].I.Op, Opcode::Add);
  EXPECT_EQ(R.records()[1].I.Op, Opcode::Brr);
}

TEST(Pipeview, SkipOffsetsTheWindow) {
  Program P = tinyProgram();
  NeverTakenDecider D;
  const DecodedProgram DP(P);
  Pipeline Pipe(DP, PipelineConfig(), &D);
  PipeviewRecorder R(2, /*SkipInsts=*/1);
  R.attach(Pipe);
  Pipe.run(100);
  ASSERT_EQ(R.records().size(), 2u);
  EXPECT_EQ(R.records()[0].I.Op, Opcode::Brr);
}

TEST(Pipeview, RenderShowsStagesAndDisassembly) {
  Program P = tinyProgram();
  NeverTakenDecider D;
  const DecodedProgram DP(P);
  Pipeline Pipe(DP, PipelineConfig(), &D);
  PipeviewRecorder R;
  R.attach(Pipe);
  Pipe.run(100);
  std::string Diagram = R.render();
  EXPECT_NE(Diagram.find("add r3, r1, r2"), std::string::npos);
  EXPECT_NE(Diagram.find("brr 1/1024"), std::string::npos);
  EXPECT_NE(Diagram.find('F'), std::string::npos);
  EXPECT_NE(Diagram.find('D'), std::string::npos);
  EXPECT_NE(Diagram.find('C'), std::string::npos);
  // One row per instruction plus the header line.
  size_t Lines = 0;
  for (char C : Diagram)
    Lines += C == '\n';
  EXPECT_EQ(Lines, 1 + R.records().size());
}

TEST(Pipeview, BrrRowEndsAtDecode) {
  Program P = tinyProgram();
  NeverTakenDecider D;
  const DecodedProgram DP(P);
  Pipeline Pipe(DP, PipelineConfig(), &D);
  PipeviewRecorder R;
  R.attach(Pipe);
  Pipe.run(100);
  // The brr's record commits at decode; non-brr instructions must show an
  // issue and commit stage.
  ASSERT_GE(R.records().size(), 3u);
  EXPECT_TRUE(R.records()[1].CommittedAtDecode);
  EXPECT_FALSE(R.records()[2].CommittedAtDecode);
  EXPECT_GT(R.records()[2].Commit, R.records()[2].Decode);
}

TEST(Pipeview, EmptyRecorderRendersEmpty) {
  PipeviewRecorder R;
  EXPECT_EQ(R.render(), "");
}

TEST(Pipeview, TruncatesVeryLongRows) {
  // A load that misses to memory spans >100 cycles: the row is truncated
  // with a '+'.
  ProgramBuilder B;
  B.emitLoadConst(1, 0x40000);
  B.emit(Inst::ld(4, 1, 0)); // cold miss: 142 cycles
  B.emit(Inst::add(5, 4, 4));
  B.emit(Inst::halt());
  Program P = B.finish();
  const DecodedProgram DP(P);
  Pipeline Pipe(DP, PipelineConfig());
  PipeviewRecorder R;
  R.attach(Pipe);
  Pipe.run(100);
  std::string Diagram = R.render(/*MaxColumns=*/40);
  EXPECT_NE(Diagram.find('+'), std::string::npos);
}

TEST(PipelineTrapEmulation, CostsFarMoreThanNativeBrr) {
  // Section 3.4's SIGILL fallback: functional behaviour identical, timing
  // catastrophically worse - the reason the instruction wants real decode
  // support for production use.
  ProgramBuilder B;
  B.emitLoadConst(2, 5000);
  auto Loop = B.label();
  auto Skip = B.label();
  B.bind(Loop);
  B.emitBrr(FreqCode(9), Skip);
  B.bind(Skip);
  B.emit(Inst::addi(2, 2, -1));
  B.emitBranch(Opcode::Bne, 2, 0, Loop);
  B.emit(Inst::halt());
  Program P = B.finish();

  PipelineConfig Native;
  PipelineConfig Trap;
  Trap.BrrTrapCycles = 300; // kernel entry + handler + return

  HwCounterDecider D1, D2;
  const DecodedProgram DP(P);
  Pipeline NativePipe(DP, Native, &D1);
  Pipeline TrapPipe(DP, Trap, &D2);
  PipelineStats SNative = NativePipe.run(10000000).Stats;
  PipelineStats STrap = TrapPipe.run(10000000).Stats;

  EXPECT_EQ(SNative.BrrExecuted, STrap.BrrExecuted);
  EXPECT_EQ(SNative.BrrTaken, STrap.BrrTaken);
  EXPECT_EQ(SNative.Insts, STrap.Insts) << "same architectural work";
  EXPECT_GT(STrap.Cycles, SNative.Cycles * 20)
      << "every brr should pay the trap";
}

TEST(PipelineTrapEmulation, ArchitecturalStateUnchanged) {
  ProgramBuilder B;
  auto Skip = B.label();
  B.emitLoadConst(2, 100);
  auto Loop = B.label();
  B.bind(Loop);
  B.emitBrr(FreqCode(1), Skip);
  B.emit(Inst::addi(5, 5, 1)); // fall-through work
  B.bind(Skip);
  B.emit(Inst::addi(2, 2, -1));
  B.emitBranch(Opcode::Bne, 2, 0, Loop);
  B.emit(Inst::halt());
  Program P = B.finish();

  PipelineConfig Trap;
  Trap.BrrTrapCycles = 200;
  HwCounterDecider D1, D2;
  const DecodedProgram DP(P);
  Pipeline NativePipe(DP, PipelineConfig(), &D1);
  Pipeline TrapPipe(DP, Trap, &D2);
  NativePipe.run(1000000);
  TrapPipe.run(1000000);
  EXPECT_EQ(NativePipe.machine().readReg(5), TrapPipe.machine().readReg(5));
}
