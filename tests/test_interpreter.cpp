//===- tests/test_interpreter.cpp - Functional execution tests ------------===//

#include "sim/Interpreter.h"

#include "isa/ProgramBuilder.h"

#include <gtest/gtest.h>

using namespace bor;

namespace {

/// Runs a freshly built program with the given decider and returns the
/// machine for inspection.
struct ExecRun {
  Machine M;
  RunStats Stats;

  ExecRun(const Program &P, BrrDecider &D, uint64_t MaxSteps = 100000) {
    const DecodedProgram DP(P);
    Interpreter I(DP, M, D);
    Stats = I.run(MaxSteps);
  }
};

} // namespace

TEST(Interpreter, AluArithmetic) {
  ProgramBuilder B;
  B.emit(Inst::li(1, 7));
  B.emit(Inst::li(2, 5));
  B.emit(Inst::add(3, 1, 2));
  B.emit(Inst::sub(4, 1, 2));
  B.emit(Inst::alu(Opcode::Mul, 5, 1, 2));
  B.emit(Inst::alu(Opcode::And, 6, 1, 2));
  B.emit(Inst::alu(Opcode::Or, 7, 1, 2));
  B.emit(Inst::alu(Opcode::Xor, 8, 1, 2));
  B.emit(Inst::halt());
  NeverTakenDecider D;
  ExecRun R(B.finish(), D);
  EXPECT_EQ(R.M.readReg(3), 12u);
  EXPECT_EQ(R.M.readReg(4), 2u);
  EXPECT_EQ(R.M.readReg(5), 35u);
  EXPECT_EQ(R.M.readReg(6), 5u);
  EXPECT_EQ(R.M.readReg(7), 7u);
  EXPECT_EQ(R.M.readReg(8), 2u);
}

TEST(Interpreter, ShiftsAndComparisons) {
  ProgramBuilder B;
  B.emit(Inst::li(1, 3));
  B.emit(Inst::li(2, 2));
  B.emit(Inst::alu(Opcode::Sll, 3, 1, 2));  // 3 << 2 = 12
  B.emit(Inst::alu(Opcode::Srl, 4, 3, 2));  // 12 >> 2 = 3
  B.emit(Inst::li(5, -1));
  B.emit(Inst::alu(Opcode::Slt, 6, 5, 1));  // -1 < 3 signed -> 1
  B.emit(Inst::alu(Opcode::Sltu, 7, 5, 1)); // huge unsigned -> 0
  B.emit(Inst::alui(Opcode::Slti, 8, 5, 0)); // -1 < 0 -> 1
  B.emit(Inst::alui(Opcode::Slli, 9, 1, 4)); // 48
  B.emit(Inst::alui(Opcode::Srli, 10, 9, 3)); // 6
  B.emit(Inst::halt());
  NeverTakenDecider D;
  ExecRun R(B.finish(), D);
  EXPECT_EQ(R.M.readReg(3), 12u);
  EXPECT_EQ(R.M.readReg(4), 3u);
  EXPECT_EQ(R.M.readReg(6), 1u);
  EXPECT_EQ(R.M.readReg(7), 0u);
  EXPECT_EQ(R.M.readReg(8), 1u);
  EXPECT_EQ(R.M.readReg(9), 48u);
  EXPECT_EQ(R.M.readReg(10), 6u);
}

TEST(Interpreter, SignedImmediateLogic) {
  ProgramBuilder B;
  B.emit(Inst::li(1, 0x00ff));
  B.emit(Inst::alui(Opcode::Andi, 2, 1, 0x0f0));
  B.emit(Inst::alui(Opcode::Ori, 3, 1, 0x700));
  B.emit(Inst::alui(Opcode::Xori, 4, 1, 0x0ff));
  B.emit(Inst::halt());
  NeverTakenDecider D;
  ExecRun R(B.finish(), D);
  EXPECT_EQ(R.M.readReg(2), 0xf0u);
  EXPECT_EQ(R.M.readReg(3), 0x7ffu);
  EXPECT_EQ(R.M.readReg(4), 0u);
}

TEST(Interpreter, LoadsAndStores) {
  ProgramBuilder B;
  uint64_t Addr = B.allocData(16, 8);
  B.initDataU64(Addr, 0x1234);
  B.emitLoadConst(1, Addr);
  B.emit(Inst::ld(2, 1, 0));
  B.emit(Inst::addi(2, 2, 1));
  B.emit(Inst::st(2, 1, 8));
  B.emit(Inst::ldb(3, 1, 0)); // low byte of 0x1234 = 0x34
  B.emit(Inst::stb(3, 1, 1));
  B.emit(Inst::halt());
  NeverTakenDecider D;
  ExecRun R(B.finish(), D);
  EXPECT_EQ(R.M.memory().readU64(Addr + 8), 0x1235u);
  EXPECT_EQ(R.M.readReg(3), 0x34u);
  EXPECT_EQ(R.M.memory().readU8(Addr + 1), 0x34u);
  EXPECT_EQ(R.Stats.Loads, 2u);
  EXPECT_EQ(R.Stats.Stores, 2u);
}

TEST(Interpreter, ConditionalBranchesAllOps) {
  // Compute a bitmask of which branches were taken.
  ProgramBuilder B;
  B.emit(Inst::li(1, 5));
  B.emit(Inst::li(2, 5));
  B.emit(Inst::li(3, -3));
  B.emit(Inst::li(10, 0));

  auto T1 = B.label();
  auto T2 = B.label();
  auto C1 = B.label();
  B.emitBranch(Opcode::Beq, 1, 2, T1); // taken
  B.emit(Inst::halt());                // skipped
  B.bind(T1);
  B.emit(Inst::alui(Opcode::Ori, 10, 10, 1));
  B.emitBranch(Opcode::Bne, 1, 2, T2); // not taken
  B.emit(Inst::alui(Opcode::Ori, 10, 10, 2));
  B.bind(T2);
  B.emitBranch(Opcode::Blt, 3, 1, C1); // -3 < 5 -> taken
  B.emit(Inst::halt());
  B.bind(C1);
  B.emit(Inst::alui(Opcode::Ori, 10, 10, 4));
  auto End = B.label();
  B.emitBranch(Opcode::Bge, 1, 2, End); // 5 >= 5 -> taken
  B.emit(Inst::halt());
  B.bind(End);
  B.emit(Inst::alui(Opcode::Ori, 10, 10, 8));
  B.emit(Inst::halt());

  NeverTakenDecider D;
  ExecRun R(B.finish(), D);
  EXPECT_EQ(R.M.readReg(10), 1u | 2u | 4u | 8u);
  EXPECT_EQ(R.Stats.CondBranches, 4u);
  EXPECT_EQ(R.Stats.CondTaken, 3u);
}

TEST(Interpreter, CallAndReturn) {
  ProgramBuilder B;
  auto Func = B.label();
  auto Past = B.label();
  B.emitJal(RegLr, Func); // 0: call
  B.emit(Inst::halt());   // 1: after return? No: return lands at 1.
  B.bind(Past);
  B.emit(Inst::halt());
  B.bind(Func);
  B.emit(Inst::li(5, 99));
  B.emit(Inst::ret());

  NeverTakenDecider D;
  ExecRun R(B.finish(), D);
  EXPECT_EQ(R.M.readReg(5), 99u);
  EXPECT_EQ(R.M.readReg(RegLr), 4u); // return address = pc of call + 4
}

TEST(Interpreter, IndirectJumpViaRegister) {
  ProgramBuilder B;
  B.emitLoadConst(4, 16); // address of instruction index 4
  B.emit(Inst::jalr(1, 4));
  B.emit(Inst::halt()); // skipped
  B.emit(Inst::halt()); // skipped
  B.emit(Inst::li(6, 1)); // index 4
  B.emit(Inst::halt());
  NeverTakenDecider D;
  ExecRun R(B.finish(), D);
  EXPECT_EQ(R.M.readReg(6), 1u);
  EXPECT_EQ(R.M.readReg(1), 8u); // link = jalr pc + 4
}

TEST(Interpreter, BrrFollowsDecider) {
  ProgramBuilder B;
  auto Taken = B.label();
  B.emitBrr(FreqCode(0), Taken);
  B.emit(Inst::li(1, 1)); // fall-through path
  B.emit(Inst::halt());
  B.bind(Taken);
  B.emit(Inst::li(1, 2)); // taken path
  B.emit(Inst::halt());
  Program P = B.finish();

  {
    NeverTakenDecider D;
    ExecRun R(P, D);
    EXPECT_EQ(R.M.readReg(1), 1u);
    EXPECT_EQ(R.Stats.BrrExecuted, 1u);
    EXPECT_EQ(R.Stats.BrrTaken, 0u);
  }
  {
    AlwaysTakenDecider D;
    ExecRun R(P, D);
    EXPECT_EQ(R.M.readReg(1), 2u);
    EXPECT_EQ(R.Stats.BrrTaken, 1u);
  }
}

TEST(Interpreter, BrrRateWithLfsrDecider) {
  // A loop executing one brr per iteration; the taken path increments r5.
  ProgramBuilder B;
  const int Iters = 64 * 1024;
  B.emitLoadConst(1, Iters);
  auto Loop = B.label();
  auto Sampled = B.label();
  auto Next = B.label();
  B.bind(Loop);
  B.emitBrr(FreqCode(3), Sampled); // 1/16
  B.bind(Next);
  B.emit(Inst::addi(1, 1, -1));
  B.emitBranch(Opcode::Bne, 1, 0, Loop);
  B.emit(Inst::halt());
  B.bind(Sampled);
  B.emit(Inst::addi(5, 5, 1));
  B.emitJmp(Next);

  BrrUnitDecider D;
  ExecRun R(B.finish(), D, 4 * Iters + 100);
  double Rate = static_cast<double>(R.M.readReg(5)) / Iters;
  EXPECT_NEAR(Rate, 1.0 / 16, 0.006);
  EXPECT_EQ(R.Stats.BrrExecuted, static_cast<uint64_t>(Iters));
}

TEST(Interpreter, MarkerHookFires) {
  ProgramBuilder B;
  B.emit(Inst::marker(7));
  B.emit(Inst::marker(9));
  B.emit(Inst::halt());
  Program P = B.finish();
  Machine M;
  NeverTakenDecider D;
  const DecodedProgram DP(P);
  Interpreter I(DP, M, D);
  std::vector<int32_t> Seen;
  I.setMarkerHook([&](int32_t Id) { Seen.push_back(Id); });
  I.run(10);
  EXPECT_EQ(Seen, (std::vector<int32_t>{7, 9}));
}

TEST(Interpreter, RunStopsAtBudgetWithoutHalt) {
  ProgramBuilder B;
  auto Loop = B.label();
  B.bind(Loop);
  B.emit(Inst::addi(1, 1, 1));
  B.emitJmp(Loop);
  Program P = B.finish();
  Machine M;
  NeverTakenDecider D;
  const DecodedProgram DP(P);
  Interpreter I(DP, M, D);
  RunStats S = I.run(100, /*RequireHalt=*/false);
  EXPECT_EQ(S.Insts, 100u);
  EXPECT_FALSE(S.Halted);
}

TEST(Interpreter, HaltStopsExecution) {
  ProgramBuilder B;
  B.emit(Inst::li(1, 1));
  B.emit(Inst::halt());
  B.emit(Inst::li(1, 2)); // unreachable
  Program P = B.finish();
  Machine M;
  NeverTakenDecider D;
  const DecodedProgram DP(P);
  Interpreter I(DP, M, D);
  RunStats S = I.run(10);
  EXPECT_TRUE(S.Halted);
  EXPECT_EQ(M.readReg(1), 1u);
  EXPECT_EQ(S.Insts, 2u);
}

TEST(Interpreter, ExecRecordReportsBranchOutcome) {
  ProgramBuilder B;
  auto T = B.label();
  B.emit(Inst::li(1, 1));
  B.emitBranch(Opcode::Bne, 1, 0, T);
  B.emit(Inst::nop());
  B.bind(T);
  B.emit(Inst::halt());
  Program P = B.finish();
  Machine M;
  NeverTakenDecider D;
  const DecodedProgram DP(P);
  Interpreter I(DP, M, D);
  I.step(); // li
  ExecRecord R = I.step();
  EXPECT_TRUE(R.Taken);
  EXPECT_EQ(R.NextPc, 12u);
  EXPECT_EQ(R.Pc, 4u);
  EXPECT_EQ(R.D, &I.decoded().at(1));
}

TEST(Interpreter, RdLfsrReadsAndStepsTheGenerator) {
  // Section 3.4: a software-readable LFSR doubles as a fast PRNG. The
  // instruction must return the decider's state sequence exactly.
  ProgramBuilder B;
  for (int I = 0; I != 4; ++I) {
    B.emit(Inst::rdlfsr(static_cast<uint8_t>(4 + I)));
  }
  B.emit(Inst::halt());
  Program P = B.finish();

  BrrUnitConfig Cfg;
  BrrUnitDecider D(Cfg);
  Machine M;
  const DecodedProgram DP(P);
  Interpreter I(DP, M, D);
  I.run(10);

  // Replicate: the same unit configuration yields the same state walk.
  BrrUnit Replica(Cfg);
  for (int N = 0; N != 4; ++N) {
    uint64_t Expected = Replica.lfsr().state();
    Replica.lfsr().step();
    EXPECT_EQ(M.readReg(static_cast<unsigned>(4 + N)), Expected);
  }
  // Values are nonzero and distinct (maximal LFSR property).
  EXPECT_NE(M.readReg(4), 0u);
  EXPECT_NE(M.readReg(4), M.readReg(5));
}

TEST(Interpreter, RdLfsrWithoutLfsrDeciderReadsZero) {
  ProgramBuilder B;
  B.emit(Inst::rdlfsr(4));
  B.emit(Inst::halt());
  Program P = B.finish();
  Machine M;
  HwCounterDecider D; // no LFSR behind it
  const DecodedProgram DP(P);
  Interpreter I(DP, M, D);
  I.run(10);
  EXPECT_EQ(M.readReg(4), 0u);
}
