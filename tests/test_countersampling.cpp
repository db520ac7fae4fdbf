//===- tests/test_countersampling.cpp - CounterGlobals unit tests ---------===//

#include "instr/CounterSampling.h"

#include "sim/Interpreter.h"

#include <gtest/gtest.h>

using namespace bor;

TEST(CounterGlobals, MemoryModeAllocatesAndInitializes) {
  ProgramBuilder B;
  CounterGlobals G(B, 64, DefaultDataBase);
  B.emit(Inst::halt());
  Program P = B.finish();
  EXPECT_TRUE(P.hasSymbol("cbs.count"));
  EXPECT_TRUE(P.hasSymbol("cbs.reset"));
  Machine M;
  M.loadProgram(P);
  EXPECT_EQ(M.memory().readU64(G.countAddr()), 63u);
  EXPECT_EQ(M.memory().readU64(G.resetAddr()), 64u);
}

TEST(CounterGlobals, RegisterModeAllocatesNothing) {
  ProgramBuilder B;
  CounterGlobals G(B, 64, DefaultDataBase, CounterHome::Register);
  B.emit(Inst::halt());
  Program P = B.finish();
  EXPECT_TRUE(P.data().empty());
  EXPECT_EQ(G.home(), CounterHome::Register);
}

TEST(CounterGlobals, MemorySetupIsEmpty) {
  ProgramBuilder B;
  CounterGlobals G(B, 16, DefaultDataBase);
  size_t Before = B.here();
  G.emitSetup(B);
  EXPECT_EQ(B.here(), Before);
}

TEST(CounterGlobals, RegisterSetupInitializesCountdown) {
  ProgramBuilder B;
  CounterGlobals G(B, 16, DefaultDataBase, CounterHome::Register);
  G.emitSetup(B);
  B.emit(Inst::halt());
  Machine M;
  NeverTakenDecider D;
  Program P = B.finish();
  const DecodedProgram DP(P);
  Interpreter I(DP, M, D);
  I.run(10);
  EXPECT_EQ(M.readReg(RegCounter), 15u);
}

TEST(CounterGlobals, CheckSequencesMatchFigure4Lengths) {
  // Memory: ld + beq inline, addi + st on the common tail = 4.
  // Register: beq inline, addi tail = 2.
  auto InlineLen = [](CounterHome Home) {
    ProgramBuilder B;
    CounterGlobals G(B, 8, DefaultDataBase, Home);
    auto L = B.label();
    size_t Start = B.here();
    G.emitLoadAndCheck(B, L);
    G.emitDecrementStore(B);
    B.bind(L);
    return B.here() - Start;
  };
  EXPECT_EQ(InlineLen(CounterHome::Memory), 4u);
  EXPECT_EQ(InlineLen(CounterHome::Register), 2u);
}

TEST(CounterGlobalsDeath, ZeroIntervalAsserts) {
  ProgramBuilder B;
  EXPECT_DEATH(CounterGlobals(B, 0, DefaultDataBase), "positive");
}
