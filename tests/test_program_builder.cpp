//===- tests/test_program_builder.cpp - Assembler/builder tests -----------===//

#include "isa/ProgramBuilder.h"

#include "sim/Interpreter.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

using namespace bor;

TEST(ProgramBuilder, BackwardBranchOffset) {
  ProgramBuilder B;
  auto Top = B.label();
  B.bind(Top);
  B.emit(Inst::nop());          // 0
  B.emit(Inst::nop());          // 1
  B.emitBranch(Opcode::Beq, 0, 0, Top); // 2 -> offset -2
  Program P = B.finish();
  EXPECT_EQ(P.at(2).Imm, -2);
}

TEST(ProgramBuilder, ForwardBranchOffset) {
  ProgramBuilder B;
  auto Skip = B.label();
  B.emitBranch(Opcode::Bne, 1, 2, Skip); // 0
  B.emit(Inst::nop());                   // 1
  B.emit(Inst::nop());                   // 2
  B.bind(Skip);                          // 3
  B.emit(Inst::halt());
  Program P = B.finish();
  EXPECT_EQ(P.at(0).Imm, 3);
}

TEST(ProgramBuilder, BrrAndJumpFixups) {
  ProgramBuilder B;
  auto Target = B.label();
  B.emitBrr(FreqCode(4), Target); // 0
  B.emitJmp(Target);              // 1
  B.emitJal(31, Target);          // 2
  B.bind(Target);                 // 3
  B.emit(Inst::halt());
  Program P = B.finish();
  EXPECT_EQ(P.at(0).Imm, 3);
  EXPECT_EQ(P.at(0).Freq, 4);
  EXPECT_EQ(P.at(1).Imm, 2);
  EXPECT_EQ(P.at(2).Imm, 1);
}

TEST(ProgramBuilder, BranchToSelfIsZeroOffset) {
  ProgramBuilder B;
  auto Self = B.label();
  B.bind(Self);
  B.emitJmp(Self);
  Program P = B.finish();
  EXPECT_EQ(P.at(0).Imm, 0);
}

TEST(ProgramBuilder, DataAllocationAlignsAndGrows) {
  ProgramBuilder B;
  uint64_t A = B.allocData(3, 1);
  uint64_t C = B.allocData(8, 8);
  uint64_t D = B.allocData(1, 64);
  EXPECT_EQ(A, DefaultDataBase);
  EXPECT_EQ(C, DefaultDataBase + 8); // 3 rounded up to 8
  EXPECT_EQ(D % 64, 0u);
  EXPECT_GT(D, C);
}

TEST(ProgramBuilder, InitDataLittleEndian) {
  ProgramBuilder B;
  uint64_t Addr = B.allocData(8, 8);
  B.initDataU64(Addr, 0x1122334455667788ULL);
  B.emit(Inst::halt());
  Program P = B.finish();
  EXPECT_EQ(P.data()[0], 0x88);
  EXPECT_EQ(P.data()[7], 0x11);
}

TEST(ProgramBuilder, SymbolsSurviveFinish) {
  ProgramBuilder B;
  uint64_t Addr = B.allocData(8, 8);
  B.nameData("blob", Addr);
  auto L = B.label();
  B.emit(Inst::nop());
  B.bind(L);
  B.emit(Inst::halt());
  B.nameLabel("end", L);
  Program P = B.finish();
  EXPECT_TRUE(P.hasSymbol("blob"));
  EXPECT_EQ(P.symbol("blob"), Addr);
  EXPECT_EQ(P.symbol("end"), 4u); // instruction index 1
}

TEST(ProgramBuilder, HereTracksEmission) {
  ProgramBuilder B;
  EXPECT_EQ(B.here(), 0u);
  B.emit(Inst::nop());
  EXPECT_EQ(B.here(), 1u);
}

// Property: emitLoadConst materializes arbitrary 64-bit constants; verify
// by executing the generated code.
TEST(ProgramBuilder, LoadConstMaterializesArbitraryValues) {
  std::vector<uint64_t> Values = {0,
                                  1,
                                  32767,
                                  32768,
                                  static_cast<uint64_t>(-1),
                                  0x100000,
                                  0xdeadbeefULL,
                                  0x123456789abcdef0ULL,
                                  0x8000000000000000ULL};
  Xoshiro256 Rng(99);
  for (int I = 0; I != 40; ++I)
    Values.push_back(Rng.next());

  for (uint64_t V : Values) {
    ProgramBuilder B;
    B.emitLoadConst(5, V);
    B.emit(Inst::halt());
    Program P = B.finish();

    Machine M;
    NeverTakenDecider D;
    const DecodedProgram DP(P);
    Interpreter Interp(DP, M, D);
    Interp.run(100);
    EXPECT_EQ(M.readReg(5), V) << std::hex << V;
  }
}

TEST(ProgramBuilder, LoadConstSmallValuesAreOneInstruction) {
  ProgramBuilder B;
  B.emitLoadConst(3, 100);
  EXPECT_EQ(B.here(), 1u);
  B.emitLoadConst(3, static_cast<uint64_t>(-5));
  EXPECT_EQ(B.here(), 2u);
}

TEST(ProgramBuilderDeath, UnboundLabelAsserts) {
  ProgramBuilder B;
  auto L = B.label();
  B.emitJmp(L);
  EXPECT_DEATH(B.finish(), "never bound");
}

TEST(ProgramBuilderDeath, DoubleBindAsserts) {
  ProgramBuilder B;
  auto L = B.label();
  B.bind(L);
  EXPECT_DEATH(B.bind(L), "bound twice");
}
