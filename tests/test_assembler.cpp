//===- tests/test_assembler.cpp - Text assembler tests --------------------===//

#include "isa/Assembler.h"

#include "isa/Disasm.h"
#include "isa/Encoding.h"
#include "isa/ProgramBuilder.h"
#include "sim/Interpreter.h"
#include "workloads/Microbench.h"

#include "Mutations.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

using namespace bor;

namespace {

Program mustAssemble(const std::string &Src) {
  AssemblyResult R = assemble(Src);
  EXPECT_TRUE(R.Ok) << R.Error;
  return R.Prog;
}

std::string mustFail(const std::string &Src) {
  AssemblyResult R = assemble(Src);
  EXPECT_FALSE(R.Ok) << "expected assembly failure";
  return R.Error;
}

} // namespace

TEST(Assembler, EmptySourceIsEmptyProgram) {
  EXPECT_EQ(mustAssemble("").numInsts(), 0u);
  EXPECT_EQ(mustAssemble("\n\n  ; just comments\n# more\n").numInsts(), 0u);
}

TEST(Assembler, AluForms) {
  Program P = mustAssemble("add r3, r1, r2\n"
                           "sub r4, r5, r6\n"
                           "mul r7, r8, r9\n"
                           "sltu r1, r2, r3\n");
  ASSERT_EQ(P.numInsts(), 4u);
  EXPECT_EQ(P.at(0), Inst::add(3, 1, 2));
  EXPECT_EQ(P.at(1), Inst::sub(4, 5, 6));
  EXPECT_EQ(P.at(2), Inst::alu(Opcode::Mul, 7, 8, 9));
  EXPECT_EQ(P.at(3), Inst::alu(Opcode::Sltu, 1, 2, 3));
}

TEST(Assembler, ImmediateFormsAndHex) {
  Program P = mustAssemble("addi r1, r2, -7\n"
                           "andi r3, r4, 0xff\n"
                           "slli r5, r6, 63\n");
  EXPECT_EQ(P.at(0), Inst::addi(1, 2, -7));
  EXPECT_EQ(P.at(1), Inst::alui(Opcode::Andi, 3, 4, 255));
  EXPECT_EQ(P.at(2), Inst::alui(Opcode::Slli, 5, 6, 63));
}

TEST(Assembler, MemoryForms) {
  Program P = mustAssemble("ld r1, 16(r2)\n"
                           "ldb r3, -1(r4)\n"
                           "st r5, 0(r6)\n"
                           "stb r7, 8(r8)\n");
  EXPECT_EQ(P.at(0), Inst::ld(1, 2, 16));
  EXPECT_EQ(P.at(1), Inst::ldb(3, 4, -1));
  EXPECT_EQ(P.at(2), Inst::st(5, 6, 0));
  EXPECT_EQ(P.at(3), Inst::stb(7, 8, 8));
}

TEST(Assembler, BranchesToLabelsForwardAndBackward) {
  Program P = mustAssemble("top:\n"
                           "  addi r1, r1, 1\n"
                           "  beq r1, r2, done\n"
                           "  jmp top\n"
                           "done:\n"
                           "  halt\n");
  ASSERT_EQ(P.numInsts(), 4u);
  EXPECT_EQ(P.at(1).Imm, 2);  // beq -> done
  EXPECT_EQ(P.at(2).Imm, -2); // jmp -> top
}

TEST(Assembler, NumericBranchOffsets) {
  Program P = mustAssemble("bne r1, r0, +3\n"
                           "jmp -1\n");
  EXPECT_EQ(P.at(0).Imm, 3);
  EXPECT_EQ(P.at(1).Imm, -1);
}

TEST(Assembler, BrrFrequencySyntax) {
  Program P = mustAssemble("loop:\n"
                           "  brr 1/1024, loop\n"
                           "  brr 1/2, +4\n");
  EXPECT_EQ(P.at(0).Op, Opcode::Brr);
  EXPECT_EQ(FreqCode(P.at(0).Freq).expectedInterval(), 1024u);
  EXPECT_EQ(FreqCode(P.at(1).Freq).expectedInterval(), 2u);
  EXPECT_EQ(P.at(1).Imm, 4);
}

TEST(Assembler, CallsAndReturns) {
  Program P = mustAssemble("jal r31, fn\n"
                           "halt\n"
                           "fn:\n"
                           "  jalr r1, r2\n"
                           "  ret\n");
  EXPECT_EQ(P.at(0), Inst::jal(31, 2));
  EXPECT_EQ(P.at(2), Inst::jalr(1, 2));
  EXPECT_EQ(P.at(3), Inst::ret());
}

TEST(Assembler, Pseudos) {
  Program P = mustAssemble("li r4, -100\n"
                           "mv r5, r6\n"
                           "lc r7, 70000\n");
  EXPECT_EQ(P.at(0), Inst::li(4, -100));
  EXPECT_EQ(P.at(1), Inst::mv(5, 6));
  // lc expands to more than one instruction for large constants.
  EXPECT_GT(P.numInsts(), 3u);
}

TEST(Assembler, DataDirectivesAndSymbolLoad) {
  Program P = mustAssemble(".alloc blob 16 8\n"
                           ".u64 blob 8 12345\n"
                           "lc r1, @blob\n"
                           "ld r2, 8(r1)\n"
                           "halt\n");
  ASSERT_TRUE(P.hasSymbol("blob"));

  Machine M;
  NeverTakenDecider D;
  const DecodedProgram DP(P);
  Interpreter I(DP, M, D);
  I.run(100);
  EXPECT_EQ(M.readReg(2), 12345u);
}

TEST(Assembler, MarkerNopHalt) {
  Program P = mustAssemble("nop\nmarker 42\nhalt\n");
  EXPECT_EQ(P.at(0), Inst::nop());
  EXPECT_EQ(P.at(1), Inst::marker(42));
  EXPECT_EQ(P.at(2), Inst::halt());
}

TEST(Assembler, CommentsAndAnnotationsIgnored) {
  Program P = mustAssemble("add r1, r2, r3 ; sum\n"
                           "bne r1, r0, +5 (-> 6) # from bor-dis\n");
  EXPECT_EQ(P.numInsts(), 2u);
  EXPECT_EQ(P.at(1).Imm, 5);
}

TEST(Assembler, RoundTripsDisassemblerOutput) {
  // Build a program covering every opcode class, disassemble it, and
  // reassemble: instruction-for-instruction identical.
  ProgramBuilder B;
  auto L = B.label();
  B.emit(Inst::add(3, 1, 2));
  B.emit(Inst::alui(Opcode::Xori, 4, 5, -3));
  B.emit(Inst::ld(6, 7, 24));
  B.emit(Inst::stb(8, 9, -8));
  B.bind(L);
  B.emitBranch(Opcode::Blt, 1, 2, L);
  B.emitJmp(L);
  B.emitJal(31, L);
  B.emit(Inst::jalr(0, 31));
  B.emitBrr(FreqCode(9), L);
  B.emit(Inst::marker(7));
  B.emit(Inst::nop());
  B.emit(Inst::halt());
  Program Original = B.finish();

  Program Reassembled = mustAssemble(disassemble(Original));
  ASSERT_EQ(Reassembled.numInsts(), Original.numInsts());
  for (size_t I = 0; I != Original.numInsts(); ++I)
    EXPECT_EQ(Reassembled.at(I), Original.at(I)) << "instruction " << I;
}

TEST(Assembler, AssembledProgramExecutes) {
  Program P = mustAssemble("  lc r2, 10\n"
                           "loop:\n"
                           "  add r3, r3, r2\n"
                           "  addi r2, r2, -1\n"
                           "  bne r2, r0, loop\n"
                           "  halt\n");
  Machine M;
  NeverTakenDecider D;
  const DecodedProgram DP(P);
  Interpreter I(DP, M, D);
  I.run(1000);
  EXPECT_EQ(M.readReg(3), 55u); // 10+9+...+1
}

TEST(AssemblerErrors, UnknownMnemonic) {
  std::string E = mustFail("frobnicate r1, r2\n");
  EXPECT_NE(E.find("line 1"), std::string::npos);
  EXPECT_NE(E.find("unknown mnemonic"), std::string::npos);
}

TEST(AssemblerErrors, UndefinedLabel) {
  std::string E = mustFail("jmp nowhere\n");
  EXPECT_NE(E.find("undefined label"), std::string::npos);
}

TEST(AssemblerErrors, DuplicateLabel) {
  std::string E = mustFail("a:\nnop\na:\n");
  EXPECT_NE(E.find("defined twice"), std::string::npos);
}

TEST(AssemblerErrors, BadRegister) {
  std::string E = mustFail("add r32, r1, r2\n");
  EXPECT_NE(E.find("register"), std::string::npos);
}

TEST(AssemblerErrors, ImmediateOutOfRange) {
  std::string E = mustFail("addi r1, r2, 40000\n");
  EXPECT_NE(E.find("out of range"), std::string::npos);
}

TEST(AssemblerErrors, LiOutOfRangeSuggestsLc) {
  std::string E = mustFail("li r1, 100000\n");
  EXPECT_NE(E.find("lc"), std::string::npos);
}

TEST(AssemblerErrors, BadBrrFrequency) {
  EXPECT_NE(mustFail("brr 1/1000, +1\n").find("power of two"),
            std::string::npos);
  EXPECT_NE(mustFail("brr 2/4, +1\n").find("1/<interval>"),
            std::string::npos);
}

TEST(AssemblerErrors, TrailingGarbage) {
  std::string E = mustFail("nop nop\n");
  EXPECT_NE(E.find("trailing"), std::string::npos);
}

TEST(AssemblerErrors, UnknownDataSymbol) {
  EXPECT_NE(mustFail("lc r1, @missing\n").find("unknown data symbol"),
            std::string::npos);
  EXPECT_NE(mustFail(".u64 missing 0 1\n").find("unknown data symbol"),
            std::string::npos);
}

TEST(AssemblerErrors, BadDirective) {
  EXPECT_NE(mustFail(".bogus x 1\n").find("unknown directive"),
            std::string::npos);
  EXPECT_NE(mustFail(".alloc a 10 3\n").find("alignment"),
            std::string::npos);
}

TEST(AssemblerErrors, LineNumbersAreAccurate) {
  std::string E = mustFail("nop\nnop\nbadop\n");
  EXPECT_NE(E.find("line 3"), std::string::npos);
}

TEST(Assembler, RoundTripsWholeGeneratedPrograms) {
  // Property: any program the workload generators build disassembles to
  // text that reassembles into the identical instruction stream (data and
  // symbols are not part of the textual form).
  MicrobenchConfig C;
  C.Text.NumChars = 2000;
  for (SamplingFramework F :
       {SamplingFramework::None, SamplingFramework::CounterBased,
        SamplingFramework::BrrBased}) {
    C.Instr.Framework = F;
    C.Instr.Interval = 64;
    Program Original = buildMicrobench(C).Prog;
    AssemblyResult R = assemble(disassemble(Original));
    ASSERT_TRUE(R.Ok) << frameworkName(F) << ": " << R.Error;
    ASSERT_EQ(R.Prog.numInsts(), Original.numInsts()) << frameworkName(F);
    for (size_t I = 0; I != Original.numInsts(); ++I)
      ASSERT_EQ(R.Prog.at(I), Original.at(I))
          << frameworkName(F) << " instruction " << I;
  }
}

#include "RandomProgramGen.h"

class AssemblerFuzzRoundTrip : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AssemblerFuzzRoundTrip, RandomProgramsRoundTrip) {
  Program Original = testgen::randomProgram(GetParam());
  AssemblyResult R = assemble(disassemble(Original));
  ASSERT_TRUE(R.Ok) << R.Error;
  ASSERT_EQ(R.Prog.numInsts(), Original.numInsts());
  for (size_t I = 0; I != Original.numInsts(); ++I)
    ASSERT_EQ(R.Prog.at(I), Original.at(I)) << "instruction " << I;
  // And the serialized forms of the code segments agree too.
  EXPECT_EQ(encodeProgram(R.Prog.code()), encodeProgram(Original.code()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, AssemblerFuzzRoundTrip,
                         ::testing::Range<uint64_t>(50, 62),
                         [](const auto &Info) {
                           return "seed" + std::to_string(Info.param);
                         });

TEST(Assembler, RdLfsrForm) {
  Program P = mustAssemble("rdlfsr r9\nhalt\n");
  EXPECT_EQ(P.at(0), Inst::rdlfsr(9));
  // And it round-trips through the disassembler.
  Program Back = mustAssemble(disassemble(P));
  EXPECT_EQ(Back.at(0), Inst::rdlfsr(9));
}

// Every truncation and every single-bit flip of the shipped example either
// assembles or fails with a line-numbered error, and never crashes.
TEST(AssemblerErrors, SurvivesTruncationAndBitFlipsOfTheExample) {
  std::ifstream In(BOR_EXAMPLES_DIR "/asm/sampling.s");
  std::ostringstream Buf;
  Buf << In.rdbuf();
  const std::string Src = Buf.str();
  ASSERT_GT(Src.size(), 500u);
  ASSERT_TRUE(assemble(Src).Ok);

  size_t Parsed = 0, Rejected = 0;
  auto Assemble = [&](const std::string &Text) {
    AssemblyResult R = assemble(Text);
    if (R.Ok) {
      ++Parsed;
      return;
    }
    EXPECT_EQ(R.Error.rfind("line ", 0), 0u) << R.Error;
    ++Rejected;
  };
  testgen::forEachMutation(Src, Assemble);
  EXPECT_GT(Parsed, 0u);
  EXPECT_GT(Rejected, 0u);
}
