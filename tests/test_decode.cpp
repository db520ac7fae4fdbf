//===- tests/test_decode.cpp - Decoded-execution engine tests -------------===//
//
// Two properties of the decoded-execution redesign:
//
//  1. Decoding is semantics-preserving. A reference stepper that re-derives
//     every operand from the raw Inst on each step (sign-extending the
//     immediate, masking the shift amount, resolving the branch target as
//     PC + 4*Imm) must produce the same execution stream (PC, next PC,
//     branch outcome, effective address), the same RunStats and the same
//     final architectural state as the engine executing the pre-decoded
//     image, and every engine record must point at its instruction in the
//     image. Fuzzed over random structured programs with matched
//     deterministic deciders.
//
//  2. The two engine modes agree. run()'s block-chained threaded dispatch
//     must leave the same state, stats and marker observations as a step()
//     loop over the same decoded image, including under partial-budget
//     runs that force chain exits mid-block.
//
// Plus unit tests of the DecodedProgram image itself (kinds, return bit and
// operand slots against the Inst helpers for every opcode, pre-resolved
// targets, pre-masked shift immediates).
//
//===----------------------------------------------------------------------===//

#include "RandomProgramGen.h"

#include "isa/ProgramBuilder.h"
#include "sim/Interpreter.h"

#include <gtest/gtest.h>

using namespace bor;

namespace {

using namespace bor::testgen;

/// One step of the reference stepper: what an ExecRecord carries, with the
/// raw instruction in place of the decoded one.
struct RefRecord {
  uint64_t Pc = 0;
  Inst I;
  uint64_t NextPc = 0;
  bool Taken = false;
  uint64_t MemAddr = 0;
};

/// Reference functional stepper over the *raw* Program image. Every
/// operand is derived from the Inst at execution time — the behavior the
/// pre-decode interpreter had, kept here as the executable specification
/// the decoded engine is held to.
class ReferenceStepper {
public:
  ReferenceStepper(const Program &P, Machine &M, BrrDecider &D)
      : Prog(P), Mach(M), Decider(D) {
    Mach.loadProgram(Prog);
  }

  void setMarkerHook(std::function<void(int32_t)> Hook) {
    MarkerHook = std::move(Hook);
  }

  bool halted() const { return Mach.halted(); }
  const RunStats &stats() const { return Stats; }

  RefRecord step() {
    RefRecord R;
    R.Pc = Mach.pc();
    R.I = Prog.at(Prog.indexForPc(R.Pc));
    const Inst &I = R.I;
    R.NextPc = R.Pc + 4;

    auto Reg = [this](unsigned Idx) { return Mach.readReg(Idx); };
    auto SImm = [&I] { return static_cast<int64_t>(I.Imm); };
    auto UImm = [&I] {
      return static_cast<uint64_t>(static_cast<int64_t>(I.Imm));
    };
    // Branch/jump offsets are in instruction words relative to the
    // instruction itself, wrapping in 64 bits.
    auto Target = [&] {
      return R.Pc + 4 * static_cast<uint64_t>(static_cast<int64_t>(I.Imm));
    };

    switch (I.Op) {
    case Opcode::Nop:
      break;
    case Opcode::Halt:
      Mach.setHalted();
      R.NextPc = R.Pc;
      break;

    case Opcode::Add:
      Mach.writeReg(I.Rd, Reg(I.Rs1) + Reg(I.Rs2));
      break;
    case Opcode::Sub:
      Mach.writeReg(I.Rd, Reg(I.Rs1) - Reg(I.Rs2));
      break;
    case Opcode::And:
      Mach.writeReg(I.Rd, Reg(I.Rs1) & Reg(I.Rs2));
      break;
    case Opcode::Or:
      Mach.writeReg(I.Rd, Reg(I.Rs1) | Reg(I.Rs2));
      break;
    case Opcode::Xor:
      Mach.writeReg(I.Rd, Reg(I.Rs1) ^ Reg(I.Rs2));
      break;
    case Opcode::Sll:
      Mach.writeReg(I.Rd, Reg(I.Rs1) << (Reg(I.Rs2) & 63));
      break;
    case Opcode::Srl:
      Mach.writeReg(I.Rd, Reg(I.Rs1) >> (Reg(I.Rs2) & 63));
      break;
    case Opcode::Mul:
      Mach.writeReg(I.Rd, Reg(I.Rs1) * Reg(I.Rs2));
      break;
    case Opcode::Slt:
      Mach.writeReg(I.Rd, static_cast<int64_t>(Reg(I.Rs1)) <
                                  static_cast<int64_t>(Reg(I.Rs2))
                              ? 1
                              : 0);
      break;
    case Opcode::Sltu:
      Mach.writeReg(I.Rd, Reg(I.Rs1) < Reg(I.Rs2) ? 1 : 0);
      break;

    case Opcode::Addi:
      Mach.writeReg(I.Rd, Reg(I.Rs1) + UImm());
      break;
    case Opcode::Andi:
      Mach.writeReg(I.Rd, Reg(I.Rs1) & UImm());
      break;
    case Opcode::Ori:
      Mach.writeReg(I.Rd, Reg(I.Rs1) | UImm());
      break;
    case Opcode::Xori:
      Mach.writeReg(I.Rd, Reg(I.Rs1) ^ UImm());
      break;
    case Opcode::Slli:
      Mach.writeReg(I.Rd, Reg(I.Rs1) << (I.Imm & 63));
      break;
    case Opcode::Srli:
      Mach.writeReg(I.Rd, Reg(I.Rs1) >> (I.Imm & 63));
      break;
    case Opcode::Slti:
      Mach.writeReg(I.Rd,
                    static_cast<int64_t>(Reg(I.Rs1)) < SImm() ? 1 : 0);
      break;

    case Opcode::Ld:
      R.MemAddr = Reg(I.Rs1) + UImm();
      Mach.writeReg(I.Rd, Mach.memory().readU64(R.MemAddr));
      ++Stats.Loads;
      break;
    case Opcode::Ldb:
      R.MemAddr = Reg(I.Rs1) + UImm();
      Mach.writeReg(I.Rd, Mach.memory().readU8(R.MemAddr));
      ++Stats.Loads;
      break;
    case Opcode::St:
      R.MemAddr = Reg(I.Rs1) + UImm();
      Mach.memory().writeU64(R.MemAddr, Reg(I.Rs2));
      ++Stats.Stores;
      break;
    case Opcode::Stb:
      R.MemAddr = Reg(I.Rs1) + UImm();
      Mach.memory().writeU8(R.MemAddr, static_cast<uint8_t>(Reg(I.Rs2)));
      ++Stats.Stores;
      break;

    case Opcode::Beq:
    case Opcode::Bne:
    case Opcode::Blt:
    case Opcode::Bge:
      switch (I.Op) {
      case Opcode::Beq:
        R.Taken = Reg(I.Rs1) == Reg(I.Rs2);
        break;
      case Opcode::Bne:
        R.Taken = Reg(I.Rs1) != Reg(I.Rs2);
        break;
      case Opcode::Blt:
        R.Taken = static_cast<int64_t>(Reg(I.Rs1)) <
                  static_cast<int64_t>(Reg(I.Rs2));
        break;
      default:
        R.Taken = static_cast<int64_t>(Reg(I.Rs1)) >=
                  static_cast<int64_t>(Reg(I.Rs2));
        break;
      }
      ++Stats.CondBranches;
      if (R.Taken) {
        ++Stats.CondTaken;
        R.NextPc = Target();
      }
      break;

    case Opcode::Jmp:
      R.Taken = true;
      R.NextPc = Target();
      break;
    case Opcode::Jal:
      Mach.writeReg(I.Rd, R.Pc + 4);
      R.Taken = true;
      R.NextPc = Target();
      break;
    case Opcode::Jalr: {
      uint64_t T = Reg(I.Rs1); // read before the link write (Rd may be Rs1)
      Mach.writeReg(I.Rd, R.Pc + 4);
      R.Taken = true;
      R.NextPc = T;
      break;
    }

    case Opcode::Brr:
      ++Stats.BrrExecuted;
      R.Taken = Decider.decide(FreqCode(I.Freq));
      if (R.Taken) {
        ++Stats.BrrTaken;
        R.NextPc = Target();
      }
      break;

    case Opcode::Marker:
      if (MarkerHook)
        MarkerHook(I.Imm);
      break;

    case Opcode::RdLfsr:
      Mach.writeReg(I.Rd, Decider.readAndStep());
      break;
    }

    Mach.setPc(R.NextPc);
    ++Stats.Insts;
    return R;
  }

private:
  const Program &Prog;
  Machine &Mach;
  BrrDecider &Decider;
  RunStats Stats;
  std::function<void(int32_t)> MarkerHook;
};

struct ArchState {
  std::array<uint64_t, 32> Regs;
  std::vector<uint64_t> BufWords;
  uint64_t Pc;
};

ArchState captureState(Machine &M, const Program &P) {
  ArchState S;
  for (unsigned R = 0; R != 32; ++R)
    S.Regs[R] = M.readReg(R);
  uint64_t Buf = P.symbol("buf");
  for (size_t I = 0; I != BufBytes / 8; ++I)
    S.BufWords.push_back(M.memory().readU64(Buf + 8 * I));
  S.Pc = M.pc();
  return S;
}

void expectSameState(const ArchState &A, const ArchState &B) {
  for (unsigned R = 0; R != 32; ++R)
    EXPECT_EQ(A.Regs[R], B.Regs[R]) << "r" << R;
  EXPECT_EQ(A.BufWords, B.BufWords) << "memory diverged";
  EXPECT_EQ(A.Pc, B.Pc);
}

void expectSameStats(const RunStats &A, const RunStats &B) {
  EXPECT_EQ(A.Insts, B.Insts);
  EXPECT_EQ(A.CondBranches, B.CondBranches);
  EXPECT_EQ(A.CondTaken, B.CondTaken);
  EXPECT_EQ(A.BrrExecuted, B.BrrExecuted);
  EXPECT_EQ(A.BrrTaken, B.BrrTaken);
  EXPECT_EQ(A.Loads, B.Loads);
  EXPECT_EQ(A.Stores, B.Stores);
  // Stats.Halted is only folded in by run(); step loops track halt on the
  // Machine, so halt state is asserted via halted() at the call sites.
}

constexpr uint64_t StepBudget = 4000000;

} // namespace

class DecodeDifferential : public ::testing::TestWithParam<uint64_t> {};

// Property 1: identical execution streams from the decoded engine's
// step() and the raw-Inst reference stepper.
TEST_P(DecodeDifferential, StepMatchesReference) {
  Program P = randomProgram(GetParam());
  DecodedProgram DP(P);

  Machine RefM;
  HwCounterDecider RefD;
  ReferenceStepper Ref(P, RefM, RefD);

  Machine EngM;
  HwCounterDecider EngD;
  Interpreter Eng(DP, EngM, EngD);

  uint64_t Steps = 0;
  while (!Ref.halted() && Steps != StepBudget) {
    ASSERT_FALSE(Eng.halted()) << "engine halted early at step " << Steps;
    RefRecord A = Ref.step();
    ExecRecord B = Eng.step();
    ASSERT_EQ(A.Pc, B.Pc) << "step " << Steps;
    ASSERT_EQ(A.NextPc, B.NextPc)
        << "step " << Steps << " pc=" << A.Pc
        << " op=" << static_cast<unsigned>(A.I.Op);
    ASSERT_EQ(A.Taken, B.Taken) << "step " << Steps << " pc=" << A.Pc;
    ASSERT_EQ(A.MemAddr, B.MemAddr) << "step " << Steps << " pc=" << A.Pc;
    ASSERT_EQ(B.D, &DP.at(A.Pc / 4))
        << "records must point at their instruction in the image";
    ASSERT_EQ(A.I, P.at(A.Pc / 4));
    ++Steps;
  }
  ASSERT_TRUE(Ref.halted()) << "reference did not halt within budget";
  EXPECT_TRUE(Eng.halted());

  expectSameStats(Ref.stats(), Eng.stats());
  expectSameState(captureState(RefM, P), captureState(EngM, P));
}

// Property 2: the block-chained run() path is architecturally identical to
// a step() loop over the same image, marker observations included.
TEST_P(DecodeDifferential, RunMatchesStepLoop) {
  Program P = randomProgram(GetParam());
  DecodedProgram DP(P);

  // Markers record (id, insts-retired-before-the-marker) pairs; run()
  // promises hooks observe the same synchronized state as step().
  using MarkerObs = std::pair<int32_t, uint64_t>;

  Machine StepM;
  HwCounterDecider StepD;
  Interpreter StepEng(DP, StepM, StepD);
  std::vector<MarkerObs> StepMarkers;
  StepEng.setMarkerHook([&](int32_t Id) {
    StepMarkers.push_back({Id, StepEng.stats().Insts});
  });
  uint64_t Steps = 0;
  while (!StepEng.halted() && Steps != StepBudget) {
    StepEng.step();
    ++Steps;
  }
  ASSERT_TRUE(StepEng.halted());

  Machine RunM;
  HwCounterDecider RunD;
  Interpreter RunEng(DP, RunM, RunD);
  std::vector<MarkerObs> RunMarkers;
  RunEng.setMarkerHook([&](int32_t Id) {
    RunMarkers.push_back({Id, RunEng.stats().Insts});
  });
  RunStats RS = RunEng.run(StepBudget);
  ASSERT_TRUE(RS.Halted);

  expectSameStats(StepEng.stats(), RunEng.stats());
  expectSameState(captureState(StepM, P), captureState(RunM, P));
  EXPECT_EQ(StepMarkers, RunMarkers);
}

// Partial budgets force the chained loop to exit mid-block and resume;
// every intermediate synchronization point must be exact.
TEST_P(DecodeDifferential, BudgetedRunMatchesReference) {
  Program P = randomProgram(GetParam());
  DecodedProgram DP(P);

  Machine RefM;
  HwCounterDecider RefD;
  ReferenceStepper Ref(P, RefM, RefD);

  Machine EngM;
  HwCounterDecider EngD;
  Interpreter Eng(DP, EngM, EngD);

  // An awkward chunk size relative to the generator's block shapes, so
  // budget exits land inside straight-line runs.
  constexpr uint64_t Chunk = 7;
  uint64_t Total = 0;
  while (!Eng.halted() && Total != StepBudget) {
    uint64_t Before = Eng.stats().Insts;
    Eng.run(Chunk, /*RequireHalt=*/false);
    uint64_t Done = Eng.stats().Insts - Before;
    ASSERT_LE(Done, Chunk);
    for (uint64_t I = 0; I != Done; ++I)
      Ref.step();
    Total += Done;
    // The machine PC must be synchronized at every budget exit.
    ASSERT_EQ(RefM.pc(), EngM.pc()) << "after " << Total << " insts";
  }
  ASSERT_TRUE(Eng.halted());
  ASSERT_TRUE(Ref.halted());

  expectSameStats(Ref.stats(), Eng.stats());
  expectSameState(captureState(RefM, P), captureState(EngM, P));
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecodeDifferential,
                         ::testing::Range<uint64_t>(1, 13),
                         [](const auto &Info) {
                           return "seed" + std::to_string(Info.param);
                         });

//===----------------------------------------------------------------------===//
// DecodedProgram image unit tests.
//===----------------------------------------------------------------------===//

// Every opcode, with rd = r0 and rd != r0, and with rs1 = lr and rs1 !=
// lr: the decoded kind, return bit and operand slots agree with the Inst
// helpers the rest of the tree classifies with.
TEST(DecodedProgram, FlagsAndClasses) {
  static_assert(NumOpcodes == 33, "the sweep must cover every opcode");
  ProgramBuilder B;
  std::vector<Inst> Swept;
  for (unsigned Op = 0; Op != NumOpcodes; ++Op)
    for (uint8_t Rd : {uint8_t(RegZero), uint8_t(5)})
      for (uint8_t Rs1 : {uint8_t(6), uint8_t(RegLr)}) {
        Inst I{static_cast<Opcode>(Op), Rd, Rs1, 7, 1, 2};
        B.emit(I);
        Swept.push_back(I);
      }
  Program P = B.finish();
  DecodedProgram DP(P);
  ASSERT_EQ(DP.numInsts(), Swept.size());

  for (size_t Index = 0; Index != Swept.size(); ++Index) {
    const Inst &I = Swept[Index];
    const DecodedInst &D = DP.at(Index);
    SCOPED_TRACE(std::string(opcodeName(I.Op)) + " rd=" +
                 std::to_string(I.Rd) + " rs1=" + std::to_string(I.Rs1));
    EXPECT_EQ(D.Kind == InstKind::Load, I.isLoad());
    EXPECT_EQ(D.Kind == InstKind::Store, I.isStore());
    EXPECT_EQ(D.Kind == InstKind::CondBranch, I.isCondBranch());
    EXPECT_EQ(D.Kind == InstKind::Brr, I.isBrr());
    EXPECT_EQ(D.Kind == InstKind::DirectJump, I.isDirectJump());
    EXPECT_EQ(D.Kind == InstKind::Indirect, I.isIndirect());
    EXPECT_EQ(D.Kind == InstKind::Halt, I.Op == Opcode::Halt);
    EXPECT_EQ(D.Kind == InstKind::Marker, I.Op == Opcode::Marker);
    EXPECT_EQ(D.Kind == InstKind::Mul, I.Op == Opcode::Mul);
    EXPECT_EQ(D.Return,
              I.isIndirect() && I.Rd == RegZero && I.Rs1 == RegLr);

    uint8_t Srcs[2];
    unsigned NumSrcs = I.sourceRegs(Srcs);
    for (unsigned S = 0; S != 2; ++S)
      EXPECT_EQ(unsigned(D.Src[S]),
                unsigned(S < NumSrcs ? Srcs[S] : NoSrcSlot))
          << "src " << S;
    EXPECT_EQ(unsigned(D.Dst), unsigned(I.writesReg() ? I.Rd : NoDstSlot));
    // The slot a missing source reads must never be written.
    EXPECT_NE(unsigned(D.Dst), unsigned(NoSrcSlot));
  }
}

TEST(DecodedProgram, PreResolvedTargets) {
  ProgramBuilder B;
  B.emit(Inst::branch(Opcode::Bne, 1, 2, 3)); // 0 -> pc 0 + 4*3 = 12
  B.emit(Inst::jmp(-1));                      // 1 -> pc 4 - 4 = 0
  B.emit(Inst::jal(RegLr, 2));                // 2 -> pc 8 + 8 = 16
  B.emit(Inst::brr(FreqCode(3), 2));          // 3 -> pc 12 + 8 = 20
  B.emit(Inst::jalr(1, 3));                   // 4: register target
  B.emit(Inst::halt());                       // 5
  Program P = B.finish();
  DecodedProgram DP(P);

  EXPECT_EQ(DP.at(0).Target, 12u);
  EXPECT_EQ(DP.at(1).Target, 0u);
  EXPECT_EQ(DP.at(2).Target, 16u);
  EXPECT_EQ(DP.at(3).Target, 20u);
  EXPECT_EQ(DP.at(3).Freq, 3u);
  // Indirect jumps have no static target.
  EXPECT_EQ(DP.at(4).Target, 0u);
}

TEST(DecodedProgram, ImmediatePreprocessing) {
  ProgramBuilder B;
  B.emit(Inst::addi(1, 0, -5));               // sign-extended to 64 bits
  B.emit(Inst::alui(Opcode::Slli, 2, 1, 68)); // shamt pre-masked: 68 & 63 = 4
  B.emit(Inst::alui(Opcode::Srli, 3, 1, 63)); // already in range
  B.emit(Inst::alui(Opcode::Andi, 4, 1, -1)); // sign-extended mask
  B.emit(Inst::halt());
  Program P = B.finish();
  DecodedProgram DP(P);

  EXPECT_EQ(DP.at(0).Imm, -5);
  EXPECT_EQ(DP.at(1).Imm, 4);
  EXPECT_EQ(DP.at(2).Imm, 63);
  EXPECT_EQ(DP.at(3).Imm, -1);
}

TEST(DecodedProgram, SharedImageAcrossEngines) {
  // One image, two independent engines: the redesign's decode-once
  // contract. Both must run to completion with identical results.
  Program P = randomProgram(3);
  DecodedProgram DP(P);

  Machine M1, M2;
  HwCounterDecider D1, D2;
  Interpreter A(DP, M1, D1);
  Interpreter B(DP, M2, D2);
  EXPECT_EQ(&A.decoded(), &B.decoded());

  RunStats S1 = A.run(StepBudget);
  RunStats S2 = B.run(StepBudget);
  ASSERT_TRUE(S1.Halted);
  expectSameStats(S1, S2);
  expectSameState(captureState(M1, P), captureState(M2, P));
}
