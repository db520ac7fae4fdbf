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
//  3. Hand-built edge cases the random programs never reach (writes to r0,
//     jmp, nop, shifts by register, markers, and every way out of the
//     image) agree under every budget, and a run that leaves the image
//     dies with the same assert as a step() loop.
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

#include <array>
#include <map>

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

//===----------------------------------------------------------------------===//
// Hand-built edge cases of the chained run() loop.
//
// The random programs above use only r3-r12, never emit jmp, nop, sll/srl
// by register or markers, and always halt inside the image. Each case
// below runs under run(k) for every budget k from 1 to its length, and
// must leave the same registers, memory, PC, stats and marker observations
// as k step()s and as k steps of the reference stepper. A case that
// leaves the image must then die with the same assert under run() as under
// step() when given one more instruction.
//===----------------------------------------------------------------------===//

namespace {

/// (marker id, instructions retired before it, PC) as a hook observes it.
struct MarkerSeen {
  int32_t Id;
  uint64_t Insts;
  uint64_t Pc;
  friend bool operator==(const MarkerSeen &, const MarkerSeen &) = default;
};

/// Everything run(k), k step()s and k reference steps must agree on.
struct Outcome {
  std::array<uint64_t, 32> Regs;
  std::map<uint64_t, std::vector<uint8_t>> Pages;
  uint64_t Pc = 0;
  bool Halted = false;
  RunStats Stats;
  std::vector<MarkerSeen> Markers;
};

Outcome outcomeOf(const Machine &M, const RunStats &Stats,
                  std::vector<MarkerSeen> Markers) {
  Outcome O;
  for (unsigned R = 0; R != 32; ++R)
    O.Regs[R] = M.readReg(R);
  M.memory().forEachPage([&O](uint64_t Base, const uint8_t *Data) {
    O.Pages[Base].assign(Data, Data + Memory::pageBytes());
  });
  O.Pc = M.pc();
  O.Halted = M.halted();
  O.Stats = Stats;
  O.Markers = std::move(Markers);
  return O;
}

void expectSameOutcome(const Outcome &A, const Outcome &B) {
  for (unsigned R = 0; R != 32; ++R)
    EXPECT_EQ(A.Regs[R], B.Regs[R]) << "r" << R;
  EXPECT_TRUE(A.Pages == B.Pages) << "memory diverged";
  EXPECT_EQ(A.Pc, B.Pc);
  EXPECT_EQ(A.Halted, B.Halted);
  expectSameStats(A.Stats, B.Stats);
  EXPECT_TRUE(A.Markers == B.Markers) << "marker observations diverged";
}

Outcome referenceSteps(const Program &P, uint64_t K) {
  Machine M;
  BrrUnitDecider D;
  ReferenceStepper Ref(P, M, D);
  std::vector<MarkerSeen> Seen;
  Ref.setMarkerHook(
      [&](int32_t Id) { Seen.push_back({Id, Ref.stats().Insts, M.pc()}); });
  for (uint64_t I = 0; I != K && !Ref.halted(); ++I)
    Ref.step();
  return outcomeOf(M, Ref.stats(), std::move(Seen));
}

/// K step()s, or a run(K) when \p Chained is set.
Outcome engineSteps(const DecodedProgram &DP, uint64_t K, bool Chained) {
  Machine M;
  BrrUnitDecider D;
  Interpreter Eng(DP, M, D);
  std::vector<MarkerSeen> Seen;
  Eng.setMarkerHook(
      [&](int32_t Id) { Seen.push_back({Id, Eng.stats().Insts, M.pc()}); });
  if (Chained)
    Eng.run(K, /*RequireHalt=*/false);
  else
    for (uint64_t I = 0; I != K && !Eng.halted(); ++I)
      Eng.step();
  return outcomeOf(M, Eng.stats(), std::move(Seen));
}

/// Checks \p P over every budget 1..Length. \p Length is the number of
/// instructions the program executes until it halts or until (and
/// including) the one that leaves the image. For a program that leaves,
/// \p Death is the assert one more instruction must raise.
void checkEveryBudget(const Program &P, uint64_t Length,
                      const char *Death = nullptr) {
  DecodedProgram DP(P);
  for (uint64_t K = 1; K <= Length; ++K) {
    SCOPED_TRACE("budget " + std::to_string(K));
    Outcome Ref = referenceSteps(P, K);
    Outcome Step = engineSteps(DP, K, /*Chained=*/false);
    Outcome Run = engineSteps(DP, K, /*Chained=*/true);
    EXPECT_EQ(Ref.Stats.Insts, K);
    expectSameOutcome(Ref, Step);
    expectSameOutcome(Step, Run);
  }
  Outcome Last = referenceSteps(P, Length);
  if (!Death) {
    EXPECT_TRUE(Last.Halted) << "a halting case must halt at its length";
    return;
  }
  ASSERT_FALSE(Last.Halted);
  EXPECT_DEATH(engineSteps(DP, Length + 1, /*Chained=*/true), Death);
  EXPECT_DEATH(engineSteps(DP, Length + 1, /*Chained=*/false), Death);
}

constexpr const char *OutsideCode = "PC outside code segment";

} // namespace

// All 22 register-writing opcodes with rd = r0, each followed by a read of
// r0: a write to r0 must never become visible, in either mode.
TEST(RunEdgeCases, WritesToR0) {
  ProgramBuilder B;
  uint64_t Word = B.allocData(8);
  B.initDataU64(Word, 0x1122334455667788ULL);
  B.emit(Inst::li(1, -5));
  B.emit(Inst::li(2, 3));
  B.emitLoadConst(4, Word);

  auto ReadR0 = [&B] { B.emit(Inst::add(3, 3, RegZero)); };
  unsigned Writes = 0;
  auto WriteR0 = [&](Inst I) {
    ASSERT_EQ(I.Rd, RegZero);
    B.emit(I);
    ReadR0();
    ++Writes;
  };
  for (Opcode Op : {Opcode::Add, Opcode::Sub, Opcode::And, Opcode::Or,
                    Opcode::Xor, Opcode::Sll, Opcode::Srl, Opcode::Mul,
                    Opcode::Slt})
    WriteR0(Inst::alu(Op, RegZero, 1, 2));
  WriteR0(Inst::alu(Opcode::Sltu, RegZero, 2, 1)); // 3 < 2^64 - 5
  WriteR0(Inst::alui(Opcode::Addi, RegZero, 1, 7));
  WriteR0(Inst::alui(Opcode::Andi, RegZero, 1, -1));
  WriteR0(Inst::alui(Opcode::Ori, RegZero, 1, 1));
  WriteR0(Inst::alui(Opcode::Xori, RegZero, 1, 1));
  WriteR0(Inst::alui(Opcode::Slli, RegZero, 1, 4));
  WriteR0(Inst::alui(Opcode::Srli, RegZero, 1, 4));
  WriteR0(Inst::alui(Opcode::Slti, RegZero, 1, 0));
  WriteR0(Inst::ld(RegZero, 4, 0));
  WriteR0(Inst::ldb(RegZero, 4, 0));
  WriteR0(Inst::jal(RegZero, 1)); // to the read right after it
  // jalr r0, r6 with r6 = the PC of the read right after it.
  B.emit(Inst::li(6, static_cast<int32_t>(Program::pcForIndex(B.here() + 2))));
  WriteR0(Inst::jalr(RegZero, 6));
  WriteR0(Inst::rdlfsr(RegZero));
  EXPECT_EQ(Writes, 22u);
  B.emit(Inst::halt());
  Program P = B.finish();

  // Straight-line code: every instruction executes once.
  checkEveryBudget(P, P.numInsts());
}

// Shifts by register (the amount masked to 0..63), nop, jmp, and markers
// with a hook installed.
TEST(RunEdgeCases, ShiftsNopJmpAndMarkers) {
  ProgramBuilder B;
  B.emit(Inst::li(1, -5));
  B.emit(Inst::li(2, 67));
  B.emit(Inst::alu(Opcode::Sll, 3, 1, 2));
  B.emit(Inst::alu(Opcode::Srl, 4, 1, 2));
  B.emit(Inst::nop());
  B.emit(Inst::marker(7));
  B.emit(Inst::jmp(2));     // over the next instruction
  B.emit(Inst::li(5, 99));  // skipped
  B.emit(Inst::marker(8));
  B.emit(Inst::alu(Opcode::Srl, 6, 1, RegZero));
  B.emit(Inst::jmp(2));     // forward to the marker below
  B.emit(Inst::halt());     // reached by the backward jmp
  B.emit(Inst::marker(9));
  B.emit(Inst::jmp(-2));
  Program P = B.finish();

  checkEveryBudget(P, P.numInsts() - 1);
}

// No halt: execution falls through past the last instruction.
TEST(RunEdgeCases, FallsOffTheEnd) {
  ProgramBuilder B;
  B.emit(Inst::li(1, 1));
  B.emit(Inst::addi(1, 1, 2));
  B.emit(Inst::nop());
  Program P = B.finish();
  checkEveryBudget(P, 3, OutsideCode);
}

// A taken branch whose target is the one-past-the-end PC.
TEST(RunEdgeCases, BranchToOnePastTheEnd) {
  ProgramBuilder B;
  B.emit(Inst::li(1, 1));
  B.emit(Inst::branch(Opcode::Bne, 1, 1, 5)); // not taken
  B.emit(Inst::branch(Opcode::Beq, 1, 1, 2)); // taken, to index 4
  B.emit(Inst::halt());
  Program P = B.finish();
  ASSERT_EQ(DecodedProgram(P).at(2).Target, Program::pcForIndex(4));
  checkEveryBudget(P, 3, OutsideCode);
}

// Taken branches far outside the image: backward past address 0, so the
// target wraps to the top of the address space, and far forward.
TEST(RunEdgeCases, BranchFarOutsideTheImage) {
  {
    ProgramBuilder B;
    B.emit(Inst::li(1, 1));
    B.emit(Inst::branch(Opcode::Blt, RegZero, 1, -1000));
    B.emit(Inst::halt());
    Program P = B.finish();
    ASSERT_EQ(DecodedProgram(P).at(1).Target, 4 - 4000ULL);
    checkEveryBudget(P, 2, OutsideCode);
  }
  {
    ProgramBuilder B;
    B.emit(Inst::nop());
    B.emit(Inst::jmp(1 << 20));
    B.emit(Inst::halt());
    Program P = B.finish();
    checkEveryBudget(P, 2, OutsideCode);
  }
}

// jalr to a target that is not instruction-aligned.
TEST(RunEdgeCases, JalrToUnalignedTarget) {
  ProgramBuilder B;
  B.emit(Inst::li(6, 6));
  B.emit(Inst::jalr(RegLr, 6));
  B.emit(Inst::halt());
  Program P = B.finish();
  checkEveryBudget(P, 2, "PC must be instruction aligned");
}

// jalr to aligned targets outside the image: the one-past-the-end PC and a
// PC far beyond it.
TEST(RunEdgeCases, JalrOutsideTheImage) {
  for (int32_t Target : {12, 4000}) {
    SCOPED_TRACE("target " + std::to_string(Target));
    ProgramBuilder B;
    B.emit(Inst::li(6, Target));
    B.emit(Inst::jalr(RegLr, 6));
    B.emit(Inst::halt());
    Program P = B.finish();
    checkEveryBudget(P, 2, OutsideCode);
  }
}
