//===- tests/test_cfg.cpp - CFG IR round-trip and relinearization ---------===//
//
// The tentpole guarantees of src/cfg/: lifting a linear program and
// re-emitting it is byte-identical (the IR is lossless), and reordering
// the layout before emission preserves execution (relinearization is
// sound). Both are property-tested over 1000+ structured random programs
// plus the committed workload generators.
//
//===----------------------------------------------------------------------===//

#include "cfg/Cfg.h"
#include "isa/Encoding.h"
#include "sim/Interpreter.h"
#include "support/Rng.h"
#include "workloads/Microbench.h"
#include "workloads/PgoGen.h"

#include "RandomProgramGen.h"

#include "gtest/gtest.h"

#include <algorithm>

using namespace bor;

namespace {

/// Byte-level program equality with a useful failure message.
void expectByteIdentical(const Program &A, const Program &B,
                         const std::string &What) {
  ASSERT_EQ(A.numInsts(), B.numInsts()) << What;
  for (size_t I = 0; I != A.numInsts(); ++I)
    ASSERT_EQ(encode(A.at(I)), encode(B.at(I)))
        << What << ": instruction " << I;
  EXPECT_EQ(A.dataBase(), B.dataBase()) << What;
  EXPECT_EQ(A.data(), B.data()) << What;
  EXPECT_EQ(A.symbols(), B.symbols()) << What;
}

/// Layout-invariant execution fingerprint: everything a relinearized
/// program must preserve. Taken counts and the link register are
/// excluded by design — branch inversion flips directions and jal
/// return addresses move with the code.
struct ExecFingerprint {
  uint64_t Loads = 0, Stores = 0;
  uint64_t CondBranches = 0;
  uint64_t BrrExecuted = 0, BrrTaken = 0;
  std::vector<uint8_t> Data;
  bool Halted = false;

  bool operator==(const ExecFingerprint &O) const {
    return Loads == O.Loads && Stores == O.Stores &&
           CondBranches == O.CondBranches &&
           BrrExecuted == O.BrrExecuted && BrrTaken == O.BrrTaken &&
           Data == O.Data && Halted == O.Halted;
  }
};

ExecFingerprint runFingerprint(const Program &P) {
  Machine M;
  BrrUnitDecider D; // default config: same decider stream for every layout
  const DecodedProgram DP(P);
  Interpreter I(DP, M, D);
  RunStats S = I.run(2'000'000);
  ExecFingerprint F;
  F.Loads = S.Loads;
  F.Stores = S.Stores;
  F.CondBranches = S.CondBranches;
  F.BrrExecuted = S.BrrExecuted;
  F.BrrTaken = S.BrrTaken;
  F.Halted = S.Halted;
  F.Data.reserve(P.data().size());
  for (size_t B = 0; B != P.data().size(); ++B)
    F.Data.push_back(M.memory().readU8(P.dataBase() + B));
  return F;
}

/// Shuffles \p M's layout, keeping the entry block first and empty
/// successor-less sentinel blocks last (anything after one would share
/// its address).
void shuffleLayout(cfg::Module &M, Xoshiro256 &Rng) {
  std::vector<cfg::BlockId> L = M.layout();
  ASSERT_FALSE(L.empty());
  std::vector<cfg::BlockId> Body, Sentinels;
  for (size_t I = 1; I < L.size(); ++I) {
    const cfg::BasicBlock &B = M.block(L[I]);
    (B.Insts.empty() && B.Succs.empty() ? Sentinels : Body).push_back(L[I]);
  }
  for (size_t I = Body.size(); I > 1; --I)
    std::swap(Body[I - 1], Body[Rng.nextBelow(I)]);
  std::vector<cfg::BlockId> Out{L.front()};
  Out.insert(Out.end(), Body.begin(), Body.end());
  Out.insert(Out.end(), Sentinels.begin(), Sentinels.end());
  M.setLayout(std::move(Out));
}

TEST(CfgRoundTrip, ByteIdenticalOverRandomPrograms) {
  for (uint64_t Seed = 1; Seed <= 1200; ++Seed) {
    Program P = testgen::randomProgram(Seed, 4);
    cfg::Module M = cfg::buildModule(P);
    Program Q = cfg::emitProgram(M);
    expectByteIdentical(P, Q, "seed " + std::to_string(Seed));
    if (HasFatalFailure())
      return;
  }
}

TEST(CfgRoundTrip, ShuffledRelinearizationExecutesEquivalently) {
  for (uint64_t Seed = 1; Seed <= 1000; ++Seed) {
    Program P = testgen::randomProgram(Seed, 6);
    ExecFingerprint Ref = runFingerprint(P);
    ASSERT_TRUE(Ref.Halted) << "seed " << Seed;

    cfg::Module M = cfg::buildModule(P);
    Xoshiro256 Rng(Seed * 7919 + 1);
    shuffleLayout(M, Rng);
    Program Q = cfg::emitProgram(M);
    ExecFingerprint Got = runFingerprint(Q);
    ASSERT_TRUE(Got == Ref) << "seed " << Seed;
  }
}

TEST(CfgRoundTrip, CommittedWorkloadsAreLossless) {
  // The microbenchmark in every instrumentation shape the experiments
  // run, plus the PGO workload pair.
  for (SamplingFramework F :
       {SamplingFramework::None, SamplingFramework::Full,
        SamplingFramework::CounterBased, SamplingFramework::BrrBased}) {
    for (DuplicationMode Dup :
         {DuplicationMode::NoDuplication, DuplicationMode::FullDuplication}) {
      MicrobenchConfig C;
      C.Text.NumChars = 400;
      C.Instr.Framework = F;
      C.Instr.Dup = Dup;
      MicrobenchProgram MB = buildMicrobench(C);
      Program Q = cfg::emitProgram(cfg::buildModule(MB.Prog));
      expectByteIdentical(MB.Prog, Q, describeConfig(C.Instr));
      if (HasFatalFailure())
        return;
    }
  }
  PgoGenConfig PC;
  PC.Iters = 50;
  PC.Instr.Framework = SamplingFramework::BrrBased;
  PgoWorkload W = buildPgoWorkload(PC);
  expectByteIdentical(W.Baseline,
                      cfg::emitProgram(cfg::buildModule(W.Baseline)),
                      "pgo baseline");
  expectByteIdentical(W.Instrumented,
                      cfg::emitProgram(cfg::buildModule(W.Instrumented)),
                      "pgo instrumented");
}

TEST(CfgEmit, InvertsBranchWhenTakenArmBecomesAdjacent) {
  // entry: beq -> T, fall F; T: halt; F: halt. Layout entry,T,F forces
  // the taken arm adjacent, so the emitted branch must be inverted and
  // target F.
  cfg::Module M;
  cfg::BlockId E = M.addBlock(), T = M.addBlock(), F = M.addBlock();
  M.block(E).Insts = {Inst::branch(Opcode::Beq, 1, 2, 0)};
  M.block(E).Succs = {{T, cfg::EdgeKind::Taken}, {F, cfg::EdgeKind::Fall}};
  M.block(T).Insts = {Inst::halt()};
  M.block(F).Insts = {Inst::halt()};
  M.setLayout({E, T, F});
  cfg::EmitStats S;
  Program P = cfg::emitProgram(M, {}, &S);
  EXPECT_EQ(S.InvertedBranches, 1u);
  EXPECT_EQ(P.at(0).Op, Opcode::Bne);
  EXPECT_EQ(P.at(0).Imm, 2); // over T's halt to F at index 2
  EXPECT_EQ(S.InsertedJumps, 0u);
}

TEST(CfgEmit, InsertsJumpForDisplacedFallThrough) {
  // entry falls through to B, but C is laid out between them: a jmp must
  // be synthesized.
  cfg::Module M;
  cfg::BlockId E = M.addBlock(), B = M.addBlock(), C = M.addBlock();
  M.block(E).Insts = {Inst::add(1, 1, 1)};
  M.block(E).Succs = {{B, cfg::EdgeKind::Fall}};
  M.block(B).Insts = {Inst::halt()};
  M.block(C).Insts = {Inst::halt()};
  M.setLayout({E, C, B});
  cfg::EmitStats S;
  Program P = cfg::emitProgram(M, {}, &S);
  EXPECT_EQ(S.InsertedJumps, 1u);
  EXPECT_EQ(P.at(1).Op, Opcode::Jmp);
  EXPECT_EQ(P.at(1).Imm, 2); // over C's halt to B
}

TEST(CfgEmit, ElidesJumpToNextOnlyWhenAsked) {
  cfg::Module M;
  cfg::BlockId E = M.addBlock(), B = M.addBlock();
  M.block(E).Insts = {Inst::jmp(0)};
  M.block(E).Succs = {{B, cfg::EdgeKind::Taken}};
  M.block(B).Insts = {Inst::halt()};
  M.setLayout({E, B});
  Program Kept = cfg::emitProgram(M);
  ASSERT_EQ(Kept.numInsts(), 2u);
  EXPECT_EQ(Kept.at(0).Op, Opcode::Jmp);
  cfg::EmitOptions O;
  O.ElideJumpToNext = true;
  cfg::EmitStats S;
  Program Elided = cfg::emitProgram(M, O, &S);
  ASSERT_EQ(Elided.numInsts(), 1u);
  EXPECT_EQ(Elided.at(0).Op, Opcode::Halt);
  EXPECT_EQ(S.ElidedJumps, 1u);
}

TEST(CfgEmit, RelaxesBranchOutgrowingItsField) {
  // A conditional branch over ~40k instructions cannot encode its offset
  // directly; emission must relax it to a branch-around-jump and the
  // result must still round-trip through the interpreter.
  cfg::Module M;
  cfg::BlockId E = M.addBlock(), Pad = M.addBlock(), Far = M.addBlock();
  M.block(E).Insts = {Inst::li(1, 1), Inst::branch(Opcode::Bne, 1, 0, 0)};
  M.block(E).Succs = {{Far, cfg::EdgeKind::Taken},
                      {Pad, cfg::EdgeKind::Fall}};
  M.block(Pad).Insts.assign(40000, Inst::add(2, 2, 2));
  M.block(Pad).Insts.push_back(Inst::halt());
  M.block(Far).Insts = {Inst::halt()};
  M.setLayout({E, Pad, Far});
  cfg::EmitStats S;
  Program P = cfg::emitProgram(M, {}, &S);
  EXPECT_GE(S.RelaxedBranches, 1u);
  Machine Mach;
  BrrUnitDecider D;
  const DecodedProgram DP(P);
  Interpreter I(DP, Mach, D);
  RunStats R = I.run(100);
  EXPECT_TRUE(R.Halted); // took the relaxed path to Far, not the pad
  EXPECT_LT(R.Insts, 10u);
}

TEST(CfgFunctions, ComputeFunctionsGroupsCallTargets) {
  // Find a random program that actually calls the helper (the generator
  // emits jal with low probability per body instruction).
  Program P;
  bool HasCall = false;
  for (uint64_t Seed = 1; Seed <= 50 && !HasCall; ++Seed) {
    P = testgen::randomProgram(Seed, 2);
    for (size_t I = 0; I != P.numInsts(); ++I)
      HasCall = HasCall || P.at(I).Op == Opcode::Jal;
  }
  ASSERT_TRUE(HasCall);
  cfg::Module M = cfg::buildModule(P);
  M.computeFunctions();
  ASSERT_GE(M.functions().size(), 2u);
  const cfg::Function &Main = M.functions().front();
  EXPECT_EQ(Main.Entry, M.layout().front());
  for (const cfg::Function &F : M.functions())
    for (cfg::BlockId B : F.Blocks)
      EXPECT_EQ(M.functionOf(B), static_cast<uint32_t>(&F - M.functions().data()));
}

} // namespace
