//===- tests/test_checkpoint.cpp - Machine checkpoint tests ---------------===//
//
// The checkpoint contract: save -> restore -> continue is indistinguishable
// from never having stopped. That covers architectural state bit-for-bit
// (registers, PC, every memory page) AND the brr decider's internal state,
// since the resumed run must reproduce the exact outcome sequence the
// uninterrupted run would have produced.
//
//===----------------------------------------------------------------------===//

#include "sample/Checkpoint.h"

#include "isa/Serialize.h"
#include "sim/Interpreter.h"
#include "workloads/Microbench.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <map>

using namespace bor;

namespace {

MicrobenchProgram brrProgram(size_t Chars = 4000) {
  MicrobenchConfig C;
  C.Text.NumChars = Chars;
  C.Instr.Framework = SamplingFramework::BrrBased;
  C.Instr.Interval = 16; // frequent brr -> LFSR state matters
  return buildMicrobench(C);
}

/// Non-zero memory pages keyed by base address (zero pages are
/// indistinguishable from unmapped ones by construction).
std::map<uint64_t, std::vector<uint8_t>> nonZeroPages(const Machine &M) {
  std::map<uint64_t, std::vector<uint8_t>> Pages;
  M.memory().forEachPage([&](uint64_t Base, const uint8_t *Data) {
    std::vector<uint8_t> Bytes(Data, Data + Memory::pageBytes());
    for (uint8_t B : Bytes)
      if (B != 0) {
        Pages.emplace(Base, std::move(Bytes));
        return;
      }
  });
  return Pages;
}

void expectSameArchState(const Machine &A, const Machine &B) {
  EXPECT_EQ(A.pc(), B.pc());
  EXPECT_EQ(A.halted(), B.halted());
  for (unsigned R = 0; R != 32; ++R)
    EXPECT_EQ(A.readReg(R), B.readReg(R)) << "register " << R;
  EXPECT_EQ(nonZeroPages(A), nonZeroPages(B));
}

} // namespace

TEST(Checkpoint, EncodeDecodeRoundTripsBitExactly) {
  MicrobenchProgram MB = brrProgram();
  Machine M;
  BrrUnitDecider D;
  Interpreter I(MB.Prog, M, D);
  I.run(5000, /*RequireHalt=*/false);

  MachineCheckpoint C = captureCheckpoint(M, D, I.stats().Insts);
  MachineCheckpoint Back;
  std::string Err;
  ASSERT_TRUE(decodeCheckpoint(encodeCheckpoint(C), Back, Err)) << Err;

  EXPECT_EQ(Back.Pc, C.Pc);
  EXPECT_EQ(Back.Halted, C.Halted);
  EXPECT_EQ(Back.InstsRetired, C.InstsRetired);
  EXPECT_EQ(Back.Regs, C.Regs);
  EXPECT_EQ(Back.DeciderKind, C.DeciderKind);
  EXPECT_EQ(Back.DeciderWords, C.DeciderWords);
  ASSERT_EQ(Back.Pages.size(), C.Pages.size());
  for (size_t I2 = 0; I2 != C.Pages.size(); ++I2) {
    EXPECT_EQ(Back.Pages[I2].Base, C.Pages[I2].Base);
    EXPECT_EQ(Back.Pages[I2].Data, C.Pages[I2].Data);
  }
}

TEST(Checkpoint, RestoreReproducesArchitecturalState) {
  MicrobenchProgram MB = brrProgram();
  Machine M;
  BrrUnitDecider D;
  Interpreter I(MB.Prog, M, D);
  I.run(5000, /*RequireHalt=*/false);
  MachineCheckpoint C = captureCheckpoint(M, D, I.stats().Insts);

  Machine M2;
  BrrUnitDecider D2;
  // Pollute the target machine first: restore must fully overwrite.
  M2.writeReg(5, 0xdeadbeef);
  M2.memory().writeU64(1 << 20, 42);
  std::string Err;
  ASSERT_TRUE(restoreCheckpoint(C, M2, D2, Err)) << Err;

  expectSameArchState(M, M2);
  EXPECT_EQ(D2.checkpointWords(), D.checkpointWords());
}

TEST(Checkpoint, ResumedRunMatchesUninterruptedRun) {
  MicrobenchProgram MB = brrProgram();

  // Uninterrupted reference run.
  Machine Ref;
  BrrUnitDecider RefD;
  Interpreter RefI(MB.Prog, Ref, RefD);
  RunStats RefStats = RefI.run(1ULL << 24);
  ASSERT_TRUE(RefStats.Halted);

  // Checkpointed run: stop mid-stream, snapshot, restore into entirely
  // fresh objects (decider seeded differently so only the restored state
  // can explain agreement), continue to completion.
  Machine A;
  BrrUnitDecider DA;
  Interpreter IA(MB.Prog, A, DA);
  IA.run(7777, /*RequireHalt=*/false);
  MachineCheckpoint C = captureCheckpoint(A, DA, IA.stats().Insts);

  Machine B;
  BrrUnitConfig OtherSeed;
  OtherSeed.Seed = 0x1234567;
  BrrUnitDecider DB(OtherSeed);
  std::string Err;
  ASSERT_TRUE(restoreCheckpoint(C, B, DB, Err)) << Err;
  Interpreter IB(MB.Prog, B, DB, /*LoadImage=*/false);
  RunStats Tail = IB.run(1ULL << 24);
  ASSERT_TRUE(Tail.Halted);

  expectSameArchState(Ref, B);
  EXPECT_EQ(C.InstsRetired + Tail.Insts, RefStats.Insts);
  EXPECT_EQ(Ref.memory().readU64(MB.Prog.symbol("results")),
            B.memory().readU64(MB.Prog.symbol("results")));
  // The LFSR sequence continued exactly where the original left off.
  EXPECT_EQ(DB.checkpointWords(), RefD.checkpointWords());
}

TEST(Checkpoint, FileRoundTripThroughBorbContainer) {
  MicrobenchProgram MB = brrProgram();
  Machine M;
  BrrUnitDecider D;
  Interpreter I(MB.Prog, M, D);
  I.run(3000, /*RequireHalt=*/false);
  MachineCheckpoint C = captureCheckpoint(M, D, I.stats().Insts);

  std::string Path = testing::TempDir() + "ckpt_roundtrip.borb";
  ASSERT_TRUE(saveCheckpointFile(MB.Prog, C, Path));

  Program P;
  MachineCheckpoint Back;
  std::string Err;
  ASSERT_TRUE(loadCheckpointFile(Path, P, Back, Err)) << Err;
  EXPECT_EQ(P.numInsts(), MB.Prog.numInsts());
  EXPECT_EQ(Back.Pc, C.Pc);
  EXPECT_EQ(Back.InstsRetired, C.InstsRetired);
  EXPECT_EQ(Back.DeciderWords, C.DeciderWords);

  // And the image still loads as a plain program through the ordinary
  // path, checkpoint section and all.
  LoadResult R = loadProgramFile(Path);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_NE(R.findSection("CKPT"), nullptr);
  std::remove(Path.c_str());
}

TEST(Checkpoint, RejectsDeciderKindMismatch) {
  Machine M;
  HwCounterDecider Counter;
  MachineCheckpoint C = captureCheckpoint(M, Counter, 0);

  Machine M2;
  BrrUnitDecider Lfsr;
  std::string Err;
  EXPECT_FALSE(restoreCheckpoint(C, M2, Lfsr, Err));
  EXPECT_NE(Err.find("counter"), std::string::npos);
  EXPECT_NE(Err.find("lfsr"), std::string::npos);
}

namespace {

/// A checkpoint of three distinct data pages, every register and a
/// stepped LFSR: the corruption sweeps' subject.
MachineCheckpoint multiPageCheckpoint() {
  Machine M;
  for (uint64_t Base : {0x0ULL, 0x3000ULL, 0x40000ULL})
    for (uint64_t Off = 0; Off < Memory::pageBytes(); Off += 8)
      M.memory().writeU64(Base + Off, (Base + Off) * 0x9e3779b97f4a7c15ULL);
  for (unsigned R = 1; R != 32; ++R)
    M.writeReg(R, R * 0x0101010101010101ULL);
  M.setPc(0x40);
  BrrUnitDecider D;
  for (int I = 0; I != 100; ++I)
    (void)D.decide(FreqCode(2));
  return captureCheckpoint(M, D, 1234);
}

/// Restores \p C into \p M, whose page caches still hold a page of an
/// earlier restore, and reads every restored page back through them (one
/// word per 256 bytes, to keep the sweep fast). Returns the number of
/// words that read back wrong.
uint64_t restoreAndReadBack(const MachineCheckpoint &C, Machine &M) {
  (void)M.memory().readU64(0);
  BrrUnitDecider D;
  std::string Err;
  if (!restoreCheckpoint(C, M, D, Err))
    return 0;
  // A corrupt base can repeat; the last restore of a page wins.
  std::map<uint64_t, const std::vector<uint8_t> *> Last;
  for (const MachineCheckpoint::Page &P : C.Pages)
    Last[P.Base] = &P.Data;
  uint64_t Wrong = 0;
  for (const auto &[Base, Data] : Last)
    for (uint64_t Off = 0; Off < Memory::pageBytes(); Off += 256) {
      uint64_t Want = 0;
      for (unsigned I = 0; I != 8; ++I)
        Want |= static_cast<uint64_t>((*Data)[Off + I]) << (8 * I);
      Wrong += M.memory().readU64(Base + Off) != Want;
    }
  return Wrong;
}

} // namespace

TEST(Checkpoint, RejectsCorruptPayloads) {
  MachineCheckpoint C = multiPageCheckpoint();
  ASSERT_EQ(C.Pages.size(), 3u);
  std::vector<uint8_t> Bytes = encodeCheckpoint(C);

  MachineCheckpoint Out;
  std::string Err;
  // Truncation anywhere must fail cleanly, never crash.
  for (size_t Keep = 0; Keep != Bytes.size(); ++Keep) {
    std::vector<uint8_t> Cut(Bytes.begin(), Bytes.begin() + Keep);
    EXPECT_FALSE(decodeCheckpoint(Cut, Out, Err)) << "kept " << Keep;
  }
  // Every single-bit flip either fails with an error or decodes to a
  // checkpoint that restores and reads back. One machine takes every
  // restore, so its caches always hold a page of the previous one.
  Machine M;
  uint64_t Decoded = 0, Wrong = 0;
  for (size_t I = 0; I != Bytes.size(); ++I)
    for (unsigned Bit = 0; Bit != 8; ++Bit) {
      Bytes[I] ^= static_cast<uint8_t>(1u << Bit);
      Err.clear();
      if (decodeCheckpoint(Bytes, Out, Err)) {
        ++Decoded;
        Wrong += restoreAndReadBack(Out, M);
      } else {
        EXPECT_FALSE(Err.empty()) << "byte " << I << " bit " << Bit;
      }
      Bytes[I] ^= static_cast<uint8_t>(1u << Bit);
    }
  EXPECT_GT(Decoded, 0u); // flips inside page data decode fine
  EXPECT_EQ(Wrong, 0u);
  // Trailing garbage is rejected too.
  std::vector<uint8_t> Long = Bytes;
  Long.push_back(0);
  EXPECT_FALSE(decodeCheckpoint(Long, Out, Err));
  // Unsupported version.
  std::vector<uint8_t> BadVer = Bytes;
  BadVer[0] = 0xff;
  EXPECT_FALSE(decodeCheckpoint(BadVer, Out, Err));
  EXPECT_NE(Err.find("version"), std::string::npos);
}

TEST(Checkpoint, SkipsAllZeroPages) {
  Machine M;
  M.memory().writeU64(0, 7);            // non-zero page at 0
  M.memory().writeU64(1 << 20, 0);      // touched but all-zero page
  NeverTakenDecider D;
  MachineCheckpoint C = captureCheckpoint(M, D, 0);
  ASSERT_EQ(C.Pages.size(), 1u);
  EXPECT_EQ(C.Pages[0].Base, 0u);
  EXPECT_EQ(C.DeciderKind, "stateless");
}
