//===- tests/test_ckpt.cpp - Checkpoint-library subsystem tests ----------===//
//
// The COW checkpoint library's contract, bottom up: PageStore interning,
// Memory's copy-on-write attach mode (shares are bit-identical, writes
// never leak between machines), library build / lookup / resume semantics,
// serialization, the build-once LibraryPool, and the headline guarantee — a
// library-backed sampled run is field-identical to a plain one, including
// when checkpoints are missing and the runner falls back to execution.
//
//===----------------------------------------------------------------------===//

#include "ckpt/CheckpointLibrary.h"

#include "ckpt/LibraryPool.h"
#include "isa/Serialize.h"
#include "sample/SampledRunner.h"
#include "sim/Interpreter.h"
#include "telemetry/Counters.h"
#include "workloads/Microbench.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <thread>

using namespace bor;
using namespace bor::ckpt;

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

CheckpointLibrary buildLibrary(const DecodedProgram &DP,
                               uint64_t EveryInsts = 20000,
                               uint64_t MaxInsts = ~0ULL) {
  CheckpointLibrary::BuildOptions Options;
  Options.EveryInsts = EveryInsts;
  Options.MaxInsts = MaxInsts;
  return CheckpointLibrary::build(DP, BrrUnitConfig(), Options,
                                  /*Telemetry=*/nullptr);
}

/// Every field of a SampledResult that plain and library-backed exact runs
/// must agree on (everything but the wall-clock phase timers).
void expectSameSampledResult(const SampledResult &A, const SampledResult &B) {
  EXPECT_EQ(A.TotalInsts, B.TotalInsts);
  EXPECT_EQ(A.FastForwardInsts, B.FastForwardInsts);
  EXPECT_EQ(A.WarmedInsts, B.WarmedInsts);
  EXPECT_EQ(A.PrerollInsts, B.PrerollInsts);
  EXPECT_EQ(A.MeasuredInsts, B.MeasuredInsts);
  EXPECT_EQ(A.NumIntervals, B.NumIntervals);
  EXPECT_EQ(A.Halted, B.Halted);
  EXPECT_EQ(A.Detailed.Insts, B.Detailed.Insts);
  EXPECT_EQ(A.Detailed.Cycles, B.Detailed.Cycles);
  EXPECT_EQ(A.Detailed.CondBranches, B.Detailed.CondBranches);
  EXPECT_EQ(A.Detailed.CondMispredicts, B.Detailed.CondMispredicts);
  EXPECT_EQ(A.Detailed.BrrExecuted, B.Detailed.BrrExecuted);
  EXPECT_EQ(A.Detailed.BrrTaken, B.Detailed.BrrTaken);
  EXPECT_EQ(A.Detailed.BackendFlushCycles, B.Detailed.BackendFlushCycles);
  EXPECT_EQ(A.Detailed.FrontendFlushCycles, B.Detailed.FrontendFlushCycles);
  EXPECT_EQ(A.IpcSamples.mean(), B.IpcSamples.mean());
  EXPECT_EQ(A.IpcSamples.ci95HalfWidth(), B.IpcSamples.ci95HalfWidth());
  EXPECT_EQ(A.FlushFracSamples.mean(), B.FlushFracSamples.mean());
  EXPECT_EQ(A.BrrRateSamples.mean(), B.BrrRateSamples.mean());
  ASSERT_EQ(A.Markers.size(), B.Markers.size());
  for (size_t I = 0; I != A.Markers.size(); ++I) {
    EXPECT_EQ(A.Markers[I].Id, B.Markers[I].Id);
    EXPECT_EQ(A.Markers[I].GlobalInst, B.Markers[I].GlobalInst);
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// PageStore
//===----------------------------------------------------------------------===//

TEST(PageStore, InternsDistinctContentOnce) {
  PageStore Store;
  Memory::Page A{};
  A[0] = 1;
  Memory::Page B{};
  B[0] = 2;

  PageStore::PageRef RA1 = Store.intern(A.data());
  PageStore::PageRef RA2 = Store.intern(A.data());
  PageStore::PageRef RB = Store.intern(B.data());

  EXPECT_EQ(RA1, RA2) << "identical content must share one stored page";
  EXPECT_NE(RA1, RB);
  EXPECT_EQ(Store.numStoredPages(), 2u);
  EXPECT_EQ(Store.numDedupHits(), 1u);
  EXPECT_EQ(std::memcmp(RA1->data(), A.data(), sizeof(A)), 0);
  EXPECT_EQ(std::memcmp(RB->data(), B.data(), sizeof(B)), 0);
}

TEST(PageStore, HandlesOutliveTheStore) {
  Memory::Page A{};
  A[100] = 42;
  PageStore::PageRef R;
  {
    PageStore Store;
    R = Store.intern(A.data());
  }
  EXPECT_EQ((*R)[100], 42);
}

//===----------------------------------------------------------------------===//
// Memory copy-on-write
//===----------------------------------------------------------------------===//

TEST(MemoryCow, SharedPagesReadBitIdentically) {
  PageStore Store;
  Memory::Page P{};
  for (size_t I = 0; I != P.size(); ++I)
    P[I] = static_cast<uint8_t>(I * 7);
  PageStore::PageRef R = Store.intern(P.data());

  Machine A, B;
  A.memory().attachShared(0, R);
  B.memory().attachShared(0, R);
  for (uint64_t Addr = 0; Addr != Memory::pageBytes(); ++Addr) {
    ASSERT_EQ(A.memory().readU8(Addr), P[Addr]);
    ASSERT_EQ(B.memory().readU8(Addr), P[Addr]);
  }
  EXPECT_EQ(A.memory().cowCounts().Attached, 1u);
  EXPECT_EQ(A.memory().cowCounts().Copied, 0u) << "reads must not copy";
}

TEST(MemoryCow, WritesNeverLeakBetweenMachines) {
  PageStore Store;
  Memory::Page P{};
  P[8] = 0x11;
  PageStore::PageRef R = Store.intern(P.data());

  Machine A, B;
  A.memory().attachShared(0, R);
  B.memory().attachShared(0, R);

  A.memory().writeU8(8, 0x99); // privatizes A's copy
  EXPECT_EQ(A.memory().readU8(8), 0x99);
  EXPECT_EQ(B.memory().readU8(8), 0x11) << "write leaked into machine B";
  EXPECT_EQ((*R)[8], 0x11) << "write leaked into the shared store";
  EXPECT_EQ(A.memory().cowCounts().Copied, 1u);
  EXPECT_EQ(B.memory().cowCounts().Copied, 0u);

  // A second write to the already-private page copies nothing more.
  A.memory().writeU8(9, 1);
  EXPECT_EQ(A.memory().cowCounts().Copied, 1u);
}

TEST(MemoryCow, ResetDropsSharesButKeepsCounts) {
  PageStore Store;
  Memory::Page P{};
  P[0] = 5;
  PageStore::PageRef R = Store.intern(P.data());

  Machine M;
  M.memory().attachShared(0, R);
  M.memory().writeU8(0, 6);
  M.memory().reset();
  EXPECT_EQ(M.memory().readU8(0), 0) << "reset memory reads as zero";
  EXPECT_EQ(M.memory().numPages(), 0u);
  EXPECT_EQ(M.memory().cowCounts().Attached, 1u);
  EXPECT_EQ(M.memory().cowCounts().Copied, 1u);
}

TEST(MemoryCow, LoadProgramDropsStalePages) {
  MicrobenchProgram MB = brrProgram(500);
  Machine M;
  // Dirty a page far outside the program's data segment.
  M.memory().writeU64(1ULL << 30, 0xdeadbeef);
  M.loadProgram(MB.Prog);
  EXPECT_EQ(M.memory().readU64(1ULL << 30), 0u)
      << "stale page survived loadProgram";
}

//===----------------------------------------------------------------------===//
// CheckpointLibrary build and lookup
//===----------------------------------------------------------------------===//

TEST(CheckpointLibrary, BuildCapturesPeriodicCheckpoints) {
  MicrobenchProgram MB = brrProgram();
  DecodedProgram DP(MB.Prog);
  CheckpointLibrary Lib = buildLibrary(DP, 20000);

  ASSERT_GE(Lib.numCheckpoints(), 3u);
  EXPECT_EQ(Lib.periodInsts(), 20000u);
  EXPECT_TRUE(Lib.streamHalted());
  EXPECT_EQ(Lib.deciderKind(), "lfsr");
  EXPECT_EQ(Lib.front().InstsRetired, 0u);
  EXPECT_EQ(Lib.finalCheckpoint()->InstsRetired, Lib.totalInsts());
  EXPECT_TRUE(Lib.finalCheckpoint()->Halted);

  // Interior capture points sit exactly on period boundaries.
  const std::vector<LibraryCheckpoint> &Cs = Lib.checkpoints();
  for (size_t I = 1; I + 1 < Cs.size(); ++I)
    EXPECT_EQ(Cs[I].InstsRetired, I * 20000u);

  // Interning pays: consecutive checkpoints share untouched pages.
  EXPECT_GT(Lib.numDedupHits(), 0u);

  // The build observed the program's ROI markers at 1-based global
  // instruction indices within the stream.
  ASSERT_EQ(Lib.markers().size(), 2u);
  EXPECT_GT(Lib.markers()[0].GlobalInst, 0u);
  EXPECT_LE(Lib.markers()[1].GlobalInst, Lib.totalInsts());
}

TEST(CheckpointLibrary, BuildIsDeterministic) {
  MicrobenchProgram MB = brrProgram();
  DecodedProgram DP(MB.Prog);
  CheckpointLibrary A = buildLibrary(DP);
  CheckpointLibrary B = buildLibrary(DP);
  EXPECT_EQ(A.encode(), B.encode());
}

TEST(CheckpointLibrary, LookupSemantics) {
  MicrobenchProgram MB = brrProgram();
  DecodedProgram DP(MB.Prog);
  CheckpointLibrary Lib = buildLibrary(DP, 20000);

  EXPECT_EQ(Lib.checkpointAt(0), &Lib.front());
  EXPECT_NE(Lib.checkpointAt(20000), nullptr);
  EXPECT_EQ(Lib.checkpointAt(20001), nullptr);
  EXPECT_EQ(Lib.checkpointAt(19999), nullptr);

  EXPECT_EQ(Lib.nearestAtOrBefore(0), &Lib.front());
  EXPECT_EQ(Lib.nearestAtOrBefore(19999)->InstsRetired, 0u);
  EXPECT_EQ(Lib.nearestAtOrBefore(20000)->InstsRetired, 20000u);
  EXPECT_EQ(Lib.nearestAtOrBefore(29999)->InstsRetired, 20000u);
  EXPECT_EQ(Lib.nearestAtOrBefore(~0ULL)->InstsRetired, Lib.totalInsts());
}

TEST(CheckpointLibrary, MarkersInIsHalfOpenLowClosedHigh) {
  MicrobenchProgram MB = brrProgram();
  DecodedProgram DP(MB.Prog);
  CheckpointLibrary Lib = buildLibrary(DP);
  ASSERT_EQ(Lib.markers().size(), 2u);
  uint64_t M0 = Lib.markers()[0].GlobalInst;
  uint64_t M1 = Lib.markers()[1].GlobalInst;

  EXPECT_EQ(Lib.markersIn(0, Lib.totalInsts()).size(), 2u);
  EXPECT_EQ(Lib.markersIn(M0, M1).size(), 1u); // excludes M0, includes M1
  EXPECT_EQ(Lib.markersIn(M0, M1)[0].GlobalInst, M1);
  EXPECT_EQ(Lib.markersIn(M1, Lib.totalInsts()).size(), 0u);
  EXPECT_EQ(Lib.markersIn(0, M0 - 1).size(), 0u);
}

//===----------------------------------------------------------------------===//
// Resume correctness
//===----------------------------------------------------------------------===//

TEST(CheckpointLibrary, ResumedRunMatchesUninterruptedRun) {
  MicrobenchProgram MB = brrProgram();
  DecodedProgram DP(MB.Prog);
  CheckpointLibrary Lib = buildLibrary(DP, 20000);
  ASSERT_GE(Lib.numCheckpoints(), 3u);

  // Uninterrupted reference run.
  Machine Ref;
  BrrUnitDecider RefD;
  Interpreter RefI(DP, Ref, RefD);
  RunStats RefStats = RefI.run(1ULL << 24);
  ASSERT_TRUE(RefStats.Halted);

  // Resume the second interior checkpoint and run to completion. A
  // different decider seed proves only the restored state matters.
  const LibraryCheckpoint *C = Lib.checkpointAt(40000);
  ASSERT_NE(C, nullptr);
  Machine M;
  BrrUnitConfig OtherSeed;
  OtherSeed.Seed = 0x1234567;
  BrrUnitDecider D(OtherSeed);
  std::string Err;
  ASSERT_TRUE(Lib.resume(*C, M, D, Err)) << Err;
  Interpreter I(DP, M, D, /*LoadImage=*/false);
  RunStats Tail = I.run(1ULL << 24);
  ASSERT_TRUE(Tail.Halted);

  expectSameArchState(Ref, M);
  EXPECT_EQ(C->InstsRetired + Tail.Insts, RefStats.Insts);
  EXPECT_EQ(D.checkpointWords(), RefD.checkpointWords());
}

TEST(CheckpointLibrary, ResumeOverDirtyMachineDropsStaleState) {
  // Regression: resuming a checkpoint over a machine that already ran
  // part of the program (plus scribbles elsewhere) must shed every stale
  // page, not merge old and new state.
  MicrobenchProgram MB = brrProgram();
  DecodedProgram DP(MB.Prog);
  CheckpointLibrary Lib = buildLibrary(DP, 20000);
  const LibraryCheckpoint *C = Lib.checkpointAt(20000);
  ASSERT_NE(C, nullptr);

  // Dirty machine: partial run to a different point plus a far write.
  Machine Dirty;
  BrrUnitDecider DD;
  Interpreter DI(DP, Dirty, DD);
  DI.run(31337, /*RequireHalt=*/false);
  Dirty.memory().writeU64(1ULL << 30, 0xabcdef);

  // Clean machine: resume into a fresh target.
  Machine Clean;
  BrrUnitDecider CD;
  std::string Err;
  ASSERT_TRUE(Lib.resume(*C, Clean, CD, Err)) << Err;
  ASSERT_TRUE(Lib.resume(*C, Dirty, DD, Err)) << Err;

  expectSameArchState(Clean, Dirty);
  EXPECT_EQ(Dirty.memory().readU64(1ULL << 30), 0u);

  // And both continue to the identical halt state.
  Interpreter IC(DP, Clean, CD, /*LoadImage=*/false);
  Interpreter ID(DP, Dirty, DD, /*LoadImage=*/false);
  ASSERT_TRUE(IC.run(1ULL << 24).Halted);
  ASSERT_TRUE(ID.run(1ULL << 24).Halted);
  expectSameArchState(Clean, Dirty);
}

TEST(CheckpointLibrary, RejectsDeciderKindMismatch) {
  MicrobenchProgram MB = brrProgram(500);
  DecodedProgram DP(MB.Prog);
  CheckpointLibrary Lib = buildLibrary(DP);
  Machine M;
  HwCounterDecider Counter;
  std::string Err;
  EXPECT_FALSE(Lib.resume(Lib.front(), M, Counter, Err));
  EXPECT_NE(Err.find("lfsr"), std::string::npos);
  EXPECT_NE(Err.find("counter"), std::string::npos);
}

TEST(CheckpointLibrary, ConcurrentResumesAreBitIdentical) {
  // The fan-out the subsystem exists for: many threads resume the same
  // checkpoint concurrently, each runs to completion, and every machine
  // lands in the bit-identical final state (no sharing-related races;
  // run under the asan-ubsan preset via the sanitize label).
  MicrobenchProgram MB = brrProgram();
  DecodedProgram DP(MB.Prog);
  CheckpointLibrary Lib = buildLibrary(DP, 20000);
  const LibraryCheckpoint *C = Lib.checkpointAt(20000);
  ASSERT_NE(C, nullptr);

  Machine Ref;
  BrrUnitDecider RefD;
  {
    std::string Err;
    ASSERT_TRUE(Lib.resume(*C, Ref, RefD, Err)) << Err;
    Interpreter I(DP, Ref, RefD, /*LoadImage=*/false);
    ASSERT_TRUE(I.run(1ULL << 24).Halted);
  }

  constexpr unsigned NumThreads = 4;
  std::vector<Machine> Machines(NumThreads);
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != NumThreads; ++T)
    Threads.emplace_back([&, T] {
      BrrUnitDecider D;
      std::string Err;
      if (!Lib.resume(*C, Machines[T], D, Err))
        return; // main thread's state comparison will report the failure
      Interpreter I(DP, Machines[T], D, /*LoadImage=*/false);
      I.run(1ULL << 24);
    });
  for (std::thread &T : Threads)
    T.join();
  for (unsigned T = 0; T != NumThreads; ++T)
    expectSameArchState(Ref, Machines[T]);
}

//===----------------------------------------------------------------------===//
// Serialization
//===----------------------------------------------------------------------===//

TEST(CheckpointLibrary, EncodeDecodeRoundTrips) {
  MicrobenchProgram MB = brrProgram();
  DecodedProgram DP(MB.Prog);
  CheckpointLibrary Lib = buildLibrary(DP, 20000);

  CheckpointLibrary Back;
  std::string Err;
  ASSERT_TRUE(CheckpointLibrary::decode(Lib.encode(), Back, Err)) << Err;
  EXPECT_EQ(Back.periodInsts(), Lib.periodInsts());
  EXPECT_EQ(Back.totalInsts(), Lib.totalInsts());
  EXPECT_EQ(Back.streamHalted(), Lib.streamHalted());
  EXPECT_EQ(Back.numCheckpoints(), Lib.numCheckpoints());
  EXPECT_EQ(Back.numStoredPages(), Lib.numStoredPages());
  EXPECT_EQ(Back.markers().size(), Lib.markers().size());
  // Re-encoding the decoded library reproduces the bytes exactly.
  EXPECT_EQ(Back.encode(), Lib.encode());

  // A resume from the decoded library behaves identically.
  const LibraryCheckpoint *CA = Lib.checkpointAt(20000);
  const LibraryCheckpoint *CB = Back.checkpointAt(20000);
  ASSERT_NE(CA, nullptr);
  ASSERT_NE(CB, nullptr);
  Machine MA, MB2;
  BrrUnitDecider DA, DB;
  ASSERT_TRUE(Lib.resume(*CA, MA, DA, Err)) << Err;
  ASSERT_TRUE(Back.resume(*CB, MB2, DB, Err)) << Err;
  expectSameArchState(MA, MB2);
}

namespace {

/// Resumes every checkpoint of \p Lib into \p M, whose page caches still
/// hold a page of an earlier resume, and reads every attached page back
/// through them (one word per 256 bytes, to keep the sweep fast).
/// Returns the number of words that read back wrong.
uint64_t resumeAndReadBack(const CheckpointLibrary &Lib, Machine &M) {
  uint64_t Wrong = 0;
  for (const LibraryCheckpoint &C : Lib.checkpoints()) {
    if (!C.Pages.empty())
      (void)M.memory().readU64(C.Pages.front().first);
    BrrUnitDecider D;
    std::string Err;
    if (!Lib.resume(C, M, D, Err))
      continue;
    for (const auto &[Base, P] : C.Pages)
      for (uint64_t Off = 0; Off < Memory::pageBytes(); Off += 256) {
        uint64_t Want = 0;
        for (unsigned I = 0; I != 8; ++I)
          Want |= static_cast<uint64_t>((*P)[Off + I]) << (8 * I);
        Wrong += M.memory().readU64(Base + Off) != Want;
      }
  }
  return Wrong;
}

/// Payload byte offsets of the fields decode()'s shape checks read, walked
/// from the layout documented in ckpt/CheckpointLibrary.h.
struct PayloadOffsets {
  static constexpr size_t TotalInsts = 12; ///< after version, periodInsts
  static constexpr size_t StreamHalted = 20;
  std::vector<size_t> CkptInsts;  ///< each checkpoint's instsRetired
  std::vector<size_t> CkptHalted; ///< each checkpoint's halted byte
  std::vector<size_t> MarkerInst; ///< each marker's globalInst
  size_t End = 0;
};

PayloadOffsets payloadOffsets(const CheckpointLibrary &Lib) {
  PayloadOffsets O;
  size_t Pos = PayloadOffsets::StreamHalted + 1 + 4 +
               Lib.deciderKind().size() + 8 +
               Lib.numStoredPages() * Memory::pageBytes() + 8;
  for (const LibraryCheckpoint &C : Lib.checkpoints()) {
    O.CkptInsts.push_back(Pos);
    O.CkptHalted.push_back(Pos + 16);
    Pos += 17 + 32 * 8 + 4 + 8 * C.DeciderWords.size() + 8 +
           16 * C.Pages.size();
  }
  Pos += 8;
  for (size_t I = 0; I != Lib.markers().size(); ++I, Pos += 12)
    O.MarkerInst.push_back(Pos + 4);
  O.End = Pos;
  return O;
}

/// The merged value of counter \p Name, or 0 when nothing published it.
uint64_t counterValue(const std::string &Name) {
  for (const auto &[N, V] :
       telemetry::CounterRegistry::instance().snapshot().Counters)
    if (N == Name)
      return V;
  return 0;
}

} // namespace

TEST(CheckpointLibrary, RejectsCorruptPayloads) {
  MicrobenchProgram MB = brrProgram(500);
  DecodedProgram DP(MB.Prog);
  CheckpointLibrary Lib = buildLibrary(DP, 5000);
  ASSERT_GE(Lib.numStoredPages(), 3u);
  ASSERT_GE(Lib.numCheckpoints(), 3u);
  std::vector<uint8_t> Bytes = Lib.encode();

  CheckpointLibrary Out;
  std::string Err;
  // Truncation anywhere must fail cleanly, never crash.
  for (size_t Keep = 0; Keep != Bytes.size(); ++Keep) {
    std::vector<uint8_t> Cut(Bytes.begin(), Bytes.begin() + Keep);
    EXPECT_FALSE(CheckpointLibrary::decode(Cut, Out, Err)) << "kept " << Keep;
  }
  // Every single-bit flip either fails with an error or decodes to a
  // library whose checkpoints resume and read back. One machine takes
  // every resume, so its caches always hold a page of the previous one.
  Machine M;
  uint64_t Decoded = 0, Wrong = 0;
  for (size_t I = 0; I != Bytes.size(); ++I)
    for (unsigned Bit = 0; Bit != 8; ++Bit) {
      Bytes[I] ^= static_cast<uint8_t>(1u << Bit);
      Err.clear();
      if (CheckpointLibrary::decode(Bytes, Out, Err)) {
        ++Decoded;
        Wrong += resumeAndReadBack(Out, M);
      } else {
        EXPECT_FALSE(Err.empty()) << "byte " << I << " bit " << Bit;
      }
      Bytes[I] ^= static_cast<uint8_t>(1u << Bit);
    }
  EXPECT_GT(Decoded, 0u); // flips inside page data decode fine
  EXPECT_EQ(Wrong, 0u);
  std::vector<uint8_t> Long = Bytes;
  Long.push_back(0);
  EXPECT_FALSE(CheckpointLibrary::decode(Long, Out, Err));
  std::vector<uint8_t> BadVer = Bytes;
  BadVer[0] = 0xff;
  EXPECT_FALSE(CheckpointLibrary::decode(BadVer, Out, Err));
  EXPECT_NE(Err.find("version"), std::string::npos);

  // Well-formed payloads whose shape build() never produces, and which
  // the resume path would misread (markersIn binary-searches the markers;
  // a run ends on the final checkpoint's halt state).
  ASSERT_TRUE(Lib.streamHalted());
  ASSERT_GE(Lib.markers().size(), 2u);
  const PayloadOffsets Off = payloadOffsets(Lib);
  ASSERT_EQ(Off.End, Bytes.size());
  const uint64_t Total = Lib.totalInsts();
  const uint64_t Marker1 = Lib.markers()[1].GlobalInst;
  const std::vector<LibraryCheckpoint> &Ckpts = Lib.checkpoints();
  const uint64_t LastInsts = Ckpts.back().InstsRetired;
  ASSERT_GT(LastInsts - Ckpts[Ckpts.size() - 2].InstsRetired, 1u);
  struct Patch {
    const char *Name;
    size_t Pos;
    unsigned Width; ///< bytes written, little-endian
    uint64_t Value;
  };
  const Patch Violations[] = {
      {"checkpoint 0 past instruction 0", Off.CkptInsts[0], 8, 1},
      {"last checkpoint short of totalInsts", Off.CkptInsts.back(), 8,
       LastInsts - 1},
      {"totalInsts past the last checkpoint", PayloadOffsets::TotalInsts, 8,
       Total + 1},
      {"halted stream, running last checkpoint", Off.CkptHalted.back(), 1, 0},
      {"running stream, halted last checkpoint", PayloadOffsets::StreamHalted,
       1, 0},
      {"earlier checkpoint halted", Off.CkptHalted[1], 1, 1},
      {"duplicate marker position", Off.MarkerInst[0], 8, Marker1},
      {"descending markers", Off.MarkerInst[0], 8, Marker1 + 1},
      {"marker at instruction 0", Off.MarkerInst[0], 8, 0},
      {"marker past the stream", Off.MarkerInst.back(), 8, Total + 1},
  };
  for (const Patch &P : Violations) {
    std::vector<uint8_t> Bad = Bytes;
    for (unsigned I = 0; I != P.Width; ++I)
      Bad[P.Pos + I] = static_cast<uint8_t>(P.Value >> (8 * I));
    Err.clear();
    EXPECT_FALSE(CheckpointLibrary::decode(Bad, Out, Err)) << P.Name;
    EXPECT_NE(Err.find("library"), std::string::npos)
        << P.Name << ": " << Err;
  }
}

TEST(CheckpointLibrary, FileRoundTripThroughBorbContainer) {
  MicrobenchProgram MB = brrProgram();
  DecodedProgram DP(MB.Prog);
  CheckpointLibrary Lib = buildLibrary(DP, 20000);

  std::string Path = testing::TempDir() + "ckpt_library_roundtrip.borb";
  ASSERT_TRUE(saveLibraryFile(MB.Prog, Lib, Path));

  Program P;
  CheckpointLibrary Back;
  std::string Err;
  ASSERT_TRUE(loadLibraryFile(Path, P, Back, Err)) << Err;
  EXPECT_EQ(P.numInsts(), MB.Prog.numInsts());
  EXPECT_EQ(Back.encode(), Lib.encode());

  // The image still loads as a plain program, CKPL section and all.
  LoadResult R = loadProgramFile(Path);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_NE(R.findSection("CKPL"), nullptr);
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Library-backed sampled runs
//===----------------------------------------------------------------------===//

TEST(SampledFromLibrary, FieldIdenticalToPlainSampling) {
  // The subsystem's headline guarantee: swapping re-executed fast-forward
  // for COW resume changes nothing observable about the sampled result.
  MicrobenchProgram MB = brrProgram();
  DecodedProgram DP(MB.Prog);

  SamplingPlan Plan;
  Plan.PeriodInsts = 20000;
  Plan.WarmupInsts = 1000;
  Plan.MeasureInsts = 500;
  ASSERT_TRUE(Plan.valid());

  CheckpointLibrary Lib = buildLibrary(DP, Plan.PeriodInsts);
  SampledResult Plain = runSampled(DP, Plan);
  SampledResult FromLib = runSampledFromLibrary(DP, Lib, Plan,
                                                PipelineConfig());
  expectSameSampledResult(Plain, FromLib);
}

TEST(SampledFromLibrary, TruncatedLibraryFallsBackToExecution) {
  // A library whose build budget ended mid-stream covers only a prefix;
  // spans beyond it must execute functionally and still match plain
  // sampling field for field.
  MicrobenchProgram MB = brrProgram();
  DecodedProgram DP(MB.Prog);

  SamplingPlan Plan;
  Plan.PeriodInsts = 20000;
  Plan.WarmupInsts = 1000;
  Plan.MeasureInsts = 500;

  CheckpointLibrary Lib = buildLibrary(DP, Plan.PeriodInsts,
                                       /*MaxInsts=*/30000);
  EXPECT_FALSE(Lib.streamHalted());
  SampledResult Plain = runSampled(DP, Plan);
  SampledResult FromLib = runSampledFromLibrary(DP, Lib, Plan,
                                                PipelineConfig());
  expectSameSampledResult(Plain, FromLib);
}

//===----------------------------------------------------------------------===//
// LibraryPool
//===----------------------------------------------------------------------===//

TEST(LibraryPool, BuildsOncePerKeyAcrossThreads) {
  MicrobenchProgram MB = brrProgram();
  DecodedProgram DP(MB.Prog);
  LibraryPool Pool;

  constexpr unsigned NumThreads = 4;
  std::vector<std::shared_ptr<const CheckpointLibrary>> Libs(NumThreads);
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != NumThreads; ++T)
    Threads.emplace_back([&, T] {
      Libs[T] = Pool.getOrBuild(DP, BrrUnitConfig(), 20000);
    });
  for (std::thread &T : Threads)
    T.join();

  EXPECT_EQ(Pool.numLibraries(), 1u);
  for (unsigned T = 1; T != NumThreads; ++T)
    EXPECT_EQ(Libs[0], Libs[T]) << "thread " << T << " got a private build";
  EXPECT_EQ(Libs[0]->periodInsts(), 20000u);
}

TEST(LibraryPool, KeyDependsOnProgramDeciderAndPeriod) {
  MicrobenchProgram A = brrProgram(500);
  MicrobenchProgram B = brrProgram(600);
  BrrUnitConfig Cfg;
  uint64_t Base = LibraryPool::keyFor(A.Prog, Cfg, 20000);
  EXPECT_NE(Base, LibraryPool::keyFor(B.Prog, Cfg, 20000));
  EXPECT_NE(Base, LibraryPool::keyFor(A.Prog, Cfg, 40000));
  BrrUnitConfig Seeded;
  Seeded.Seed = 0x1234567;
  EXPECT_NE(Base, LibraryPool::keyFor(A.Prog, Seeded, 20000));
  EXPECT_EQ(Base, LibraryPool::keyFor(A.Prog, Cfg, 20000));
}

TEST(LibraryPool, PersistsAndReloadsThroughCacheDir) {
  MicrobenchProgram MB = brrProgram();
  DecodedProgram DP(MB.Prog);
  std::string Dir = testing::TempDir();

  std::vector<uint8_t> BuiltBytes;
  {
    LibraryPool Pool(Dir);
    BuiltBytes = Pool.getOrBuild(DP, BrrUnitConfig(), 20000)->encode();
  }
  // A fresh pool finds the persisted image instead of rebuilding.
  LibraryPool Pool(Dir);
  std::shared_ptr<const CheckpointLibrary> Lib =
      Pool.getOrBuild(DP, BrrUnitConfig(), 20000);
  EXPECT_EQ(Lib->encode(), BuiltBytes);

  std::string Path = Pool.cachePathFor(
      LibraryPool::keyFor(MB.Prog, BrrUnitConfig(), 20000));
  EXPECT_NE(Path.find(Dir), std::string::npos);
  std::remove(Path.c_str());
}

TEST(LibraryPool, CorruptCacheFileIsRebuiltNotFatal) {
  MicrobenchProgram MB = brrProgram();
  DecodedProgram DP(MB.Prog);
  std::string Dir = testing::TempDir() + "ckpt_corrupt_cache";

  SamplingPlan Plan;
  Plan.PeriodInsts = 20000;
  Plan.WarmupInsts = 1000;
  Plan.MeasureInsts = 500;
  const SampledResult Plain = runSampled(DP, Plan);

  std::shared_ptr<const CheckpointLibrary> Good =
      LibraryPool(Dir).getOrBuild(DP, BrrUnitConfig(), Plan.PeriodInsts);
  const std::vector<uint8_t> GoodBytes = Good->encode();
  std::string Path = LibraryPool(Dir).cachePathFor(
      LibraryPool::keyFor(MB.Prog, BrrUnitConfig(), Plan.PeriodInsts));
  ASSERT_FALSE(Path.empty());

  // Bit 4 of byte 2 of the first marker's globalInst: the markers fall out
  // of order, which markersIn's binary search would silently misread.
  std::vector<uint8_t> MarkerFlip = GoodBytes;
  MarkerFlip[payloadOffsets(*Good).MarkerInst[0] + 2] ^= 0x10;
  // A well-formed version-2 payload, as caches written before the
  // basic-block-vector section was dropped hold: the version word plus
  // that (here empty) trailing section.
  std::vector<uint8_t> Version2 = GoodBytes;
  Version2[0] = 2;
  Version2.insert(Version2.end(), 8, 0);
  auto writePayload = [&](const std::vector<uint8_t> &Payload) {
    ASSERT_TRUE(saveProgram(MB.Prog, Path,
                            {ContainerSection::make("CKPL", Payload)}));
  };
  const std::pair<const char *, std::function<void()>> Corruptions[] = {
      // Garbage over the header, as a torn write from a killed process
      // would leave.
      {"torn header",
       [&] {
         std::FILE *F = std::fopen(Path.c_str(), "rb+");
         ASSERT_NE(F, nullptr);
         std::fputs("garbage where the header was", F);
         ASSERT_EQ(std::fclose(F), 0);
       }},
      {"marker flip", [&] { writePayload(MarkerFlip); }},
      {"version 2", [&] { writePayload(Version2); }},
  };

  telemetry::CounterRegistry &Registry = telemetry::CounterRegistry::instance();
  telemetry::CounterRegistry::setEnabled(true);
  for (const auto &[Name, Corrupt] : Corruptions) {
    SCOPED_TRACE(Name);
    Corrupt();
    // A fresh pool must warn and rebuild once — same library, never a
    // crash or a poisoned result.
    Registry.reset();
    {
      LibraryPool Pool(Dir);
      std::shared_ptr<const CheckpointLibrary> Lib =
          Pool.getOrBuild(DP, BrrUnitConfig(), Plan.PeriodInsts);
      ASSERT_NE(Lib, nullptr);
      EXPECT_EQ(Lib->encode(), GoodBytes);
      expectSameSampledResult(
          Plain, runSampledFromLibrary(DP, *Lib, Plan, PipelineConfig()));
    }
    EXPECT_EQ(counterValue("ckpt.libraries.corrupt"), 1u);

    // And the rebuild rewrote the cache file: the next pool loads it.
    Registry.reset();
    EXPECT_EQ(LibraryPool(Dir)
                  .getOrBuild(DP, BrrUnitConfig(), Plan.PeriodInsts)
                  ->encode(),
              GoodBytes);
    EXPECT_EQ(counterValue("ckpt.libraries.loaded"), 1u);
    EXPECT_EQ(counterValue("ckpt.libraries.corrupt"), 0u);
  }
  telemetry::CounterRegistry::setEnabled(false);
  std::remove(Path.c_str());
}

TEST(LibraryPool, InflatedCacheHeaderIsRebuiltNotFatal) {
  MicrobenchProgram MB = brrProgram();
  DecodedProgram DP(MB.Prog);
  std::string Dir = testing::TempDir() + "ckpt_inflated_cache";

  std::vector<uint8_t> GoodBytes;
  {
    LibraryPool Pool(Dir);
    GoodBytes = Pool.getOrBuild(DP, BrrUnitConfig(), 20000)->encode();
  }
  std::string Path = LibraryPool(Dir).cachePathFor(
      LibraryPool::keyFor(MB.Prog, BrrUnitConfig(), 20000));
  ASSERT_FALSE(Path.empty());

  // Inflate the BORB header's u64 data size (offset 20) to 2^62 and leave
  // the rest of the file intact: the decoder must reject it, not try to
  // allocate it.
  {
    std::FILE *F = std::fopen(Path.c_str(), "rb+");
    ASSERT_NE(F, nullptr);
    const uint8_t Huge[8] = {0, 0, 0, 0, 0, 0, 0, 0x40};
    ASSERT_EQ(std::fseek(F, 20, SEEK_SET), 0);
    ASSERT_EQ(std::fwrite(Huge, 1, sizeof(Huge), F), sizeof(Huge));
    ASSERT_EQ(std::fclose(F), 0);
  }

  telemetry::CounterRegistry &Registry = telemetry::CounterRegistry::instance();
  telemetry::CounterRegistry::setEnabled(true);
  Registry.reset();
  {
    LibraryPool Pool(Dir);
    std::shared_ptr<const CheckpointLibrary> Lib =
        Pool.getOrBuild(DP, BrrUnitConfig(), 20000);
    ASSERT_NE(Lib, nullptr);
    EXPECT_EQ(Lib->encode(), GoodBytes);
  }
  EXPECT_EQ(counterValue("ckpt.libraries.corrupt"), 1u);
  telemetry::CounterRegistry::setEnabled(false);
  std::remove(Path.c_str());
}
