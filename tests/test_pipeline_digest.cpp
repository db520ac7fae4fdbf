//===- tests/test_pipeline_digest.cpp - Pinned pipeline timestamp streams -===//
//
// Pins the detailed model's per-instruction timestamps: every field of
// every InstTimestamps the observer sees, over random programs and a
// microbenchmark, folds into one FNV-1a digest per machine configuration.
// The configurations stretch the issue window far past its initial ring
// (20000-cycle memory, a 512-entry ROB, caches small enough to miss) and
// make its periodic trim change placements, so a bookkeeping change that
// is not exact shows up as a digest mismatch. A second table pins each
// machine variant the ablations select (brr as a back-end branch, brr
// through the ROB, trap emulation, a perfect front end, fetch past taken
// branches) on the default memory system, over the same programs plus a
// store-to-load forwarding workload that holds thousands of words.
//
//===----------------------------------------------------------------------===//

#include "RandomProgramGen.h"

#include "isa/ProgramBuilder.h"
#include "telemetry/CounterInfo.h"
#include "telemetry/Counters.h"
#include "uarch/Pipeline.h"
#include "workloads/Microbench.h"

#include <gtest/gtest.h>

using namespace bor;

namespace {

struct Fnv1a {
  uint64_t H = 0xcbf29ce484222325ULL;
  void add(uint64_t V, unsigned Bytes = 8) {
    for (unsigned I = 0; I != Bytes; ++I) {
      H ^= (V >> (8 * I)) & 0xff;
      H *= 0x100000001b3ULL;
    }
  }
};

void addTimestamps(Fnv1a &D, const InstTimestamps &TS) {
  D.add(TS.Pc);
  D.add(static_cast<uint64_t>(TS.I.Op), 1);
  D.add(TS.I.Rd, 1);
  D.add(TS.I.Rs1, 1);
  D.add(TS.I.Rs2, 1);
  D.add(static_cast<uint32_t>(TS.I.Imm), 4);
  D.add(TS.I.Freq, 1);
  D.add(TS.Fetch);
  D.add(TS.Decode);
  D.add(TS.Dispatch);
  D.add(TS.Issue);
  D.add(TS.Done);
  D.add(TS.Commit);
  D.add(TS.CommittedAtDecode, 1);
  D.add(TS.Mispredicted, 1);
  D.add(TS.FrontEndFlush, 1);
}

struct DigestCase {
  unsigned MemCycles;
  unsigned RobEntries;
  bool SmallCaches; ///< 1 KiB L1D + 4 KiB L2 instead of the defaults.
  uint64_t Digest;  ///< recorded with the std::map issue window.
};

PipelineConfig configFor(const DigestCase &C) {
  PipelineConfig Cfg;
  Cfg.MemHier.MemCycles = C.MemCycles;
  Cfg.RobEntries = C.RobEntries;
  if (C.SmallCaches) {
    Cfg.MemHier.L1D = {1024, 4, 64};
    Cfg.MemHier.L2 = {4096, 8, 64};
  }
  return Cfg;
}

/// The workloads every configuration runs: random soup (long enough to
/// cross a 16K-instruction trim point or two) and the uninstrumented
/// microbenchmark, whose stream through its text buffer keeps a memory
/// miss in flight at most trim points.
std::vector<Program> digestPrograms() {
  std::vector<Program> Progs;
  for (uint64_t Seed : {11, 12, 13})
    Progs.push_back(testgen::randomProgram(Seed, /*OuterIters=*/700));
  MicrobenchConfig MC;
  MC.Text.NumChars = 6000;
  Progs.push_back(buildMicrobench(MC).Prog);
  return Progs;
}

/// Words the store-table workload stores to (a power of two, so the
/// stride-7 walk below visits each exactly once).
constexpr uint32_t StoreTableWords = 8192;

/// Stores to StoreTableWords distinct words, each reloaded at once, then
/// walks the same words again in a stride-7 order, storing and reloading
/// each. Every stored value is computed from the previous reload, so each
/// reload waits on forwarding from the store just before it, on the
/// critical path; the second walk updates entries stored thousands of
/// instructions earlier.
Program storeTableProgram() {
  ProgramBuilder B;
  const uint64_t Buf = B.allocData(StoreTableWords * 8, 8);
  B.emitLoadConst(1, Buf); // r1: first-pass cursor
  B.emitLoadConst(9, Buf); // r9: base for the second pass
  B.emit(Inst::li(6, 1));  // r6: last reloaded value
  B.emit(Inst::li(8, 3));  // r8: multiplier
  B.emitLoadConst(2, StoreTableWords);

  ProgramBuilder::LabelId Fill = B.label();
  B.bind(Fill);
  B.emit(Inst::alu(Opcode::Mul, 3, 6, 8));
  B.emit(Inst::st(3, 1, 0));
  B.emit(Inst::ld(6, 1, 0));
  B.emit(Inst::addi(1, 1, 8));
  B.emit(Inst::addi(2, 2, -1));
  B.emitBranch(Opcode::Bne, 2, RegZero, Fill);

  B.emit(Inst::li(4, 0)); // r4: byte offset of the next word
  B.emitLoadConst(2, StoreTableWords);
  ProgramBuilder::LabelId Walk = B.label();
  B.bind(Walk);
  B.emit(Inst::add(5, 9, 4));
  B.emit(Inst::alu(Opcode::Mul, 3, 6, 8));
  B.emit(Inst::st(3, 5, 0));
  B.emit(Inst::ld(6, 5, 0));
  B.emit(Inst::addi(4, 4, 7 * 8));
  B.emit(Inst::alui(Opcode::Andi, 4, 4,
                    static_cast<int32_t>(StoreTableWords * 8 - 8)));
  B.emit(Inst::addi(2, 2, -1));
  B.emitBranch(Opcode::Bne, 2, RegZero, Walk);
  B.emit(Inst::halt());
  return B.finish();
}

uint64_t digestFor(const std::vector<Program> &Progs,
                   const PipelineConfig &Cfg) {
  Fnv1a D;
  for (const Program &P : Progs) {
    DecodedProgram DP(P);
    Pipeline Pipe(DP, Cfg);
    Pipe.setObserver([&](const InstTimestamps &TS) { addTimestamps(D, TS); });
    RunResult R = Pipe.run(50'000'000);
    D.add(R.Stats.Cycles);
    D.add(R.Stats.Insts);
  }
  return D.H;
}

const DigestCase Cases[] = {
    {140, 80, false, 2261275515620430483ULL},
    {140, 80, true, 9902043759409294092ULL},
    {140, 512, false, 17935410342397629903ULL},
    {140, 512, true, 9009794531443399525ULL},
    {2000, 80, false, 16113166134738217113ULL},
    {2000, 80, true, 12154372545593650660ULL},
    {2000, 512, false, 6923705435657695533ULL},
    {2000, 512, true, 15701088405197815789ULL},
    {20000, 80, false, 12303579030003391977ULL},
    {20000, 80, true, 4212134272688259500ULL},
    {20000, 512, false, 15318126309173313776ULL},
    {20000, 512, true, 11163937650129507214ULL},
};

/// One machine variant on the default memory system.
struct VariantCase {
  const char *Name;
  void (*Apply)(PipelineConfig &);
  uint64_t Digest;
};

const VariantCase Variants[] = {
    {"default", [](PipelineConfig &) {}, 1112759108632894347ULL},
    {"BrrAsBackendBranch",
     [](PipelineConfig &C) { C.BrrAsBackendBranch = true; },
     4909930682024581007ULL},
    {"BrrCommitsAtDecode=false",
     [](PipelineConfig &C) { C.BrrCommitsAtDecode = false; },
     6061066853765670777ULL},
    {"BrrTrapCycles=300", [](PipelineConfig &C) { C.BrrTrapCycles = 300; },
     10576481907402732093ULL},
    {"PerfectBranchPrediction",
     [](PipelineConfig &C) { C.PerfectBranchPrediction = true; },
     16897963470362713383ULL},
    {"FetchStopsAtTakenBranch=false",
     [](PipelineConfig &C) { C.FetchStopsAtTakenBranch = false; },
     4290294949601800748ULL},
};

} // namespace

TEST(PipelineDigest, TimestampStreamsMatchRecordedDigests) {
  const std::vector<Program> Progs = digestPrograms();
  for (const DigestCase &C : Cases)
    EXPECT_EQ(digestFor(Progs, configFor(C)), C.Digest)
        << "MemCycles " << C.MemCycles << ", RobEntries " << C.RobEntries
        << (C.SmallCaches ? ", small caches" : ", default caches");
}

TEST(PipelineDigest, ExtremeConfigsGrowTheIssueWindow) {
  const std::vector<Program> Progs = digestPrograms();
  telemetry::CounterRegistry &Registry = telemetry::CounterRegistry::instance();
  telemetry::CounterRegistry::setEnabled(true);
  Registry.reset();
  (void)digestFor(Progs, configFor({20000, 512, true, /*Digest=*/0}));
  const telemetry::CounterSnapshot Snapshot = Registry.snapshot();
  telemetry::CounterRegistry::setEnabled(false);
  uint64_t Grows = 0;
  for (const auto &[Name, Value] : Snapshot.Counters)
    if (Name == "pipeline.issue.window_grows")
      Grows = Value;
  uint64_t MaxSlots = 0, Runs = 0;
  for (const auto &H : Snapshot.Histograms)
    if (H.Name == "pipeline.issue.window_slots") {
      MaxSlots = H.Max;
      Runs = H.Count;
    }
  EXPECT_GT(Grows, 0u);
  EXPECT_GT(MaxSlots, 256u);
  EXPECT_EQ(Runs, Progs.size());
  // Everything a pipeline run publishes is documented.
  for (const auto &[Name, Value] : Snapshot.Counters)
    EXPECT_FALSE(telemetry::describeCounter(Name).empty()) << Name;
  for (const auto &H : Snapshot.Histograms)
    EXPECT_FALSE(telemetry::describeCounter(H.Name).empty()) << H.Name;
}

TEST(PipelineDigest, MachineVariantsMatchRecordedDigests) {
  std::vector<Program> Progs = digestPrograms();
  Progs.push_back(storeTableProgram());
  for (const VariantCase &V : Variants) {
    PipelineConfig Cfg;
    V.Apply(Cfg);
    EXPECT_EQ(digestFor(Progs, Cfg), V.Digest) << V.Name;
  }
}

// The store-table workload is only a check on the forwarding table if its
// reloads actually wait on stores.
TEST(PipelineDigest, StoreTableWorkloadWaitsOnForwarding) {
  Program P = storeTableProgram();
  DecodedProgram DP(P);
  PipelineConfig Slow, Fast;
  Fast.StoreForwardDelay = 0;
  Pipeline SlowPipe(DP, Slow), FastPipe(DP, Fast);
  uint64_t SlowCycles = SlowPipe.run(50'000'000).Stats.Cycles;
  uint64_t FastCycles = FastPipe.run(50'000'000).Stats.Cycles;
  EXPECT_GT(SlowCycles, FastCycles + StoreTableWords);
}
