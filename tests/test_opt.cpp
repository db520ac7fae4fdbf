//===- tests/test_opt.cpp - Profile maps and layout passes ----------------===//
//
// The src/opt/ subsystem: profile representation (JSON round-trip, oracle
// collection, sampled-site ingestion) and the three layout passes, each
// checked both structurally (the layout moved the way the pass promises)
// and semantically (the emitted program still computes the same thing).
//
//===----------------------------------------------------------------------===//

#include "cfg/Cfg.h"
#include "instr/Sites.h"
#include "instr/Transform.h"
#include "isa/Encoding.h"
#include "opt/Passes.h"
#include "opt/ProfileMap.h"
#include "sim/Interpreter.h"
#include "workloads/PgoGen.h"

#include "Mutations.h"

#include "gtest/gtest.h"

#include <algorithm>

using namespace bor;

namespace {

uint64_t runChecksum(const Program &P, uint64_t ChecksumAddr,
                     RunStats *StatsOut = nullptr) {
  Machine M;
  BrrUnitDecider D;
  const DecodedProgram DP(P);
  Interpreter I(DP, M, D);
  RunStats S = I.run(1ULL << 24);
  EXPECT_TRUE(S.Halted);
  if (StatsOut)
    *StatsOut = S;
  return M.memory().readU64(ChecksumAddr);
}

TEST(ProfileMap, JsonRoundTripPreservesCountsAndCompleteness) {
  opt::ProfileMap P;
  P.add(0, 1000, 900);
  P.add(7, 3);
  P.add(7, 2); // accumulates
  P.setComplete(true);
  opt::ProfileMap Q;
  std::string Err;
  ASSERT_TRUE(opt::ProfileMap::fromJson(P.toJson(), Q, Err)) << Err;
  EXPECT_TRUE(Q.complete());
  EXPECT_EQ(Q.numBlocks(), 2u);
  EXPECT_EQ(Q.execCount(0), 1000u);
  EXPECT_EQ(Q.takenCount(0), 900u);
  EXPECT_EQ(Q.execCount(7), 5u);
  EXPECT_EQ(Q.takenCount(7), 0u);
  EXPECT_FALSE(Q.hasBlock(3));
  EXPECT_EQ(Q.maxExec(), 1000u);
  EXPECT_EQ(Q.totalExec(), 1005u);

  opt::ProfileMap Partial;
  Partial.add(1, 5);
  ASSERT_TRUE(opt::ProfileMap::fromJson(Partial.toJson(), Q, Err)) << Err;
  EXPECT_FALSE(Q.complete());
}

TEST(ProfileMap, FromJsonRejectsWrongVersionAndMalformedInput) {
  opt::ProfileMap Q;
  std::string Err;
  EXPECT_FALSE(opt::ProfileMap::fromJson("{\"version\":\"other\"}", Q, Err));
  EXPECT_FALSE(opt::ProfileMap::fromJson("not json", Q, Err));
  EXPECT_FALSE(opt::ProfileMap::fromJson(
      "{\"version\":\"bor-profile-v1\",\"blocks\":[{\"id\":1}]}", Q, Err));
}

// The parser keeps numbers as doubles, so each of these parses; none is an
// integer the field can hold, and casting any of them would truncate or be
// undefined.
TEST(ProfileMap, FromJsonRejectsNumbersOutsideTheFieldRange) {
  auto Doc = [](const std::string &Id, const std::string &Count,
                const std::string &Taken) {
    return "{\"version\":\"bor-profile-v1\",\"complete\":false,"
           "\"blocks\":[{\"id\":" +
           Id + ",\"count\":" + Count + ",\"taken\":" + Taken + "}]}";
  };
  opt::ProfileMap Q;
  std::string Err;
  // The largest id and the largest double below 2^64 are in range.
  ASSERT_TRUE(opt::ProfileMap::fromJson(
      Doc("4294967295", "18446744073709549568", "18446744073709549568"), Q,
      Err))
      << Err;
  EXPECT_EQ(Q.execCount(4294967295u), 18446744073709549568ull);

  for (const char *Bad : {"-1", "2.5", "1e300", "1e400"}) {
    for (int Field = 0; Field != 3; ++Field) {
      std::string Text = Doc(Field == 0 ? Bad : "1", Field == 1 ? Bad : "1",
                             Field == 2 ? Bad : "1");
      Err.clear();
      EXPECT_FALSE(opt::ProfileMap::fromJson(Text, Q, Err)) << Text;
      EXPECT_NE(Err.find("is not an integer"), std::string::npos) << Err;
    }
  }
  EXPECT_FALSE(opt::ProfileMap::fromJson(Doc("4294967296", "1", "0"), Q, Err));
  EXPECT_NE(Err.find("id is not an integer in [0, 4294967295]"),
            std::string::npos)
      << Err;
  EXPECT_FALSE(opt::ProfileMap::fromJson(
      Doc("1", "18446744073709551616", "0"), Q, Err));
}

// Every truncation and every single-bit flip of a real oracle profile
// either parses or fails with an error message.
TEST(ProfileMap, FromJsonSurvivesTruncationAndBitFlips) {
  PgoGenConfig C;
  C.Iters = 50;
  PgoWorkload W = buildPgoWorkload(C);
  const DecodedProgram DP(W.Baseline);
  BrrUnitDecider D;
  std::string Doc = opt::collectOracleProfile(DP, D, 1 << 22).toJson();
  ASSERT_GT(Doc.size(), 200u);

  size_t Parsed = 0, Rejected = 0;
  auto Load = [&](const std::string &Text) {
    opt::ProfileMap Q;
    std::string Err;
    if (opt::ProfileMap::fromJson(Text, Q, Err)) {
      ++Parsed;
      return;
    }
    EXPECT_FALSE(Err.empty());
    ++Rejected;
  };
  testgen::forEachMutation(Doc, Load);
  EXPECT_GT(Parsed, 0u);
  EXPECT_GT(Rejected, Doc.size());
}

TEST(ProfileMap, OracleCountsMatchLoopStructure) {
  // A 10-iteration counted loop: head executes 10 times, its backward
  // branch is taken 9 times, the epilogue once.
  ProgramBuilder B;
  B.emitLoadConst(2, 10);
  auto Loop = B.label();
  B.bind(Loop);
  B.emit(Inst::add(3, 3, 2));
  B.emit(Inst::addi(2, 2, -1));
  B.emitBranch(Opcode::Bne, 2, RegZero, Loop);
  B.emit(Inst::halt());
  Program P = B.finish();

  BrrUnitDecider D;
  const DecodedProgram DP(P);
  opt::ProfileMap Prof = opt::collectOracleProfile(DP, D, 1 << 20);
  EXPECT_TRUE(Prof.complete());
  cfg::Module M = cfg::buildModule(P);
  cfg::BlockId Entry = M.layout().front();
  cfg::BlockId Head = M.blockForIndex(P.numInsts() - 2); // the branch block
  cfg::BlockId Epi = M.blockForIndex(P.numInsts() - 1);  // halt
  EXPECT_EQ(Prof.execCount(Entry), 1u);
  EXPECT_EQ(Prof.execCount(Head), 10u);
  EXPECT_EQ(Prof.takenCount(Head), 9u);
  EXPECT_EQ(Prof.execCount(Epi), 1u);
}

TEST(ProfileMap, SiteIngestSkipsUnmappedSlots) {
  opt::ProfileMap P = opt::profileFromSites({5, 9, 3}, {2, cfg::NoBlock, 4});
  EXPECT_FALSE(P.complete());
  EXPECT_EQ(P.numBlocks(), 2u);
  EXPECT_EQ(P.execCount(2), 5u);
  EXPECT_EQ(P.execCount(4), 3u);
}

TEST(LayoutPasses, OracleProfileFlipsBiasedBranchesAndPreservesExecution) {
  PgoGenConfig C;
  C.Iters = 300;
  PgoWorkload W = buildPgoWorkload(C);
  RunStats BaseStats;
  uint64_t BaseSum = runChecksum(W.Baseline, W.ChecksumAddr, &BaseStats);

  BrrUnitDecider D;
  const DecodedProgram DP(W.Baseline);
  opt::ProfileMap Prof = opt::collectOracleProfile(DP, D, 1 << 24);
  cfg::Module M = cfg::buildModule(W.Baseline);
  opt::LayoutStats LS = opt::optimizeLayout(M, Prof);
  EXPECT_GT(LS.HotFallthroughs, 0u);
  EXPECT_GT(LS.Traces, 0u);

  cfg::EmitOptions EO;
  EO.ElideJumpToNext = true;
  Program Opt = cfg::emitProgram(M, EO);
  RunStats OptStats;
  uint64_t OptSum = runChecksum(Opt, W.ChecksumAddr, &OptStats);
  EXPECT_EQ(OptSum, BaseSum);
  EXPECT_NE(OptSum, 0u);
  // The whole point: the hot path now runs on not-taken branches.
  EXPECT_LT(OptStats.CondTaken, BaseStats.CondTaken);
  EXPECT_EQ(OptStats.CondBranches, BaseStats.CondBranches);
  EXPECT_EQ(OptStats.Loads, BaseStats.Loads);
  EXPECT_EQ(OptStats.Stores, BaseStats.Stores);
}

TEST(LayoutPasses, SampledBrrProfileDrivesTheSameFlips) {
  PgoGenConfig C;
  C.Iters = 500;
  C.Instr.Framework = SamplingFramework::BrrBased;
  C.Instr.Interval = 16;
  PgoWorkload W = buildPgoWorkload(C);

  // Collect sampled counts from the instrumented variant.
  Machine Mach;
  BrrUnitDecider D;
  const DecodedProgram DP(W.Instrumented);
  Interpreter I(DP, Mach, D);
  RunStats S = I.run(1ULL << 24);
  ASSERT_TRUE(S.Halted);
  ASSERT_GT(S.BrrExecuted, 0u);
  std::vector<uint64_t> Counts(W.NumSites);
  for (size_t SI = 0; SI != W.NumSites; ++SI)
    Counts[SI] = Mach.memory().readU64(W.ProfileBase + 8 * SI);
  opt::ProfileMap Prof = opt::profileFromSites(Counts, W.SiteBlocks);
  ASSERT_FALSE(Prof.empty());
  EXPECT_FALSE(Prof.complete());

  uint64_t BaseSum = runChecksum(W.Baseline, W.ChecksumAddr);
  cfg::Module M = cfg::buildModule(W.Baseline);
  opt::LayoutStats LS = opt::optimizeLayout(M, Prof);
  EXPECT_GT(LS.HotFallthroughs, 0u);
  cfg::EmitOptions EO;
  EO.ElideJumpToNext = true;
  Program Opt = cfg::emitProgram(M, EO);
  EXPECT_EQ(runChecksum(Opt, W.ChecksumAddr), BaseSum);
}

TEST(LayoutPasses, BrrUncommonBlocksAreOutlinedStructurally) {
  // Instrument a tight loop with a brr-sampled site: the uncommon block
  // sits out of line already, but move it back inline first to prove the
  // structural pass pushes it to the tail with no profile at all.
  InstrumentationConfig IC;
  IC.Framework = SamplingFramework::BrrBased;
  IC.Interval = 8;
  ProgramBuilder B;
  ProfileTable Table(B, "prof", 1);
  SamplingFrameworkEmitter Emitter(B, IC, DefaultDataBase);
  B.emitLoadConst(RegGlobals, DefaultDataBase);
  B.emitLoadConst(RegProfBase, Table.baseAddr());
  B.emitLoadConst(2, 200);
  auto Loop = B.label();
  B.bind(Loop);
  const size_t SitePos = B.here();
  Emitter.emitSite([&Table](ProgramBuilder &PB) {
    Table.emitIncrement(PB, 0, RegProfBase, Table.baseAddr(), RegScratch);
  });
  B.emit(Inst::add(3, 3, 2));
  B.emit(Inst::addi(2, 2, -1));
  B.emitBranch(Opcode::Bne, 2, RegZero, Loop);
  B.emit(Inst::halt());
  Emitter.flushOutOfLine();
  Program P = B.finish();

  cfg::Module M = cfg::buildModule(P);
  cfg::BlockId SiteBlock = M.blockForIndex(SitePos);
  ASSERT_TRUE(M.block(SiteBlock).Insts.back().isBrr());

  // Force the uncommon block inline right after the check.
  cfg::BlockId Uncommon = cfg::NoBlock;
  for (cfg::BlockId Id = 0; Id != M.numBlocks(); ++Id)
    for (const cfg::Edge &E : M.block(Id).Succs)
      if (E.Kind == cfg::EdgeKind::BrrTaken)
        Uncommon = E.Dst;
  ASSERT_NE(Uncommon, cfg::NoBlock);
  std::vector<cfg::BlockId> L = M.layout();
  L.erase(std::find(L.begin(), L.end(), Uncommon));
  L.insert(std::find(L.begin(), L.end(), SiteBlock) + 1, Uncommon);
  M.setLayout(L);

  opt::ProfileMap Empty;
  opt::LayoutStats LS = opt::optimizeLayout(M, Empty);
  EXPECT_EQ(LS.BrrOutlined, 1u);
  EXPECT_EQ(LS.ColdOutlined, 0u); // no profile, nothing profiled-cold
  // The uncommon block is at the tail (before sentinels, of which this
  // module has none).
  EXPECT_EQ(M.layout().back(), Uncommon);

  // Still samples correctly: counter ends nonzero, program halts.
  Program Q = cfg::emitProgram(M);
  Machine Mach;
  BrrUnitDecider D;
  const DecodedProgram DP(Q);
  Interpreter I(DP, Mach, D);
  RunStats S = I.run(1 << 20);
  EXPECT_TRUE(S.Halted);
  EXPECT_GT(S.BrrExecuted, 0u);
  EXPECT_EQ(Mach.memory().readU64(Table.counterAddr(0)), S.BrrTaken);
}

TEST(LayoutPasses, HotColdSplitNeedsPositiveEvidence) {
  // entry -> A (hot) -> B (cold) -> C, loop back. A partial profile that
  // is silent about B must not move it; a complete one with B at zero
  // must.
  ProgramBuilder B;
  B.emitLoadConst(2, 100);
  auto Loop = B.label();
  auto Skip = B.label();
  B.bind(Loop);
  B.emit(Inst::add(3, 3, 2));
  B.emitBranch(Opcode::Bne, 2, RegZero, Skip); // hop over the "cold" block
  B.emit(Inst::alui(Opcode::Xori, 3, 3, 1));
  B.emit(Inst::alui(Opcode::Xori, 3, 3, 2));
  B.bind(Skip);
  B.emit(Inst::addi(2, 2, -1));
  B.emitBranch(Opcode::Bne, 2, RegZero, Loop);
  B.emit(Inst::halt());
  Program P = B.finish();
  cfg::Module M0 = cfg::buildModule(P);
  cfg::BlockId Cold = cfg::NoBlock;
  for (cfg::BlockId Id : M0.layout()) {
    const cfg::BasicBlock &BB = M0.block(Id);
    if (!BB.Insts.empty() && BB.Insts.front().Op == Opcode::Xori)
      Cold = Id;
  }
  ASSERT_NE(Cold, cfg::NoBlock);

  opt::LayoutOptions Opts;
  Opts.BranchDirection = false; // isolate the split pass
  Opts.OutlineCold = false;

  // Partial profile, silent about Cold: conservative, nothing moves.
  {
    cfg::Module M = cfg::buildModule(P);
    opt::ProfileMap Prof;
    for (cfg::BlockId Id : M.layout())
      if (Id != Cold)
        Prof.add(Id, 100);
    opt::LayoutStats LS = opt::optimizeLayout(M, Prof, Opts);
    EXPECT_EQ(LS.ColdOutlined, 0u);
    EXPECT_EQ(M.layout(), M0.layout());
  }

  // Complete profile with Cold at zero: moved to the tail.
  {
    cfg::Module M = cfg::buildModule(P);
    opt::ProfileMap Prof;
    for (cfg::BlockId Id : M.layout())
      if (Id != Cold)
        Prof.add(Id, 100);
    Prof.setComplete(true);
    opt::LayoutStats LS = opt::optimizeLayout(M, Prof, Opts);
    EXPECT_EQ(LS.ColdOutlined, 1u);
    EXPECT_GE(LS.FunctionsSplit, 1u);
    ASSERT_FALSE(M.layout().empty());
    EXPECT_EQ(M.layout().back(), Cold);
  }
}

TEST(PgoWorkload, DeterministicAndSelfChecking) {
  PgoGenConfig C;
  C.Iters = 100;
  C.Instr.Framework = SamplingFramework::BrrBased;
  PgoWorkload A = buildPgoWorkload(C);
  PgoWorkload B = buildPgoWorkload(C);
  ASSERT_EQ(A.Baseline.numInsts(), B.Baseline.numInsts());
  for (size_t I = 0; I != A.Baseline.numInsts(); ++I)
    ASSERT_EQ(encode(A.Baseline.at(I)), encode(B.Baseline.at(I)));
  EXPECT_EQ(A.SiteBlocks, B.SiteBlocks);

  // The instrumented variant computes the identical checksum (the
  // framework is transparent to the program's own computation).
  uint64_t BaseSum = runChecksum(A.Baseline, A.ChecksumAddr);
  uint64_t InstrSum = runChecksum(A.Instrumented, A.ChecksumAddr);
  EXPECT_EQ(BaseSum, InstrSum);
  EXPECT_NE(BaseSum, 0u);

  // Different seeds give different control flow.
  PgoGenConfig C2 = C;
  C2.Seed = 2;
  PgoWorkload W2 = buildPgoWorkload(C2);
  EXPECT_NE(runChecksum(W2.Baseline, W2.ChecksumAddr), BaseSum);
}

/// FNV-1a over a program's image: every instruction's encoding, the data
/// base and the data bytes. Symbols are left out; nothing that runs the
/// program reads them.
uint64_t imageDigest(const Program &P) {
  uint64_t H = 0xcbf29ce484222325ULL;
  auto Add = [&H](uint64_t V, unsigned Bytes) {
    for (unsigned I = 0; I != Bytes; ++I) {
      H ^= (V >> (8 * I)) & 0xff;
      H *= 0x100000001b3ULL;
    }
  };
  for (size_t I = 0; I != P.numInsts(); ++I)
    Add(encode(P.at(I)), 4);
  Add(P.dataBase(), 8);
  for (uint8_t Byte : P.data())
    Add(Byte, 1);
  return H;
}

struct PgoImageCase {
  const char *Name;
  SamplingFramework Framework;
  CounterHome Home;
  uint64_t Seed;
  uint64_t Baseline;
  uint64_t Instrumented;
};

// pgo_layout's workload at --scale 10 (300 iterations, interval 64), for
// each framework the profiling variant can carry.
const PgoImageCase PgoImageCases[] = {
    {"none", SamplingFramework::None, CounterHome::Memory, 1,
     6588758756993306619ULL, 6588758756993306619ULL},
    {"none", SamplingFramework::None, CounterHome::Memory, 4,
     13237529713647438964ULL, 13237529713647438964ULL},
    {"brr", SamplingFramework::BrrBased, CounterHome::Memory, 1,
     6588758756993306619ULL, 424491061733824009ULL},
    {"brr", SamplingFramework::BrrBased, CounterHome::Memory, 4,
     13237529713647438964ULL, 9283928425151054174ULL},
    {"cbs-memory", SamplingFramework::CounterBased, CounterHome::Memory, 1,
     6588758756993306619ULL, 18265188355822712280ULL},
    {"cbs-memory", SamplingFramework::CounterBased, CounterHome::Memory, 4,
     13237529713647438964ULL, 11573512959085530811ULL},
    {"cbs-register", SamplingFramework::CounterBased, CounterHome::Register, 1,
     6588758756993306619ULL, 5664224308842078777ULL},
    {"cbs-register", SamplingFramework::CounterBased, CounterHome::Register, 4,
     13237529713647438964ULL, 15626843233242166402ULL},
};

// Pins both variants' images, so a change to how the profiling variant is
// built that moves one instruction or data byte shows up here.
TEST(PgoWorkload, ImageDigests) {
  for (const PgoImageCase &IC : PgoImageCases) {
    PgoGenConfig C;
    C.Iters = 300;
    C.Seed = IC.Seed;
    C.Instr.Framework = IC.Framework;
    C.Instr.CounterPlacement = IC.Home;
    C.Instr.Interval = 64;
    PgoWorkload W = buildPgoWorkload(C);
    EXPECT_EQ(imageDigest(W.Baseline), IC.Baseline)
        << IC.Name << " seed " << IC.Seed << " baseline";
    EXPECT_EQ(imageDigest(W.Instrumented), IC.Instrumented)
        << IC.Name << " seed " << IC.Seed << " instrumented";
  }
}

} // namespace
