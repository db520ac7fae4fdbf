//===- uarch/Pipeline.cpp - Out-of-order timing model ---------------------===//

#include "uarch/Pipeline.h"

#include "telemetry/Counters.h"
#include "telemetry/Telemetry.h"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdio>

using namespace bor;

void bor::publishUarchCounters(const MicroarchState &Uarch) {
  if (!telemetry::CounterRegistry::enabled())
    return;
  static const telemetry::Counter L1IAcc("cache.l1i.accesses");
  static const telemetry::Counter L1IMiss("cache.l1i.misses");
  static const telemetry::Counter L1DAcc("cache.l1d.accesses");
  static const telemetry::Counter L1DMiss("cache.l1d.misses");
  static const telemetry::Counter L2Acc("cache.l2.accesses");
  static const telemetry::Counter L2Miss("cache.l2.misses");
  static const telemetry::Counter Preds("predictor.predictions");
  static const telemetry::Counter Mispreds("predictor.mispredictions");
  static const telemetry::Counter BtbLookups("btb.lookups");
  static const telemetry::Counter BtbHits("btb.hits");
  static const telemetry::Counter BtbInserts("btb.inserts");
  static const telemetry::Counter RasPushes("ras.pushes");
  static const telemetry::Counter RasPops("ras.pops");
  static const telemetry::Counter RasUnderflows("ras.underflows");
  L1IAcc.add(Uarch.MemHier.l1i().stats().Accesses);
  L1IMiss.add(Uarch.MemHier.l1i().stats().Misses);
  L1DAcc.add(Uarch.MemHier.l1d().stats().Accesses);
  L1DMiss.add(Uarch.MemHier.l1d().stats().Misses);
  L2Acc.add(Uarch.MemHier.l2().stats().Accesses);
  L2Miss.add(Uarch.MemHier.l2().stats().Misses);
  Preds.add(Uarch.Predictor.stats().Predictions);
  Mispreds.add(Uarch.Predictor.stats().Mispredictions);
  BtbLookups.add(Uarch.TargetBuffer.stats().Lookups);
  BtbHits.add(Uarch.TargetBuffer.stats().Hits);
  BtbInserts.add(Uarch.TargetBuffer.stats().Inserts);
  RasPushes.add(Uarch.Ras.stats().Pushes);
  RasPops.add(Uarch.Ras.stats().Pops);
  RasUnderflows.add(Uarch.Ras.stats().Underflows);
}

std::string bor::describeStats(const PipelineStats &S) {
  char Buf[1024];
  std::snprintf(
      Buf, sizeof(Buf),
      "cycles              %" PRIu64 "\n"
      "instructions        %" PRIu64 " (IPC %.2f)\n"
      "cond branches       %" PRIu64 " (%" PRIu64 " mispredicted)\n"
      "indirect branches   %" PRIu64 " (%" PRIu64 " mispredicted)\n"
      "direct jumps        %" PRIu64 " (%" PRIu64 " decode redirects)\n"
      "brr executed        %" PRIu64 " (%" PRIu64 " taken)\n"
      "fetch stalls        icache %" PRIu64 ", backend flush %" PRIu64
      ", frontend flush %" PRIu64 "\n",
      S.Cycles, S.Insts, S.ipc(), S.CondBranches, S.CondMispredicts,
      S.IndirectBranches, S.IndirectMispredicts, S.DirectJumps,
      S.DirectJumpDecodeRedirects, S.BrrExecuted, S.BrrTaken,
      S.FetchIcacheStallCycles, S.BackendFlushCycles,
      S.FrontendFlushCycles);
  return Buf;
}

Pipeline::Pipeline(const DecodedProgram &DP, const PipelineConfig &Config,
                   BrrDecider *Decider)
    : Config(Config), Dec(DP), OwnedMach(std::make_unique<Machine>()),
      OwnedUarch(std::make_unique<MicroarchState>(Config)),
      Mach(*OwnedMach), Uarch(*OwnedUarch),
      DefaultDecider(Decider ? nullptr
                             : std::make_unique<BrrUnitDecider>(Config.Brr)),
      Oracle(DP, Mach, Decider ? *Decider : *DefaultDecider),
      Policy(this->Uarch, this->Config), DecodeStage(Config.DecodeWidth),
      DispatchStage(Config.DecodeWidth), CommitStage(Config.CommitWidth),
      IssueSlots(Config.IssueWidth), RobSlotFree(Config.RobEntries, 0) {
  RegReady.fill(0); // the Oracle's constructor loads the program image
}

Pipeline::Pipeline(const DecodedProgram &DP, Machine &M,
                   MicroarchState &Uarch, const PipelineConfig &Config,
                   BrrDecider &Decider)
    : Config(Config), Dec(DP), Mach(M), Uarch(Uarch),
      Oracle(DP, Mach, Decider, /*LoadImage=*/false),
      Policy(this->Uarch, this->Config), DecodeStage(Config.DecodeWidth),
      DispatchStage(Config.DecodeWidth), CommitStage(Config.CommitWidth),
      IssueSlots(Config.IssueWidth), RobSlotFree(Config.RobEntries, 0) {
  RegReady.fill(0);
}

Pipeline::~Pipeline() {
  if (!telemetry::CounterRegistry::enabled())
    return;
  static const telemetry::Counter Runs("pipeline.runs");
  static const telemetry::Counter Cycles("pipeline.cycles");
  static const telemetry::Counter Insts("pipeline.insts");
  static const telemetry::Counter CondBranches("pipeline.cond_branches");
  static const telemetry::Counter CondMisp("pipeline.cond_mispredicts");
  static const telemetry::Counter Indirect("pipeline.indirect_branches");
  static const telemetry::Counter IndirectMisp(
      "pipeline.indirect_mispredicts");
  static const telemetry::Counter DirectJumps("pipeline.direct_jumps");
  static const telemetry::Counter DirectRedirects(
      "pipeline.direct_jump_decode_redirects");
  static const telemetry::Counter BrrExecuted("pipeline.brr.executed");
  static const telemetry::Counter BrrTaken("pipeline.brr.taken");
  static const telemetry::Counter IcacheStalls(
      "pipeline.fetch.icache_stall_cycles");
  static const telemetry::Counter BackendFlush(
      "pipeline.fetch.backend_flush_cycles");
  static const telemetry::Counter FrontendFlush(
      "pipeline.fetch.frontend_flush_cycles");
  static const telemetry::Counter FullWidth(
      "pipeline.fetch.full_width_cycles");
  static const telemetry::HistogramCounter RunInsts("pipeline.run.insts");
  static const telemetry::HistogramCounter RunCycles("pipeline.run.cycles");
  static const telemetry::Counter WindowGrows("pipeline.issue.window_grows");
  static const telemetry::HistogramCounter WindowSlots(
      "pipeline.issue.window_slots");
  Runs.add();
  Cycles.add(Stats.Cycles);
  Insts.add(Stats.Insts);
  CondBranches.add(Stats.CondBranches);
  CondMisp.add(Stats.CondMispredicts);
  Indirect.add(Stats.IndirectBranches);
  IndirectMisp.add(Stats.IndirectMispredicts);
  DirectJumps.add(Stats.DirectJumps);
  DirectRedirects.add(Stats.DirectJumpDecodeRedirects);
  BrrExecuted.add(Stats.BrrExecuted);
  BrrTaken.add(Stats.BrrTaken);
  IcacheStalls.add(Stats.FetchIcacheStallCycles);
  BackendFlush.add(Stats.BackendFlushCycles);
  FrontendFlush.add(Stats.FrontendFlushCycles);
  FullWidth.add(Stats.FullWidthFetchCycles);
  RunInsts.observe(Stats.Insts);
  RunCycles.observe(Stats.Cycles);
  WindowGrows.add(IssueSlots.grows());
  WindowSlots.observe(IssueSlots.slots());
  // Attached runs borrow the sampled runner's structures; publishing them
  // here would double-count across intervals.
  if (OwnedUarch)
    publishUarchCounters(*OwnedUarch);
}

void Pipeline::StoreTable::resize(size_t NumSlots) {
  Slots.assign(NumSlots, Slot());
  Mask = NumSlots - 1;
  Shift = 64 - static_cast<unsigned>(std::countr_zero(NumSlots));
  Used = 0;
}

void Pipeline::StoreTable::grow() {
  std::vector<Slot> Old = std::move(Slots);
  resize(2 * Old.size());
  for (const Slot &S : Old)
    if (S.Word != Empty)
      set(S.Word, S.Ready);
}

// Cache-line aligned, as Interpreter::step() is (see sim/Interpreter.cpp).
__attribute__((aligned(64))) uint64_t
Pipeline::fetchInstruction(const ExecRecord &R) {
  if (RedirectPending) {
    if (RedirectCycle > FetchCycle) {
      uint64_t Lost = RedirectCycle - FetchCycle;
      if (RedirectIsFrontend)
        Stats.FrontendFlushCycles += Lost;
      else
        Stats.BackendFlushCycles += Lost;
      FetchCycle = RedirectCycle;
    }
    FetchedThisCycle = 0;
    FetchBreak = false;
    RedirectPending = false;
  } else if (FetchBreak) {
    ++FetchCycle;
    FetchedThisCycle = 0;
    FetchBreak = false;
  } else if (FetchedThisCycle >= Config.FetchWidth) {
    ++FetchCycle;
    FetchedThisCycle = 0;
  }

  // One I-cache probe per distinct line; a miss stalls fetch for the fill.
  uint64_t Line = R.Pc & ~static_cast<uint64_t>(Config.MemHier.L1I.LineBytes - 1);
  if (Line != LastFetchLine) {
    unsigned Stall = Uarch.MemHier.fetchAccess(R.Pc);
    if (Stall != 0) {
      Stats.FetchIcacheStallCycles += Stall;
      FetchCycle += Stall;
      FetchedThisCycle = 0;
    }
    LastFetchLine = Line;
  }

  ++FetchedThisCycle;
  if (FetchedThisCycle == Config.FetchWidth)
    ++Stats.FullWidthFetchCycles;
  return FetchCycle;
}

uint64_t Pipeline::placeIssue(uint64_t Earliest, uint64_t Floor) {
  uint64_t C = IssueSlots.place(Earliest, Floor);
  if ((Stats.Insts & 0x3fff) == 0 && LastCommitCycle > 1024)
    IssueSlots.trim(LastCommitCycle - 1024);
  return C;
}

// Cache-line aligned, as Interpreter::step() is (see sim/Interpreter.cpp).
__attribute__((aligned(64))) uint64_t
Pipeline::completeExecution(const ExecRecord &R, uint64_t Issue) {
  switch (R.D->Kind) {
  case InstKind::Load: {
    uint64_t Done =
        Issue + Uarch.MemHier.dataAccess(R.MemAddr, /*IsWrite=*/false);
    // Store-to-load forwarding: data from an in-flight store to the same
    // word is available StoreForwardDelay cycles after the store produces
    // it.
    const uint64_t *Ready = StoreReady.find(R.MemAddr & ~7ULL);
    if (Ready && *Ready + Config.StoreForwardDelay > Done)
      Done = *Ready + Config.StoreForwardDelay;
    return Done;
  }
  case InstKind::Store: {
    // Stores retire from a store buffer; the cache access is charged for
    // hit-rate accounting but does not delay commit.
    Uarch.MemHier.dataAccess(R.MemAddr, /*IsWrite=*/true);
    uint64_t Done = Issue + 1;
    StoreReady.set(R.MemAddr & ~7ULL, Done);
    return Done;
  }
  case InstKind::Mul:
    return Issue + Config.MulLatency;
  default:
    return Issue + 1;
  }
}

// Cache-line aligned, as Interpreter::step() is (see sim/Interpreter.cpp).
__attribute__((aligned(64))) RunResult Pipeline::run(uint64_t MaxInsts,
                                                     bool RequireHalt) {
  telemetry::TraceWriter *Detail =
      Telemetry ? Telemetry->detailTrace() : nullptr;
  while (!Oracle.halted() && Stats.Insts < MaxInsts) {
    ExecRecord R = Oracle.step();
    const DecodedInst &DI = *R.D;
    uint64_t F = fetchInstruction(R);

    // --- Fetch-time prediction and control classification. -------------
    bool PredictedTakenAtFetch = false; ///< fetch break, no bubble.
    bool DecodeRedirect = false;        ///< resolved in decode, short flush.
    bool BackendRedirect = false;       ///< resolved at execute, full flush.

    // Count the control classes (identically under the oracle and real
    // front ends), then let the shared update policy train the structures
    // and classify the front-end outcome. The policy has nothing to do for
    // any other kind (halt included), so only the four branch kinds reach
    // it.
    bool IsBranch = false;
    switch (DI.Kind) {
    case InstKind::Brr:
      ++Stats.BrrExecuted;
      if (R.Taken)
        ++Stats.BrrTaken;
      IsBranch = true;
      break;
    case InstKind::CondBranch:
      ++Stats.CondBranches;
      IsBranch = true;
      break;
    case InstKind::DirectJump:
      ++Stats.DirectJumps;
      IsBranch = true;
      break;
    case InstKind::Indirect:
      ++Stats.IndirectBranches;
      IsBranch = true;
      break;
    default:
      break;
    }

    if (IsBranch && Config.PerfectBranchPrediction) {
      // Oracle front end: redirect with zero penalty, never touch the
      // real predictor structures.
      PredictedTakenAtFetch = R.Taken;
    } else if (IsBranch) {
      switch (Policy.observeTimed(R)) {
      case BranchOutcome::None:
        break;
      case BranchOutcome::PredictedTaken:
        PredictedTakenAtFetch = true;
        break;
      case BranchOutcome::DecodeRedirect:
        // A taken brr's short flush, or a direct jump's BTB-miss bubble.
        if (DI.Kind == InstKind::DirectJump)
          ++Stats.DirectJumpDecodeRedirects;
        DecodeRedirect = true;
        break;
      case BranchOutcome::BackendRedirect:
        if (DI.Kind == InstKind::CondBranch)
          ++Stats.CondMispredicts;
        else if (DI.Kind == InstKind::Indirect)
          ++Stats.IndirectMispredicts;
        BackendRedirect = true;
        break;
      }
    }

    // --- Timestamp the instruction through the stages. ------------------
    uint64_t D = DecodeStage.place(F + Config.FetchToDecode);
    uint64_t Done;
    uint64_t C;
    uint64_t Disp = 0;
    uint64_t Issue = 0;

    bool IsBrr = DI.Kind == InstKind::Brr;
    bool CommitsAtDecode = IsBrr && !Config.BrrAsBackendBranch &&
                           Config.BrrCommitsAtDecode &&
                           Config.BrrTrapCycles == 0;
    if (CommitsAtDecode) {
      // No ROB entry, no rename, no issue slot, no commit bandwidth: the
      // instruction is architecturally complete once decode resolves it.
      Done = D;
      C = D;
    } else {
      Disp = DispatchStage.place(
          std::max(D + Config.DecodeToDispatch, RobSlotFree[RobHead]));

      // A missing source reads r0's slot, which is never written.
      uint64_t Earliest =
          std::max({Disp + Config.DispatchToIssue, RegReady[DI.Src[0]],
                    RegReady[DI.Src[1]]});

      // Dispatch is in order, so no later instruction can ask to issue
      // before this one's dispatch-to-issue cycle: the window's floor.
      Issue = placeIssue(Earliest, Disp + Config.DispatchToIssue);
      Done = completeExecution(R, Issue);
      RegReady[DI.Dst] = Done; // the sink slot when nothing is written

      C = CommitStage.place(Done + 1);
      RobSlotFree[RobHead] = C + 1;
      if (++RobHead == RobSlotFree.size())
        RobHead = 0;
      LastCommitCycle = C;
    }

    if (Observer) {
      InstTimestamps TS;
      TS.Pc = R.Pc;
      TS.I = Dec.program().at(Dec.indexForPc(R.Pc));
      TS.Fetch = F;
      TS.Decode = D;
      TS.Dispatch = Disp;
      TS.Issue = Issue;
      TS.Done = Done;
      TS.Commit = C;
      TS.CommittedAtDecode = CommitsAtDecode;
      TS.Mispredicted = BackendRedirect;
      TS.FrontEndFlush = DecodeRedirect;
      Observer(TS);
    }

    ++Stats.Insts;
    Stats.Cycles = std::max({Stats.Cycles, C, D});

    if (DI.Kind == InstKind::Marker)
      Markers.push_back({static_cast<int32_t>(DI.Imm), C, Stats.Insts});

    // --- Redirect scheduling. -------------------------------------------
    if (IsBrr && Config.BrrTrapCycles != 0 && !Config.BrrAsBackendBranch) {
      // Trap emulation: the invalid opcode excepts at decode; the handler
      // emulates the LFSR and resumes at the fall-through or the target.
      RedirectPending = true;
      RedirectCycle = D + Config.BrrTrapCycles;
      RedirectIsFrontend = false;
    } else if (BackendRedirect) {
      RedirectPending = true;
      RedirectCycle = Done + Config.MispredictRedirect;
      RedirectIsFrontend = false;
    } else if (DecodeRedirect) {
      RedirectPending = true;
      RedirectCycle = D + Config.FrontEndRedirect;
      RedirectIsFrontend = true;
    } else if (PredictedTakenAtFetch && Config.FetchStopsAtTakenBranch) {
      FetchBreak = true;
    }

    if (Detail) {
      if (IsBrr && R.Taken)
        Detail->instant("brr taken", "pipeline",
                        {telemetry::TraceArg::num("pc", R.Pc),
                         telemetry::TraceArg::num("cycle", C)});
      if (RedirectPending)
        Detail->instant(RedirectIsFrontend ? "frontend flush"
                                           : "backend flush",
                        "pipeline",
                        {telemetry::TraceArg::num("pc", R.Pc),
                         telemetry::TraceArg::num("cycle", RedirectCycle)});
    }
  }

  assert((!RequireHalt || Oracle.halted()) &&
         "program did not halt within the instruction budget");
  (void)RequireHalt;
  return {Stats, Markers};
}
