//===- sample/SampledRunner.cpp - SMARTS-style sampled simulation ---------===//

#include "sample/SampledRunner.h"

#include "ckpt/CheckpointLibrary.h"
#include "sample/Warmup.h"
#include "telemetry/Counters.h"

#include <algorithm>

using namespace bor;

namespace {

/// Field-wise difference of two cumulative PipelineStats snapshots (After
/// was taken later on the same Pipeline, so every counter is >= Before's).
PipelineStats statsDelta(const PipelineStats &After,
                         const PipelineStats &Before) {
  PipelineStats D;
  D.Cycles = After.Cycles - Before.Cycles;
  D.Insts = After.Insts - Before.Insts;
  D.CondBranches = After.CondBranches - Before.CondBranches;
  D.CondMispredicts = After.CondMispredicts - Before.CondMispredicts;
  D.IndirectBranches = After.IndirectBranches - Before.IndirectBranches;
  D.IndirectMispredicts =
      After.IndirectMispredicts - Before.IndirectMispredicts;
  D.DirectJumps = After.DirectJumps - Before.DirectJumps;
  D.DirectJumpDecodeRedirects =
      After.DirectJumpDecodeRedirects - Before.DirectJumpDecodeRedirects;
  D.BrrExecuted = After.BrrExecuted - Before.BrrExecuted;
  D.BrrTaken = After.BrrTaken - Before.BrrTaken;
  D.FetchIcacheStallCycles =
      After.FetchIcacheStallCycles - Before.FetchIcacheStallCycles;
  D.BackendFlushCycles = After.BackendFlushCycles - Before.BackendFlushCycles;
  D.FrontendFlushCycles =
      After.FrontendFlushCycles - Before.FrontendFlushCycles;
  D.FullWidthFetchCycles =
      After.FullWidthFetchCycles - Before.FullWidthFetchCycles;
  return D;
}

void accumulate(PipelineStats &Sum, const PipelineStats &D) {
  Sum.Cycles += D.Cycles;
  Sum.Insts += D.Insts;
  Sum.CondBranches += D.CondBranches;
  Sum.CondMispredicts += D.CondMispredicts;
  Sum.IndirectBranches += D.IndirectBranches;
  Sum.IndirectMispredicts += D.IndirectMispredicts;
  Sum.DirectJumps += D.DirectJumps;
  Sum.DirectJumpDecodeRedirects += D.DirectJumpDecodeRedirects;
  Sum.BrrExecuted += D.BrrExecuted;
  Sum.BrrTaken += D.BrrTaken;
  Sum.FetchIcacheStallCycles += D.FetchIcacheStallCycles;
  Sum.BackendFlushCycles += D.BackendFlushCycles;
  Sum.FrontendFlushCycles += D.FrontendFlushCycles;
  Sum.FullWidthFetchCycles += D.FullWidthFetchCycles;
}

/// Folds one interval's delta into the aggregate result and returns the
/// interval's point measurements (the time-series entry, minus the
/// fast-forward count the caller backfills after the ff phase runs).
telemetry::IntervalSample recordInterval(SampledResult &Result,
                                         const PipelineStats &D) {
  telemetry::IntervalSample S;
  accumulate(Result.Detailed, D);
  if (D.Cycles != 0) {
    S.Ipc = static_cast<double>(D.Insts) / static_cast<double>(D.Cycles);
    S.FlushFrac =
        static_cast<double>(D.BackendFlushCycles + D.FrontendFlushCycles) /
        static_cast<double>(D.Cycles);
    Result.IpcSamples.add(S.Ipc);
    Result.FlushFracSamples.add(S.FlushFrac);
  }
  S.BrrRate = 1000.0 * static_cast<double>(D.BrrExecuted) /
              static_cast<double>(D.Insts);
  Result.BrrRateSamples.add(S.BrrRate);
  return S;
}

/// What a library-backed run did beyond plain sampling.
struct LibraryRunStats {
  uint64_t Resumes = 0;      ///< fast-forward spans replaced by a resume
  uint64_t SkippedInsts = 0; ///< instructions those spans did not execute
};

/// End-of-run counter publication for plain and library-backed runs. \p
/// ExecutedFf is the fast-forward work that actually ran — a library
/// resume skips it, which is exactly the win the ckpt_perf_smoke gate
/// measures through this counter.
void publishSampleCounters(const SampledResult &Result, uint64_t ExecutedFf,
                           const MicroarchState &Uarch) {
  if (!telemetry::CounterRegistry::enabled())
    return;
  static const telemetry::Counter Runs("sample.runs");
  static const telemetry::Counter Intervals("sample.intervals");
  static const telemetry::Counter Total("sample.insts.total");
  static const telemetry::Counter Warmed("sample.insts.warmed");
  static const telemetry::Counter Preroll("sample.insts.preroll");
  static const telemetry::Counter Measured("sample.insts.measured");
  static const telemetry::Counter Ff("sample.insts.fast_forward");
  Runs.add();
  Intervals.add(Result.NumIntervals);
  Total.add(Result.TotalInsts);
  Warmed.add(Result.WarmedInsts);
  Preroll.add(Result.PrerollInsts);
  Measured.add(Result.MeasuredInsts);
  Ff.add(ExecutedFf);
  // The structures the sampler kept warm across intervals (attached
  // Pipelines deliberately skip them).
  publishUarchCounters(Uarch);
}

void publishLibraryCounters(const LibraryRunStats &LS, const Memory &Mem) {
  if (!telemetry::CounterRegistry::enabled())
    return;
  static const telemetry::Counter Resumes("ckpt.resumes");
  static const telemetry::Counter Skipped("ckpt.insts.skipped");
  static const telemetry::Counter Shared("ckpt.pages.shared");
  static const telemetry::Counter Copied("ckpt.pages.copied");
  Resumes.add(LS.Resumes);
  Skipped.add(LS.SkippedInsts);
  Shared.add(Mem.cowCounts().Attached);
  Copied.add(Mem.cowCounts().Copied);
}

/// The sampled-execution loop. With \p Lib null this IS runSampled; with a
/// library attached, fast-forward spans whose end point has a checkpoint
/// resume instead of executing (and \p LS records the skips). Everything
/// else — phase order, budgets, marker positions, interval accounting — is
/// one code path, which is what guarantees the two modes produce
/// field-identical results.
SampledResult runSampledLoop(const DecodedProgram &DP, Machine &M,
                             const SamplingPlan &Plan,
                             const PipelineConfig &Config,
                             BrrDecider &Decider, uint64_t MaxInsts,
                             uint64_t StartInsts,
                             const telemetry::TelemetrySink *Telemetry,
                             const ckpt::CheckpointLibrary *Lib,
                             LibraryRunStats *LS) {
  assert(Plan.valid() && "invalid sampling plan");
  SampledResult Result;
  Result.Plan = Plan;

  telemetry::TraceWriter *TW = Telemetry ? Telemetry->Trace : nullptr;
  telemetry::PhaseTimer FfTimer, WarmTimer, MeasureTimer;
  uint64_t Period = 0;

  // Per-interval time series, collected locally and published once at the
  // end. With no TimeSeries sink the vector never allocates: time-series
  // off costs one pointer test per interval.
  telemetry::TimeSeries *TS = Telemetry ? Telemetry->Series : nullptr;
  std::vector<telemetry::IntervalSample> Series;
  bool PeriodSampled = false; // did this period contribute an interval?

  // One functional interpreter and one microarchitectural state bundle
  // span the whole run; detailed intervals attach Pipelines to the same
  // Machine (and the same decoded image), so every instruction retires
  // exactly once.
  Interpreter Fn(DP, M, Decider, /*LoadImage=*/false);
  MicroarchState Uarch(Config);
  FunctionalWarmer Warmer(Uarch, Config);

  uint64_t Global = StartInsts; // committed instructions, all phases
  uint64_t Budget = MaxInsts;

  // Markers in the functional phases arrive through the interpreter's
  // hook, which fires with Fn.stats().Insts equal to the count *before*
  // the marker; +1 makes the recorded index 1-based inclusive, matching
  // the detailed path. FnGlobalOffset re-anchors Fn's private instruction
  // counter to the global stream at each functional-phase start (detailed
  // intervals advance Global through a different engine).
  uint64_t FnGlobalOffset = 0;
  Fn.setMarkerHook([&](int32_t Id) {
    Result.Markers.push_back({Id, FnGlobalOffset + Fn.stats().Insts + 1});
  });

  // Each period runs warm | measure | fast-forward, with the detailed
  // interval at the period's head: the first interval then measures the
  // program's true cold start (as a full detailed run would), and even a
  // stream shorter than one period yields at least one sample.
  while (!M.halted() && Result.TotalInsts < Budget) {
    // --- Functional warming: same stream, structures trained. ----------
    {
      telemetry::TraceSpan Span(TW, "warm", "sample",
                                {telemetry::TraceArg::num("period", Period)});
      WarmTimer.start();
      FnGlobalOffset = Global - Fn.stats().Insts;
      for (uint64_t I = 0; I != Plan.WarmupInsts && !M.halted() &&
                           Result.TotalInsts < Budget;
           ++I) {
        Warmer.observe(Fn.step());
        ++Global;
        ++Result.TotalInsts;
        ++Result.WarmedInsts;
      }
      WarmTimer.stop();
    }

    if (M.halted() || Result.TotalInsts >= Budget)
      break;

    // --- Detailed interval: pre-roll (discarded) then measurement. -----
    uint64_t IntervalBase = Global;
    telemetry::TraceSpan MeasureSpan(
        TW, "measure", "sample",
        {telemetry::TraceArg::num("period", Period)});
    MeasureTimer.start();
    Pipeline Pipe(DP, M, Uarch, Config, Decider);
    Pipe.setTelemetry(Telemetry);

    uint64_t Remaining = Budget - Result.TotalInsts;
    uint64_t PrerollTarget = std::min(Plan.DetailedWarmupInsts, Remaining);
    Pipe.run(PrerollTarget, /*RequireHalt=*/false);
    PipelineStats Before = Pipe.stats();

    uint64_t MeasureTarget =
        std::min(PrerollTarget + Plan.MeasureInsts, Remaining);
    RunResult R = Pipe.run(MeasureTarget, /*RequireHalt=*/false);
    MeasureTimer.stop();

    uint64_t IntervalInsts = R.Stats.Insts;
    MeasureSpan.arg(telemetry::TraceArg::num("insts", IntervalInsts));
    MeasureSpan.close();
    Global += IntervalInsts;
    Result.TotalInsts += IntervalInsts;
    Result.PrerollInsts += Before.Insts;

    for (const MarkerEvent &E : R.Markers)
      Result.Markers.push_back({E.Id, IntervalBase + E.InstsRetired});

    PipelineStats D = statsDelta(R.Stats, Before);
    PeriodSampled = D.Insts != 0;
    if (D.Insts != 0) {
      Result.MeasuredInsts += D.Insts;
      ++Result.NumIntervals;
      telemetry::IntervalSample S = recordInterval(Result, D);
      if (TS)
        Series.push_back(S);
    }

    // --- Fast-forward: functional only, rest of the period. ------------
    {
      telemetry::TraceSpan Span(TW, "fast-forward", "sample",
                                {telemetry::TraceArg::num("period", Period)});
      FfTimer.start();
      uint64_t FastForward = Plan.PeriodInsts - Plan.WarmupInsts -
                             Plan.DetailedWarmupInsts - Plan.MeasureInsts;
      uint64_t Want =
          std::min(FastForward, Budget - Result.TotalInsts);

      // Library mode: both engines honor their budgets exactly, so the
      // span's end point Global + Want lands on a period boundary — where
      // the library captured. Resuming that checkpoint (and splicing the
      // markers the span would have executed) is bit-identical to
      // executing, minus the execution. A halt inside the span maps to
      // the library's final checkpoint; anything else (library truncated
      // by its build budget, MaxInsts mid-period) executes as usual.
      const ckpt::LibraryCheckpoint *C = nullptr;
      if (Lib && Want != 0 && !M.halted()) {
        C = Lib->checkpointAt(Global + Want);
        if (!C) {
          const ckpt::LibraryCheckpoint *F = Lib->finalCheckpoint();
          if (F && F->Halted && F->InstsRetired > Global &&
              F->InstsRetired <= Global + Want)
            C = F;
        }
      }
      if (C) {
        for (const ckpt::LibraryMarker &LM :
             Lib->markersIn(Global, C->InstsRetired))
          Result.Markers.push_back({LM.Id, LM.GlobalInst});
        std::string Error;
        bool Ok = Lib->resume(*C, M, Decider, Error);
        assert(Ok && "library resume failed after up-front kind check");
        (void)Ok;
        uint64_t Skipped = C->InstsRetired - Global;
        Global += Skipped;
        Result.TotalInsts += Skipped;
        Result.FastForwardInsts += Skipped;
        LS->SkippedInsts += Skipped;
        ++LS->Resumes;
      } else {
        // No per-record observer here, so the whole span runs through the
        // engine's block-chained dispatch loop in one call.
        FnGlobalOffset = Global - Fn.stats().Insts;
        uint64_t InstsBefore = Fn.stats().Insts;
        Fn.run(Want, /*RequireHalt=*/false);
        uint64_t Done = Fn.stats().Insts - InstsBefore;
        Global += Done;
        Result.TotalInsts += Done;
        Result.FastForwardInsts += Done;
        // Attribute the span's *executed* instructions to the interval it
        // follows (a resume above skips them, leaving the entry 0 — the
        // time series shows the library win period by period).
        if (TS && PeriodSampled)
          Series.back().FfInsts = Done;
      }
      FfTimer.stop();
    }
    ++Period;
  }

  Result.Halted = M.halted();
  Result.FastForwardMs = FfTimer.totalMs();
  Result.WarmMs = WarmTimer.totalMs();
  Result.MeasureMs = MeasureTimer.totalMs();

  if (TS)
    TS->record(std::move(Series));

  publishSampleCounters(
      Result, Result.FastForwardInsts - (LS ? LS->SkippedInsts : 0), Uarch);
  return Result;
}

} // namespace

SampledResult bor::runSampled(const DecodedProgram &DP, Machine &M,
                              const SamplingPlan &Plan,
                              const PipelineConfig &Config,
                              BrrDecider &Decider, uint64_t MaxInsts,
                              uint64_t StartInsts,
                              const telemetry::TelemetrySink *Telemetry) {
  return runSampledLoop(DP, M, Plan, Config, Decider, MaxInsts, StartInsts,
                        Telemetry, /*Lib=*/nullptr, /*LS=*/nullptr);
}

SampledResult bor::runSampled(const DecodedProgram &DP,
                              const SamplingPlan &Plan,
                              const PipelineConfig &Config,
                              BrrDecider *Decider, uint64_t MaxInsts,
                              const telemetry::TelemetrySink *Telemetry) {
  Machine M;
  M.loadProgram(DP.program());
  std::unique_ptr<BrrDecider> Owned;
  if (!Decider) {
    Owned = std::make_unique<BrrUnitDecider>(Config.Brr);
    Decider = Owned.get();
  }
  return runSampled(DP, M, Plan, Config, *Decider, MaxInsts,
                    /*StartInsts=*/0, Telemetry);
}

SampledResult bor::runSampled(const Program &P, const SamplingPlan &Plan,
                              const PipelineConfig &Config,
                              BrrDecider *Decider, uint64_t MaxInsts,
                              const telemetry::TelemetrySink *Telemetry) {
  DecodedProgram DP(P);
  return runSampled(DP, Plan, Config, Decider, MaxInsts, Telemetry);
}

SampledResult bor::runSampled(const Program &P, Machine &M,
                              const SamplingPlan &Plan,
                              const PipelineConfig &Config,
                              BrrDecider &Decider, uint64_t MaxInsts,
                              uint64_t StartInsts,
                              const telemetry::TelemetrySink *Telemetry) {
  DecodedProgram DP(P);
  return runSampled(DP, M, Plan, Config, Decider, MaxInsts, StartInsts,
                    Telemetry);
}

SampledResult bor::runSampledFromLibrary(
    const DecodedProgram &DP, const ckpt::CheckpointLibrary &Lib,
    const SamplingPlan &Plan, const PipelineConfig &Config,
    uint64_t MaxInsts, const telemetry::TelemetrySink *Telemetry) {
  assert(Lib.periodInsts() == Plan.PeriodInsts &&
         "library capture period must match the sampling plan");
  Machine M;
  BrrUnitDecider Decider(Config.Brr);
  std::string Error;
  if (Lib.numCheckpoints() == 0 ||
      !Lib.resume(Lib.front(), M, Decider, Error)) {
    // Unusable library (wrong decider kind, empty): run the stream
    // plainly — correctness over speed.
    return runSampled(DP, Plan, Config, nullptr, MaxInsts, Telemetry);
  }

  LibraryRunStats LS;
  SampledResult Result =
      runSampledLoop(DP, M, Plan, Config, Decider, MaxInsts,
                     /*StartInsts=*/0, Telemetry, &Lib, &LS);
  publishLibraryCounters(LS, M.memory());
  return Result;
}
