//===- exp/Harness.cpp - Shared drivers for the paper's experiments ------===//
//
// Part of the branch-on-random reproduction library.
//
//===----------------------------------------------------------------------===//

#include "exp/Harness.h"

#include "ckpt/LibraryPool.h"
#include "exp/Experiment.h"
#include "profile/Accuracy.h"
#include "profile/SamplingPolicy.h"
#include "support/Rng.h"
#include "support/Stats.h"

namespace bor {
namespace exp {

AccuracyRow runAccuracy(const BenchmarkModel &Model, uint64_t Interval,
                        uint64_t BrrSeed) {
  constexpr unsigned NumSeeds = 3;
  MethodProfile Full(Model.NumMethods);
  MethodProfile Sw(Model.NumMethods);
  MethodProfile Hw(Model.NumMethods);
  std::vector<MethodProfile> Rand(NumSeeds, MethodProfile(Model.NumMethods));

  SwCounterPolicy SwP(Interval);
  HwCounterPolicy HwP(Interval);
  std::vector<BrrPolicy> RandP;
  SplitMix64 Seeder(BrrSeed);
  for (unsigned I = 0; I != NumSeeds; ++I) {
    BrrUnitConfig BrrCfg;
    do {
      BrrCfg.Seed = Seeder.next();
    } while ((BrrCfg.Seed & ((1ULL << BrrCfg.LfsrWidth) - 1)) == 0);
    RandP.emplace_back(Interval, BrrCfg);
  }

  InvocationStream Stream(Model);
  while (!Stream.done()) {
    uint32_t Id = Stream.next();
    Full.record(Id);
    if (SwP.sample())
      Sw.record(Id);
    if (HwP.sample())
      Hw.record(Id);
    for (unsigned I = 0; I != NumSeeds; ++I)
      if (RandP[I].sample())
        Rand[I].record(Id);
  }

  AccuracyRow Row;
  Row.SwCount = overlapAccuracy(Full, Sw);
  Row.HwCount = overlapAccuracy(Full, Hw);
  RunningStat Stat;
  for (const MethodProfile &P : Rand)
    Stat.add(overlapAccuracy(Full, P));
  Row.Random = Stat.mean();
  Row.RandomSpread = Stat.max() - Stat.min();
  return Row;
}

namespace {

/// Scales the measured-window counters of a sampled run up to the full
/// stream, so metric code written against full-run PipelineStats reads a
/// sampled run identically. Insts is exact (every instruction executed);
/// cycle and event counters are estimates.
PipelineStats scaleSampledStats(const SampledResult &SR) {
  PipelineStats S = SR.Detailed;
  if (SR.MeasuredInsts == 0)
    return S;
  double K = static_cast<double>(SR.TotalInsts) /
             static_cast<double>(SR.MeasuredInsts);
  auto Scale = [K](uint64_t V) {
    return static_cast<uint64_t>(static_cast<double>(V) * K + 0.5);
  };
  S.Insts = SR.TotalInsts;
  S.Cycles = Scale(S.Cycles);
  S.CondBranches = Scale(S.CondBranches);
  S.CondMispredicts = Scale(S.CondMispredicts);
  S.IndirectBranches = Scale(S.IndirectBranches);
  S.IndirectMispredicts = Scale(S.IndirectMispredicts);
  S.DirectJumps = Scale(S.DirectJumps);
  S.DirectJumpDecodeRedirects = Scale(S.DirectJumpDecodeRedirects);
  S.BrrExecuted = Scale(S.BrrExecuted);
  S.BrrTaken = Scale(S.BrrTaken);
  S.FetchIcacheStallCycles = Scale(S.FetchIcacheStallCycles);
  S.BackendFlushCycles = Scale(S.BackendFlushCycles);
  S.FrontendFlushCycles = Scale(S.FrontendFlushCycles);
  S.FullWidthFetchCycles = Scale(S.FullWidthFetchCycles);
  return S;
}

} // namespace

SampledResult runSampledMaybeLibrary(const DecodedProgram &Dec,
                                     const PipelineConfig &Machine,
                                     const ExperimentOptions &O) {
  assert(O.Sample && "sampled execution without --sample");
  if (!O.CkptPool)
    return runSampled(Dec, O.Plan, Machine, /*Decider=*/nullptr,
                      /*MaxInsts=*/~0ULL, O.Telemetry);
  std::shared_ptr<const ckpt::CheckpointLibrary> Lib = O.CkptPool->getOrBuild(
      Dec, Machine.Brr, O.Plan.PeriodInsts, O.Telemetry);
  return runSampledFromLibrary(Dec, *Lib, O.Plan, Machine, ~0ULL,
                               O.Telemetry);
}

MicroRun runMicrobench(const InstrumentationConfig &Instr, size_t NumChars,
                       const PipelineConfig &Machine,
                       const ExperimentOptions &O) {
  MicrobenchConfig C;
  C.Text.NumChars = NumChars;
  C.Instr = Instr;
  MicrobenchProgram MB = buildMicrobench(C);
  MicroRun Run;
  Run.DynamicSiteVisits = MB.DynamicSiteVisits;

  // Decode once per cell: the sampled run's functional phases, its
  // attached detailed intervals, and the full-run fallback all share this
  // image.
  DecodedProgram Dec(MB.Prog);

  if (O.Sample) {
    SampledResult SR = runSampledMaybeLibrary(Dec, Machine, O);
    if (SR.NumIntervals != 0) {
      Run.Sampled = true;
      Run.Stats = scaleSampledStats(SR);
      Run.IpcCi95 = SR.ipcCi95();
      Run.SampleIntervals = SR.NumIntervals;
      Run.FfMs = SR.FastForwardMs;
      Run.WarmMs = SR.WarmMs;
      Run.MeasureMs = SR.MeasureMs;
      if (SR.Markers.size() == 2)
        Run.RoiCycles =
            static_cast<uint64_t>(SR.estimatedCycles(SR.roiInsts()) + 0.5);
      return Run;
    }
    // Stream too short for even one interval: fall through to a full run.
  }

  Pipeline Pipe(Dec, Machine);
  Pipe.setTelemetry(O.Telemetry);
  RunResult Result = Pipe.run(1ULL << 40);
  Run.Stats = Result.Stats;
  if (Result.Markers.size() == 2)
    Run.RoiCycles = Result.roiCycles();
  return Run;
}

InstrumentationConfig microConfig(SamplingFramework F, DuplicationMode Dup,
                                  uint64_t Interval, bool IncludeBody) {
  InstrumentationConfig C;
  C.Framework = F;
  C.Dup = Dup;
  C.Interval = Interval;
  C.IncludeBody = IncludeBody;
  return C;
}

std::vector<uint64_t> figureIntervals() {
  return {2, 4, 8, 16, 32, 64, 128, 256, 512, 1024};
}

} // namespace exp
} // namespace bor
