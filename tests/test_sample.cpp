//===- tests/test_sample.cpp - Sampled-simulation subsystem tests ---------===//
//
// Two properties carry the subsystem:
//
//  1. Architectural identity: a sampled run executes every instruction of
//     the stream exactly once through one Machine and one decider, so its
//     final architectural state is bit-identical to a plain functional
//     run's — sampling changes what is *timed*, never what is *executed*.
//
//  2. Statistical sanity: the per-interval estimates (IPC, markers, CIs)
//     track the full detailed model within the bounds the sampler itself
//     reports.
//
//===----------------------------------------------------------------------===//

#include "sample/SampledRunner.h"

#include "sample/Warmup.h"
#include "sim/Interpreter.h"
#include "workloads/Microbench.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>

using namespace bor;

namespace {

MicrobenchProgram instrumentedProgram(size_t Chars,
                                      SamplingFramework F =
                                          SamplingFramework::BrrBased) {
  MicrobenchConfig C;
  C.Text.NumChars = Chars;
  C.Instr.Framework = F;
  C.Instr.Interval = 16;
  return buildMicrobench(C);
}

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

/// A plan small enough that even smoke-scale streams cut many periods.
SamplingPlan tinyPlan() {
  SamplingPlan Plan;
  Plan.PeriodInsts = 4000;
  Plan.WarmupInsts = 800;
  Plan.MeasureInsts = 500;
  Plan.DetailedWarmupInsts = 100;
  return Plan;
}

} // namespace

TEST(SamplingPlan, Validity) {
  SamplingPlan P;
  EXPECT_TRUE(P.valid()); // defaults must be usable
  EXPECT_GT(P.detailedFraction(), 0.0);
  EXPECT_LT(P.detailedFraction(), 1.0);

  P.MeasureInsts = 0;
  EXPECT_FALSE(P.valid());
  P = SamplingPlan();
  P.PeriodInsts = 0;
  EXPECT_FALSE(P.valid());
  P = SamplingPlan();
  P.WarmupInsts = P.PeriodInsts; // warm + measure overflow the period
  EXPECT_FALSE(P.valid());
  // Parts whose 64-bit sum wraps back under the period still do not fit.
  P = SamplingPlan();
  P.WarmupInsts = ~0ULL;
  EXPECT_FALSE(P.valid());
  P = SamplingPlan();
  P.DetailedWarmupInsts = ~0ULL - P.WarmupInsts - P.MeasureInsts + 1;
  EXPECT_FALSE(P.valid());
  P = SamplingPlan();
  P.WarmupInsts = P.PeriodInsts - P.MeasureInsts - P.DetailedWarmupInsts;
  EXPECT_TRUE(P.valid()); // an exact fit, with no fast-forward left
}

TEST(SampledRunner, ArchStateIdenticalToFunctionalRun) {
  MicrobenchProgram MB = instrumentedProgram(3000);

  Machine Ref;
  BrrUnitDecider RefD;
  const DecodedProgram DP(MB.Prog);
  Interpreter RefI(DP, Ref, RefD);
  RunStats RefStats = RefI.run(1ULL << 24);
  ASSERT_TRUE(RefStats.Halted);

  Machine M;
  BrrUnitDecider D;
  Interpreter Loader(DP, M, D); // loads the image, executes nothing
  SampledResult SR = runSampled(DP, M, tinyPlan(), PipelineConfig(), D);

  EXPECT_TRUE(SR.Halted);
  EXPECT_EQ(SR.TotalInsts, RefStats.Insts);
  EXPECT_EQ(M.pc(), Ref.pc());
  for (unsigned R = 0; R != 32; ++R)
    EXPECT_EQ(M.readReg(R), Ref.readReg(R)) << "register " << R;
  EXPECT_EQ(nonZeroPages(M), nonZeroPages(Ref));
  // Same decider trajectory: the LFSR consumed exactly the same brrs.
  EXPECT_EQ(D.checkpointWords(), RefD.checkpointWords());
}

TEST(SampledRunner, PhaseAccountingAddsUp) {
  MicrobenchProgram MB = instrumentedProgram(3000);
  const DecodedProgram DP(MB.Prog);
  SampledResult SR = runSampled(DP, tinyPlan());

  ASSERT_TRUE(SR.Halted);
  ASSERT_GE(SR.NumIntervals, 2u);
  EXPECT_EQ(SR.WarmedInsts + SR.PrerollInsts + SR.MeasuredInsts +
                SR.FastForwardInsts,
            SR.TotalInsts);
  EXPECT_EQ(SR.Detailed.Insts, SR.MeasuredInsts);
  EXPECT_EQ(SR.IpcSamples.count(), SR.NumIntervals);
  EXPECT_GT(SR.ipcMean(), 0.0);
  EXPECT_GE(SR.ipcCi95(), 0.0);
}

TEST(SampledRunner, ShortStreamStillYieldsOneInterval) {
  // The detailed interval sits at the head of each period, so a stream
  // shorter than one period still produces a measurement.
  MicrobenchProgram MB = instrumentedProgram(60);
  SamplingPlan Plan;
  Plan.PeriodInsts = 1u << 20;
  Plan.WarmupInsts = 100;
  Plan.MeasureInsts = 2000;
  Plan.DetailedWarmupInsts = 50;
  const DecodedProgram DP(MB.Prog);
  SampledResult SR = runSampled(DP, Plan);
  EXPECT_TRUE(SR.Halted);
  EXPECT_EQ(SR.NumIntervals, 1u);
  EXPECT_GT(SR.ipcMean(), 0.0);
}

TEST(SampledRunner, MarkersDelimitTheRoi) {
  MicrobenchProgram MB = instrumentedProgram(3000);
  const DecodedProgram DP(MB.Prog);
  SampledResult SR = runSampled(DP, tinyPlan());

  ASSERT_EQ(SR.Markers.size(), 2u);
  EXPECT_EQ(SR.Markers[0].Id, MarkerRoiBegin);
  EXPECT_EQ(SR.Markers[1].Id, MarkerRoiEnd);
  EXPECT_GT(SR.Markers[1].GlobalInst, SR.Markers[0].GlobalInst);
  EXPECT_LE(SR.Markers[1].GlobalInst, SR.TotalInsts);
  EXPECT_GT(SR.roiInsts(), 0u);
  EXPECT_GT(SR.estimatedCycles(SR.roiInsts()), 0.0);

  // Marker positions are a property of the stream, not of the sampling
  // schedule: a full functional run sees them at the same indices.
  Machine M;
  BrrUnitDecider D;
  Interpreter I(DP, M, D);
  uint64_t Inst = 0;
  std::vector<uint64_t> FunctionalMarkers;
  while (!I.halted()) {
    ExecRecord R = I.step();
    ++Inst;
    if (R.D->Kind == InstKind::Marker)
      FunctionalMarkers.push_back(Inst);
  }
  ASSERT_EQ(FunctionalMarkers.size(), 2u);
  EXPECT_EQ(SR.Markers[0].GlobalInst, FunctionalMarkers[0]);
  EXPECT_EQ(SR.Markers[1].GlobalInst, FunctionalMarkers[1]);
}

TEST(SampledRunner, IpcTracksFullDetailedRun) {
  MicrobenchProgram MB = instrumentedProgram(4000);

  const DecodedProgram DP(MB.Prog);
  Pipeline Pipe(DP, PipelineConfig());
  RunResult Full = Pipe.run(1ULL << 24);
  ASSERT_TRUE(Pipe.machine().halted());
  double FullIpc = Full.Stats.ipc();

  SampledResult SR = runSampled(DP, tinyPlan());
  ASSERT_GE(SR.NumIntervals, 2u);

  // Deterministic workload and shared decider seed: the estimate must land
  // within the reported CI plus a 10% systematic allowance.
  double Tol = SR.ipcCi95() + 0.10 * FullIpc;
  EXPECT_NEAR(SR.ipcMean(), FullIpc, Tol)
      << "intervals=" << SR.NumIntervals << " ci=" << SR.ipcCi95();
}

TEST(SampledRunner, RespectsInstructionBudget) {
  MicrobenchProgram MB = instrumentedProgram(3000);
  const DecodedProgram DP(MB.Prog);
  SampledResult SR = runSampled(DP, tinyPlan(), PipelineConfig(), nullptr,
                                /*MaxInsts=*/5000);
  EXPECT_FALSE(SR.Halted);
  EXPECT_EQ(SR.TotalInsts, 5000u);
}

TEST(FunctionalWarmer, WarmedPredictorsReduceColdMisses) {
  // Warm a microarch bundle over the first part of the stream, then run a
  // detailed interval attached to it; compare against the same interval on
  // a stone-cold bundle. Warming must not hurt and, on this branchy
  // workload, should strictly reduce I-cache misses.
  MicrobenchProgram MB = instrumentedProgram(3000);
  PipelineConfig Config;

  const DecodedProgram DP(MB.Prog);
  auto RunInterval = [&](bool Warm) {
    Machine M;
    BrrUnitDecider D;
    Interpreter Fn(DP, M, D);
    MicroarchState Uarch(Config);
    if (Warm) {
      FunctionalWarmer Warmer(Uarch, Config);
      Warmer.warm(Fn, 4000);
    } else {
      Fn.run(4000, /*RequireHalt=*/false);
    }
    Pipeline Pipe(DP, M, Uarch, Config, D);
    return Pipe.run(2000, /*RequireHalt=*/false).Stats;
  };

  PipelineStats Cold = RunInterval(false);
  PipelineStats Warmed = RunInterval(true);
  ASSERT_EQ(Cold.Insts, Warmed.Insts); // identical instruction window
  EXPECT_LT(Warmed.FetchIcacheStallCycles, Cold.FetchIcacheStallCycles);
  EXPECT_LE(Warmed.Cycles, Cold.Cycles);
}
