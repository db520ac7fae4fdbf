//===- exp/ExperimentsSample.cpp - Sampled-simulation validation ----------===//
//
// Part of the branch-on-random reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `sample_error` experiment: for every Figure-13 framework arm it runs
/// the identical instrumented microbenchmark twice — once through the full
/// detailed Pipeline and once through the SampledRunner — and checks that
/// the sampled IPC and brr-overhead estimates land within the sampler's
/// own 95% confidence interval (plus a small bias margin for the interval
/// cold-start ramp) of the full-run values, while timing both so the
/// summary reports the sampled mode's wall-clock fraction. The two runs
/// share one program and the same default decider seed, so they execute
/// byte-identical instruction streams and differ only in how much of the
/// stream is cycle-timed.
///
/// tests/sample_validation.cmake gates CI on this experiment's verdict.
///
//===----------------------------------------------------------------------===//

#include "exp/Experiment.h"
#include "exp/Harness.h"
#include "workloads/AppGen.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>

namespace bor {
namespace exp {

namespace {

/// Extra tolerance, in relative terms, beyond the sampler's CI: detailed
/// intervals start from a drained pipeline, so even with the pre-roll a
/// small systematic bias remains that no amount of sampling averages away.
constexpr double BiasMargin = 0.025;

constexpr uint64_t SampleIntervals[] = {16, 1024};

double nowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One workload measured both ways, program built once and timing taken
/// around the runs only (both modes pay the same build cost, which is not
/// part of the simulation-speed claim).
struct Comparison {
  double FullIpc = 0;
  double SampledIpc = 0;
  double IpcCi95 = 0;
  uint64_t FullRoi = 0;
  double SampledRoi = 0;
  uint64_t Intervals = 0;
  double FullMs = 0;
  double SampledMs = 0;
};

/// Runs \p P both ways and fills a Comparison; the program is built by the
/// caller (microbenchmark or application analogue), the measurement path
/// is identical.
Comparison measureBoth(const Program &P, const SamplingPlan &Plan) {
  Comparison Cmp;
  // Shared decoded image: decode cost is paid once, outside both timers.
  DecodedProgram Dec(P);
  double T0 = nowMs();
  Pipeline Pipe(Dec, PipelineConfig());
  RunResult Full = Pipe.run(1ULL << 40);
  double T1 = nowMs();
  SampledResult SR = runSampled(Dec, Plan, PipelineConfig());
  double T2 = nowMs();

  Cmp.FullMs = T1 - T0;
  Cmp.SampledMs = T2 - T1;
  Cmp.FullIpc = Full.Stats.ipc();
  Cmp.SampledIpc = SR.ipcMean();
  Cmp.IpcCi95 = SR.ipcCi95();
  Cmp.Intervals = SR.NumIntervals;
  if (Full.Markers.size() == 2)
    Cmp.FullRoi = Full.roiCycles();
  if (SR.Markers.size() >= 2)
    Cmp.SampledRoi = SR.estimatedCycles(SR.roiInsts());
  return Cmp;
}

Comparison compareRuns(const InstrumentationConfig &Instr, size_t Chars,
                       const SamplingPlan &Plan) {
  MicrobenchConfig C;
  C.Text.NumChars = Chars;
  C.Instr = Instr;
  MicrobenchProgram MB = buildMicrobench(C);
  return measureBoth(MB.Prog, Plan);
}

/// The fig12-shaped cell: a DaCapo-style application analogue under
/// Full-Duplication instrumentation at period 1024 — the exact workload
/// shape Figure 12 times — validated the same way as the microbenchmark
/// arms.
Comparison compareAppRuns(SamplingFramework F, uint64_t Scale,
                          const SamplingPlan &Plan) {
  AppConfig C = dacapoAppAnalogues().front();
  C.NumTopCalls = std::max<uint64_t>(C.NumTopCalls / Scale, 500);
  C.Instr.Framework = F;
  C.Instr.Dup = DuplicationMode::FullDuplication;
  C.Instr.Interval = 1024;
  AppProgram P = buildApp(C);
  return measureBoth(P.Prog, Plan);
}

/// Computes the IPC- and overhead-agreement verdicts for one cell and
/// renders them as the cell's record. \p Base supplies the uninstrumented
/// reference both overhead ratios divide by.
RunRecord agreementRecord(const std::string &Series,
                          const std::string &Interval, const Comparison &Cmp,
                          const Comparison &Base) {
  // IPC agreement: CI half-width plus the bias margin, both in IPC units.
  double IpcTol = Cmp.IpcCi95 + BiasMargin * Cmp.FullIpc;
  bool IpcOk = std::fabs(Cmp.SampledIpc - Cmp.FullIpc) <= IpcTol;

  // Overhead agreement, in percentage points. Both the run's and the
  // baseline's sampled ROI carry a relative error of about ci/ipc; the
  // overhead ratio compounds them, so the tolerance propagates both plus
  // the bias margin on each.
  double FullOh = 100.0 * (static_cast<double>(Cmp.FullRoi) /
                               static_cast<double>(Base.FullRoi) -
                           1.0);
  double SampledOh = 100.0 * (Cmp.SampledRoi / Base.SampledRoi - 1.0);
  double RelRun =
      Cmp.SampledIpc > 0 ? Cmp.IpcCi95 / Cmp.SampledIpc + BiasMargin : 1;
  double RelBase =
      Base.SampledIpc > 0 ? Base.IpcCi95 / Base.SampledIpc + BiasMargin : 1;
  double OhTol = 100.0 * (RelRun + RelBase) * (1.0 + FullOh / 100.0);
  bool OhOk = std::fabs(SampledOh - FullOh) <= OhTol;

  RunRecord R;
  R.param("series", Series);
  R.param("interval", Interval);
  R.metric("full_ipc", Cmp.FullIpc, 3);
  R.metric("sampled_ipc", Cmp.SampledIpc, 3);
  R.metric("ipc_ci95", Cmp.IpcCi95, 4);
  R.metric("ipc_ok", static_cast<uint64_t>(IpcOk));
  R.metric("full_overhead_pct", FullOh, 2);
  R.metric("sampled_overhead_pct", SampledOh, 2);
  R.metric("overhead_tol_pp", OhTol, 2);
  R.metric("overhead_ok", static_cast<uint64_t>(OhOk));
  R.metric("sample_intervals", Cmp.Intervals);
  R.metric("full_ms", Cmp.FullMs, 1);
  R.metric("sampled_ms", Cmp.SampledMs, 1);
  return R;
}

ExperimentSpec makeSampleError(const ExperimentOptions &O) {
  const size_t Chars = scaledChars(O);
  const uint64_t Scale = O.Scale;
  // Validation always compares against the sampled mode bor-bench would
  // use: the user's --sample-* plan if given, else the defaults.
  const SamplingPlan Plan = O.Plan;
  ExperimentSpec S;
  char Title[256];
  std::snprintf(Title, sizeof(Title),
                "sample_error - sampled vs full-run agreement on the "
                "Figure 13 grid\nplus a fig12-shaped app analogue (%zu "
                "characters; period %llu, warm %llu,\nmeasure %llu)",
                Chars, static_cast<unsigned long long>(Plan.PeriodInsts),
                static_cast<unsigned long long>(Plan.WarmupInsts),
                static_cast<unsigned long long>(Plan.MeasureInsts));
  S.Title = Title;
  S.Notes = "ok flags: sampled estimate within the sampler's own 95% CI "
            "(plus a 2.5% bias\nmargin) of the full run's value. The "
            "summary verdict is PASS only when every\ncell agrees; "
            "sampled_wallclock_pct is reported, not judged.";

  auto Base = std::make_shared<Comparison>();
  S.Setup = [Base, Chars, Plan] {
    *Base = compareRuns(InstrumentationConfig(), Chars, Plan);
  };

  for (const MicroArm &A : Fig13Arms)
    for (uint64_t Interval : SampleIntervals)
      S.Cells.push_back(
          {{"series", A.Name}, {"interval", std::to_string(Interval)}});

  // The fig12-shaped application-analogue cell, validated like the
  // microbenchmark arms but against its own uninstrumented app baseline.
  constexpr size_t NumIntervals =
      sizeof(SampleIntervals) / sizeof(SampleIntervals[0]);
  constexpr size_t NumMicroCells =
      sizeof(Fig13Arms) / sizeof(Fig13Arms[0]) * NumIntervals;
  S.Cells.push_back({{"series", "app brr (full-dup)"}, {"interval", "1024"}});

  S.Run = [Base, Chars, Plan, Scale](const ParamSet &, size_t Index) {
    if (Index == NumMicroCells) {
      Comparison AppBase =
          compareAppRuns(SamplingFramework::None, Scale, Plan);
      Comparison Cmp =
          compareAppRuns(SamplingFramework::BrrBased, Scale, Plan);
      // The app baseline is private to this cell, so fold its wall-clock
      // into the cell's totals for the summary's speedup accounting.
      Cmp.FullMs += AppBase.FullMs;
      Cmp.SampledMs += AppBase.SampledMs;
      return agreementRecord("app brr (full-dup)", "1024", Cmp, AppBase);
    }
    const MicroArm &A = Fig13Arms[Index / NumIntervals];
    uint64_t Interval = SampleIntervals[Index % NumIntervals];
    Comparison Cmp = compareRuns(microConfig(A.F, A.Dup, Interval, A.Body),
                                 Chars, Plan);
    return agreementRecord(A.Name, std::to_string(Interval), Cmp, *Base);
  };

  S.Summarize = [Base](const std::vector<RunRecord> &Cells) {
    uint64_t Ok = 0;
    double FullMs = Base->FullMs, SampledMs = Base->SampledMs;
    for (const RunRecord &R : Cells) {
      Ok += R.findMetric("ipc_ok")->U && R.findMetric("overhead_ok")->U;
      FullMs += R.findMetric("full_ms")->D;
      SampledMs += R.findMetric("sampled_ms")->D;
    }
    double WallPct = FullMs > 0 ? 100.0 * SampledMs / FullMs : 100.0;
    bool Pass = Ok == Cells.size();
    RunRecord V;
    V.param("series", "summary");
    V.metric("cells_ok", Ok);
    V.metric("cells_total", static_cast<uint64_t>(Cells.size()));
    V.metric("sampled_wallclock_pct", WallPct, 1);
    V.metric("verdict", std::string(Pass ? "PASS" : "FAIL"));
    return std::vector<RunRecord>{V};
  };
  return S;
}

} // namespace

void registerSampleExperiments() {
  ExperimentRegistry &R = ExperimentRegistry::instance();
  R.add("sample_error",
        "Sampled-simulation validation: sampled vs full-run IPC and "
        "overhead on the Figure 13 grid plus a fig12-shaped application "
        "analogue, with wall-clock speedup",
        makeSampleError);
}

} // namespace exp
} // namespace bor
