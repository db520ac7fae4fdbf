//===- exp/ExperimentsTiming.cpp - Timing-simulation experiments ---------===//
//
// Part of the branch-on-random reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Registered experiments whose cells run the cycle-level timing model:
/// the Figure 2 cost decomposition, the Figure 12 application overheads,
/// the Figure 13/14 interval sweeps, the Section 3.3 design ablation, the
/// Section 1 kernel suite, the Section 5.2 misprediction split and the
/// Section 5.3 baseline -- plus the Section 3.3 hardware cost model, the
/// one experiment that runs no engine. Each cell builds its own program
/// and Pipeline, so cells parallelize freely; shared baselines are
/// measured once in the serial Setup stage.
///
//===----------------------------------------------------------------------===//

#include "core/HwCostModel.h"
#include "exp/Experiment.h"
#include "exp/Experiments.h"
#include "exp/Harness.h"
#include "support/Stats.h"
#include "workloads/AppGen.h"
#include "workloads/Kernels.h"

#include <cstdio>
#include <memory>
#include <unordered_set>

namespace bor {
namespace exp {

void registerAccuracyExperiments(); // ExperimentsAccuracy.cpp
void registerSampleExperiments();   // ExperimentsSample.cpp
void registerPgoExperiments();      // ExperimentsPgo.cpp

namespace {

double overheadPct(uint64_t Cycles, uint64_t Base) {
  return 100.0 * (static_cast<double>(Cycles) - static_cast<double>(Base)) /
         static_cast<double>(Base);
}

/// Appends the per-cell pipeline metrics the JSON trajectory captures for
/// every timed run: total cycles, IPC, and the flush-cycle decomposition.
/// Sampled runs additionally report the estimate's provenance (interval
/// count and IPC confidence interval); full runs emit exactly the fields
/// they always did. Every field is deterministic; where a sampled run's
/// wall-clock went is in its trace spans (warm, measure, fast-forward).
void addPipelineMetrics(RunRecord &R, const MicroRun &Run) {
  R.metric("roi_cycles", Run.RoiCycles);
  R.metric("cycles", Run.Stats.Cycles);
  R.metric("ipc", Run.Stats.ipc(), 2);
  R.metric("frontend_flush_cycles", Run.Stats.FrontendFlushCycles);
  R.metric("backend_flush_cycles", Run.Stats.BackendFlushCycles);
  R.metric("icache_stall_cycles", Run.Stats.FetchIcacheStallCycles);
  if (Run.Sampled) {
    R.metric("sample_intervals", Run.SampleIntervals);
    R.metric("ipc_ci95", Run.IpcCi95, 4);
  }
}

//===----------------------------------------------------------------------===//
// Figure 13: overhead vs sampling interval, eight framework arms.
//===----------------------------------------------------------------------===//

ExperimentSpec makeFig13(const ExperimentOptions &O) {
  const size_t Chars = scaledChars(O);
  ExperimentSpec S;
  char Title[256];
  std::snprintf(Title, sizeof(Title),
                "Figure 13 - microbenchmark overhead vs sampling interval\n"
                "(percent over uninstrumented baseline; %zu characters; "
                "'+inst' includes the instrumentation bodies)",
                Chars);
  S.Title = Title;
  S.Notes = "paper shape: all curves fall with the interval; both brr "
            "curves drop an order of\nmagnitude below the counter-based "
            "ones above ~64; Full-Duplication lowers both.";

  auto Base = std::make_shared<uint64_t>(0);
  S.Setup = [Base, Chars, O] {
    *Base = runMicrobench(InstrumentationConfig(), Chars, PipelineConfig(), O)
                .RoiCycles;
  };

  std::vector<uint64_t> Intervals = figureIntervals();
  for (const MicroArm &A : Fig13Arms)
    for (uint64_t Interval : Intervals)
      S.Cells.push_back(
          {{"series", A.Name}, {"interval", std::to_string(Interval)}});

  size_t NumIntervals = Intervals.size();
  S.Run = [Base, Chars, Intervals, NumIntervals, O](const ParamSet &,
                                                    size_t Index) {
    const MicroArm &A = Fig13Arms[Index / NumIntervals];
    uint64_t Interval = Intervals[Index % NumIntervals];
    MicroRun Run = runMicrobench(microConfig(A.F, A.Dup, Interval, A.Body),
                                 Chars, PipelineConfig(), O);
    RunRecord R;
    R.param("series", A.Name);
    R.param("interval", std::to_string(Interval));
    R.metric("overhead_pct", overheadPct(Run.RoiCycles, *Base), 1);
    addPipelineMetrics(R, Run);
    return R;
  };

  S.Summarize = [Base, Chars](const std::vector<RunRecord> &) {
    RunRecord Baseline;
    Baseline.param("series", "baseline (uninstrumented)");
    Baseline.metric("roi_cycles", *Base);
    Baseline.metric("cycles_per_char",
                    static_cast<double>(*Base) / static_cast<double>(Chars),
                    2);
    return std::vector<RunRecord>{Baseline};
  };
  return S;
}

//===----------------------------------------------------------------------===//
// Figure 14: added cycles per dynamically-encountered sampling site.
//===----------------------------------------------------------------------===//

struct Fig14Arm {
  const char *Name;
  SamplingFramework F;
  DuplicationMode Dup;
  bool Body;
  uint64_t FixedInterval; ///< 0 = sweep the figure intervals.
};

constexpr Fig14Arm Fig14Arms[] = {
    {"cbs+inst", SamplingFramework::CounterBased,
     DuplicationMode::FullDuplication, true, 0},
    {"cbs", SamplingFramework::CounterBased,
     DuplicationMode::FullDuplication, false, 0},
    {"brr+inst", SamplingFramework::BrrBased,
     DuplicationMode::FullDuplication, true, 0},
    {"brr", SamplingFramework::BrrBased, DuplicationMode::FullDuplication,
     false, 0},
    // The paper's reference point: full (unsampled) instrumentation.
    {"full-inst (reference)", SamplingFramework::Full,
     DuplicationMode::NoDuplication, true, 1024},
};

ExperimentSpec makeFig14(const ExperimentOptions &O) {
  const size_t Chars = scaledChars(O);
  ExperimentSpec S;
  S.Title = "Figure 14 - average added cycles per sampling site "
            "(Full-Duplication)";
  S.Notes = "paper shape: brr's per-site cost falls fast with the "
            "interval (50% costs ~3.19\ncycles/site); the counter "
            "framework's floor is far higher; above interval 64 brr\nis "
            "10-20x cheaper per site. Reference: full instrumentation "
            "adds ~4.3 cycles/site.";

  auto Baseline = std::make_shared<MicroRun>();
  S.Setup = [Baseline, Chars, O] {
    *Baseline =
        runMicrobench(InstrumentationConfig(), Chars, PipelineConfig(), O);
  };

  struct Def {
    const Fig14Arm *Arm;
    uint64_t Interval;
  };
  auto Defs = std::make_shared<std::vector<Def>>();
  for (const Fig14Arm &A : Fig14Arms) {
    if (A.FixedInterval) {
      Defs->push_back({&A, A.FixedInterval});
      continue;
    }
    for (uint64_t Interval : figureIntervals())
      Defs->push_back({&A, Interval});
  }
  for (const Def &D : *Defs)
    S.Cells.push_back({{"series", D.Arm->Name},
                       {"interval", std::to_string(D.Interval)}});

  S.Run = [Baseline, Chars, Defs, O](const ParamSet &, size_t Index) {
    const Def &D = (*Defs)[Index];
    const Fig14Arm &A = *D.Arm;
    MicroRun Run = runMicrobench(microConfig(A.F, A.Dup, D.Interval, A.Body),
                                 Chars, PipelineConfig(), O);
    double PerSite = (static_cast<double>(Run.RoiCycles) -
                      static_cast<double>(Baseline->RoiCycles)) /
                     static_cast<double>(Baseline->DynamicSiteVisits);
    RunRecord R;
    R.param("series", A.Name);
    R.param("interval", std::to_string(D.Interval));
    R.metric("cycles_per_site", PerSite, 2);
    addPipelineMetrics(R, Run);
    return R;
  };
  return S;
}

//===----------------------------------------------------------------------===//
// Figure 2: fixed (framework) vs variable (instrumentation) cost.
//===----------------------------------------------------------------------===//

ExperimentSpec makeFig02(const ExperimentOptions &O) {
  const size_t Chars = scaledChars(O);
  ExperimentSpec S;
  char Title[160];
  std::snprintf(Title, sizeof(Title),
                "Figure 2 - fixed vs variable cost decomposition "
                "(No-Duplication, %zu chars)",
                Chars);
  S.Title = Title;
  S.Notes = "the variable component scales ~1/interval for both "
            "frameworks; the fixed\ncomponent is the framework artifact "
            "brr eliminates.";

  auto Base = std::make_shared<uint64_t>(0);
  S.Setup = [Base, Chars, O] {
    *Base = runMicrobench(InstrumentationConfig(), Chars, PipelineConfig(), O)
                .RoiCycles;
  };

  const SamplingFramework Frameworks[] = {SamplingFramework::CounterBased,
                                          SamplingFramework::BrrBased};
  const uint64_t Intervals[] = {16, 128, 1024};
  for (SamplingFramework F : Frameworks)
    for (uint64_t Interval : Intervals)
      S.Cells.push_back({{"framework", frameworkName(F)},
                         {"interval", std::to_string(Interval)}});

  S.Run = [Base, Chars, O](const ParamSet &, size_t Index) {
    const SamplingFramework Frameworks[] = {SamplingFramework::CounterBased,
                                            SamplingFramework::BrrBased};
    const uint64_t Intervals[] = {16, 128, 1024};
    SamplingFramework F = Frameworks[Index / 3];
    uint64_t Interval = Intervals[Index % 3];
    uint64_t FwOnly =
        runMicrobench(
            microConfig(F, DuplicationMode::NoDuplication, Interval, false),
            Chars, PipelineConfig(), O)
            .RoiCycles;
    MicroRun Total = runMicrobench(
        microConfig(F, DuplicationMode::NoDuplication, Interval, true),
        Chars, PipelineConfig(), O);
    double TotalPct = overheadPct(Total.RoiCycles, *Base);
    double FixedPct = overheadPct(FwOnly, *Base);
    RunRecord R;
    R.param("framework", frameworkName(F));
    R.param("interval", std::to_string(Interval));
    R.metric("total_pct", TotalPct, 2);
    R.metric("fixed_pct", FixedPct, 2);
    R.metric("variable_pct", TotalPct - FixedPct, 2);
    addPipelineMetrics(R, Total);
    return R;
  };
  return S;
}

//===----------------------------------------------------------------------===//
// Figure 12: application-analogue overheads.
//===----------------------------------------------------------------------===//

struct RoiRun {
  uint64_t RoiCycles = 0;
  PipelineStats Stats;
};

/// Times \p Prog's region of interest: sampled under \p O.Plan when \p
/// O.Sample is set and the stream holds an interval, else a full run.
RoiRun roiRun(const Program &Prog, const ExperimentOptions &O) {
  // One decoded image per cell, shared by the sampled and full-run paths.
  DecodedProgram Dec(Prog);
  if (O.Sample) {
    SampledResult SR = runSampledMaybeLibrary(Dec, PipelineConfig(), O);
    if (SR.NumIntervals != 0 && SR.Markers.size() >= 2) {
      RoiRun R;
      R.RoiCycles =
          static_cast<uint64_t>(SR.estimatedCycles(SR.roiInsts()) + 0.5);
      R.Stats = SR.Detailed;
      R.Stats.Insts = SR.TotalInsts; // ipc() then reports the estimate
      R.Stats.Cycles =
          static_cast<uint64_t>(SR.estimatedCycles(SR.TotalInsts) + 0.5);
      return R;
    }
    // Stream too short for a sample: fall through to a full run.
  }
  Pipeline Pipe(Dec, PipelineConfig());
  Pipe.setTelemetry(O.Telemetry);
  RunResult Result = Pipe.run(1ULL << 40);
  return {Result.roiCycles(), Result.Stats};
}

/// The Summarize stage of a grid of cbs_pct/brr_pct cells: one record
/// averaging both columns, labelled "average" under param \p Key.
std::function<std::vector<RunRecord>(const std::vector<RunRecord> &)>
averageOverheads(std::string Key) {
  return [Key](const std::vector<RunRecord> &Cells) {
    double Cbs = 0, Brr = 0;
    for (const RunRecord &R : Cells) {
      Cbs += R.findMetric("cbs_pct")->D;
      Brr += R.findMetric("brr_pct")->D;
    }
    double N = static_cast<double>(Cells.size());
    RunRecord Avg;
    Avg.param(Key, "average");
    Avg.metric("cbs_pct", Cbs / N, 2);
    Avg.metric("brr_pct", Brr / N, 2);
    return std::vector<RunRecord>{Avg};
  };
}

ExperimentSpec makeFig12(const ExperimentOptions &O) {
  ExperimentSpec S;
  S.Title = "Figure 12 - sampling framework overhead on application "
            "analogues\n(Full-Duplication, sampling period 1024, timing "
            "simulation; percent over\nuninstrumented baseline)";
  S.Notes = "paper: cbs averages ~4.97%, brr ~0.64% on weakly-optimized "
            "Jikes builds; the\nreproduction preserves the ordering and "
            "the multi-x gap.";

  auto Apps = std::make_shared<std::vector<AppConfig>>(dacapoAppAnalogues());
  for (AppConfig &App : *Apps)
    App.NumTopCalls = std::max<uint64_t>(App.NumTopCalls / O.Scale, 500);
  for (const AppConfig &App : *Apps)
    S.Cells.push_back({{"benchmark", App.Name}});

  S.Run = [Apps, O](const ParamSet &, size_t Index) {
    const AppConfig &App = (*Apps)[Index];
    auto Roi = [&](SamplingFramework F) {
      AppConfig C = App;
      C.Instr.Framework = F;
      C.Instr.Dup = DuplicationMode::FullDuplication;
      C.Instr.Interval = 1024;
      return roiRun(buildApp(C).Prog, O);
    };
    RoiRun Base = Roi(SamplingFramework::None);
    RoiRun Cbs = Roi(SamplingFramework::CounterBased);
    RoiRun Brr = Roi(SamplingFramework::BrrBased);
    RunRecord R;
    R.param("benchmark", App.Name);
    R.metric("baseline_cycles", Base.RoiCycles);
    R.metric("cbs_pct", overheadPct(Cbs.RoiCycles, Base.RoiCycles), 2);
    R.metric("brr_pct", overheadPct(Brr.RoiCycles, Base.RoiCycles), 2);
    R.metric("baseline_ipc", Base.Stats.ipc(), 2);
    return R;
  };
  S.Summarize = averageOverheads("benchmark");
  return S;
}

//===----------------------------------------------------------------------===//
// Section 1: framework overhead across the kernel suite.
//===----------------------------------------------------------------------===//

ExperimentSpec makeKernels(const ExperimentOptions &O) {
  ExperimentSpec S;
  S.Title = "Section 1 - framework overhead across the kernel suite\n"
            "(No-Duplication, sampling period 1024, timing simulation at "
            "fixed kernel sizes;\npercent over each kernel's "
            "uninstrumented baseline)";
  S.Notes = "shape: the counter framework's cost tracks site density and "
            "each kernel's\nsensitivity to extra memory traffic; brr stays "
            "near-negligible everywhere except\na site inside sort's "
            "five-instruction loop, which is what makes 'instrument\n"
            "everything, always' plausible.";

  static constexpr KernelKind Kinds[] = {
      KernelKind::Crc32, KernelKind::Sort, KernelKind::StrSearch,
      KernelKind::MatMul, KernelKind::ListSum};
  for (KernelKind Kind : Kinds)
    S.Cells.push_back({{"kernel", kernelName(Kind)}});

  S.Run = [O](const ParamSet &, size_t Index) {
    KernelConfig C;
    C.Kind = Kinds[Index];
    C.Instr.Interval = 1024;
    KernelProgram Base = buildKernel(C);
    RoiRun BaseRun = roiRun(Base.Prog, O);
    C.Instr.Framework = SamplingFramework::CounterBased;
    RoiRun Cbs = roiRun(buildKernel(C).Prog, O);
    C.Instr.Framework = SamplingFramework::BrrBased;
    RoiRun Brr = roiRun(buildKernel(C).Prog, O);
    RunRecord R;
    R.param("kernel", kernelName(C.Kind));
    R.metric("baseline_cycles", BaseRun.RoiCycles);
    R.metric("site_visits", Base.DynamicSiteVisits);
    R.metric("cbs_pct", overheadPct(Cbs.RoiCycles, BaseRun.RoiCycles), 2);
    R.metric("brr_pct", overheadPct(Brr.RoiCycles, BaseRun.RoiCycles), 2);
    return R;
  };
  S.Summarize = averageOverheads("kernel");
  return S;
}

//===----------------------------------------------------------------------===//
// Section 3.3 ablation: pipeline integration, counter placement, oracle
// prediction.
//===----------------------------------------------------------------------===//

ExperimentSpec makeAblation(const ExperimentOptions &O) {
  const size_t Chars = scaledChars(O);
  ExperimentSpec S;
  S.Title = "Ablation - branch-on-random design decisions "
            "(No-Duplication, framework-only)";
  S.Notes =
      "groups: 'design' forces brr through progressively less integrated "
      "pipeline\npaths (Section 3.3); 'counter-placement' compares the "
      "counter's home (Section 2\nitems 3-4); 'oracle' re-measures added "
      "cycles/char under perfect branch\nprediction - the counter chain's "
      "serialization is *more* exposed there, while\nbrr's residual cost "
      "is pure fetch bandwidth and vanishes at low rates.";

  struct Machines {
    PipelineConfig Default;
    PipelineConfig Backend;
    PipelineConfig HoldsRob;
    PipelineConfig Trap;
    PipelineConfig Oracle;
    uint64_t Base = 0;
    uint64_t OracleBase = 0;
  };
  auto M = std::make_shared<Machines>();
  M->Backend.BrrAsBackendBranch = true;
  M->HoldsRob.BrrCommitsAtDecode = false;
  M->Trap.BrrTrapCycles = 300; // Section 3.4's SIGILL emulation fallback
  M->Oracle.PerfectBranchPrediction = true;

  S.Setup = [M, Chars, O] {
    M->Base =
        runMicrobench(InstrumentationConfig(), Chars, M->Default, O).RoiCycles;
    M->OracleBase =
        runMicrobench(InstrumentationConfig(), Chars, M->Oracle, O).RoiCycles;
  };

  struct Def {
    std::string Group;
    std::string Arm;
    uint64_t Interval;
    InstrumentationConfig Instr;
    const PipelineConfig *Machine; ///< offset into *M; set per cell below
    bool PerChar;                  ///< report added cycles/char, not %
    bool OracleBaseline;
  };
  auto Defs = std::make_shared<std::vector<Def>>();
  const uint64_t Intervals[] = {16, 1024};

  // Group 1: pipeline-integration design arms (brr framework-only).
  const std::pair<const char *, const PipelineConfig *> DesignArms[] = {
      {"brr (proposed: decode-resolved)", &M->Default},
      {"brr held in ROB until commit", &M->HoldsRob},
      {"brr as back-end branch", &M->Backend},
      {"brr trap-emulated (SIGILL, S3.4)", &M->Trap},
  };
  for (const auto &[Name, Machine] : DesignArms)
    for (uint64_t Interval : Intervals)
      Defs->push_back({"design", Name, Interval,
                       microConfig(SamplingFramework::BrrBased,
                                   DuplicationMode::NoDuplication, Interval,
                                   false),
                       Machine, false, false});

  // Group 2: counter placement (memory vs register vs none-at-all/brr).
  for (uint64_t Interval : Intervals) {
    InstrumentationConfig Mem =
        microConfig(SamplingFramework::CounterBased,
                    DuplicationMode::NoDuplication, Interval, false);
    InstrumentationConfig Reg = Mem;
    Reg.CounterPlacement = CounterHome::Register;
    InstrumentationConfig Brr =
        microConfig(SamplingFramework::BrrBased,
                    DuplicationMode::NoDuplication, Interval, false);
    Defs->push_back({"counter-placement", "cbs, counter in memory",
                     Interval, Mem, &M->Default, false, false});
    Defs->push_back({"counter-placement", "cbs, counter in a register",
                     Interval, Reg, &M->Default, false, false});
    Defs->push_back({"counter-placement", "brr (no counter at all)",
                     Interval, Brr, &M->Default, false, false});
  }

  // Group 3: real machine vs oracle prediction, added cycles per char.
  for (SamplingFramework F :
       {SamplingFramework::CounterBased, SamplingFramework::BrrBased})
    for (uint64_t Interval : Intervals)
      for (bool Oracle : {false, true}) {
        std::string Arm = std::string(frameworkName(F)) +
                          (Oracle ? ", oracle prediction" : ", real machine");
        Defs->push_back({"oracle", Arm, Interval,
                         microConfig(F, DuplicationMode::NoDuplication,
                                     Interval, false),
                         Oracle ? &M->Oracle : &M->Default, true, Oracle});
      }

  for (const Def &D : *Defs)
    S.Cells.push_back({{"group", D.Group},
                       {"arm", D.Arm},
                       {"interval", std::to_string(D.Interval)}});

  S.Run = [M, Defs, Chars, O](const ParamSet &, size_t Index) {
    const Def &D = (*Defs)[Index];
    MicroRun Run = runMicrobench(D.Instr, Chars, *D.Machine, O);
    uint64_t Base = D.OracleBaseline ? M->OracleBase : M->Base;
    RunRecord R;
    R.param("group", D.Group);
    R.param("arm", D.Arm);
    R.param("interval", std::to_string(D.Interval));
    if (D.PerChar)
      R.metric("added_cycles_per_char",
               (static_cast<double>(Run.RoiCycles) -
                static_cast<double>(Base)) /
                   static_cast<double>(Chars),
               2);
    else
      R.metric("overhead_pct", overheadPct(Run.RoiCycles, Base), 2);
    addPipelineMetrics(R, Run);
    return R;
  };
  return S;
}

//===----------------------------------------------------------------------===//
// Section 5.3: the microbenchmark's baseline characterization.
//===----------------------------------------------------------------------===//

ExperimentSpec makeMicroBaseline(const ExperimentOptions &O) {
  const size_t Chars = scaledChars(O);
  ExperimentSpec S;
  S.Title = "Section 5.3 - microbenchmark baseline characterization\n"
            "(uninstrumented, full detailed pipeline)";
  S.Notes = "paper: branch prediction accuracy 84.5%, L1I and L1D hit "
            "rates >99.5%, fetching\nat full width 67% of cycles and "
            "stalled handling mispredictions 29.5%.";
  S.Cells.push_back({{"chars", std::to_string(Chars)}});

  // Always the full pipeline, whatever O.Sample says: the predictor and
  // cache statistics below cover every instruction only there.
  S.Run = [Chars, O](const ParamSet &, size_t) {
    MicrobenchConfig C;
    C.Text.NumChars = Chars;
    MicrobenchProgram MB = buildMicrobench(C);
    const DecodedProgram Dec(MB.Prog);
    Pipeline Pipe(Dec, PipelineConfig());
    Pipe.setTelemetry(O.Telemetry);
    PipelineStats St = Pipe.run(1ULL << 40).Stats;
    const PredictorStats &Pred = Pipe.predictor().stats();
    RunRecord R;
    R.param("chars", std::to_string(Chars));
    R.metric("insts", St.Insts);
    R.metric("cycles", St.Cycles);
    R.metric("ipc", St.ipc(), 2);
    R.metric("pred_accuracy_pct",
             100.0 - percent(static_cast<double>(Pred.Mispredictions),
                             static_cast<double>(Pred.Predictions)),
             1);
    R.metric("l1i_hit_pct", 100.0 * Pipe.memHier().l1i().stats().hitRate(),
             2);
    R.metric("l1d_hit_pct", 100.0 * Pipe.memHier().l1d().stats().hitRate(),
             2);
    const double Cycles = static_cast<double>(St.Cycles);
    R.metric("full_width_fetch_pct",
             percent(static_cast<double>(St.FullWidthFetchCycles), Cycles), 1);
    R.metric("backend_flush_pct",
             percent(static_cast<double>(St.BackendFlushCycles), Cycles), 1);
    return R;
  };
  return S;
}

//===----------------------------------------------------------------------===//
// Section 5.2: framework-check vs program-branch mispredictions.
//===----------------------------------------------------------------------===//

struct MispredictSplit {
  uint64_t Program = 0;
  uint64_t Framework = 0;
};

/// Runs the microbenchmark under \p Instr on \p Machine through the full
/// pipeline -- the per-instruction observer exists only there -- and
/// splits every back-end misprediction by whether its PC is one of the
/// framework's check branches.
MispredictSplit measureSplit(const InstrumentationConfig &Instr,
                             size_t Chars, const PipelineConfig &Machine,
                             const ExperimentOptions &O) {
  MicrobenchConfig C;
  C.Text.NumChars = Chars;
  C.Instr = Instr;
  MicrobenchProgram MB = buildMicrobench(C);
  std::unordered_set<uint64_t> Checks(MB.CheckBranchPcs.begin(),
                                      MB.CheckBranchPcs.end());
  const DecodedProgram Dec(MB.Prog);
  Pipeline Pipe(Dec, Machine);
  Pipe.setTelemetry(O.Telemetry);
  MispredictSplit Split;
  Pipe.setObserver([&](const InstTimestamps &TS) {
    if (!TS.Mispredicted)
      return;
    if (Checks.count(TS.Pc))
      ++Split.Framework;
    else
      ++Split.Program;
  });
  Pipe.run(1ULL << 40);
  return Split;
}

ExperimentSpec makeMispredictSplit(const ExperimentOptions &O) {
  const size_t Chars = scaledChars(O);
  ExperimentSpec S;
  char Title[256];
  std::snprintf(Title, sizeof(Title),
                "Section 5.2 - where the extra branch mispredictions come "
                "from\n(microbenchmark, No-Duplication, framework-only, %zu "
                "chars, full detailed pipeline;\nmispredictions per 1000 "
                "characters, delta against the same predictor's baseline)",
                Chars);
  S.Title = Title;
  S.Notes = "reading: cbs mispredicts on its own check branches and, by "
            "diluting the global\nhistory, on program branches; brr never "
            "consults or trains the predictor, so it\nadds neither. The "
            "weaker the history, the larger cbs's dilution delta.";

  struct Predictor {
    const char *Name;
    PipelineConfig Machine;
  };
  auto Weaker = [](PredictorKind Kind, unsigned HistoryBits) {
    PipelineConfig M;
    M.Predictor.Kind = Kind;
    M.Predictor.HistoryBits = HistoryBits;
    return M;
  };
  // The default machine (a tournament predictor over 16 history bits)
  // first, then weaker predictors.
  auto Machines = std::make_shared<std::vector<Predictor>>(
      std::vector<Predictor>{
          {"tournament-16", PipelineConfig()},
          {"gshare-16", Weaker(PredictorKind::GshareOnly, 16)},
          {"gshare-10", Weaker(PredictorKind::GshareOnly, 10)},
          {"bimodal", Weaker(PredictorKind::BimodalOnly, 16)}});

  auto Baselines =
      std::make_shared<std::vector<MispredictSplit>>(Machines->size());
  S.Setup = [Machines, Baselines, Chars, O] {
    for (size_t M = 0; M != Machines->size(); ++M)
      (*Baselines)[M] = measureSplit(InstrumentationConfig(), Chars,
                                     (*Machines)[M].Machine, O);
  };

  struct Def {
    size_t Machine;
    InstrumentationConfig Instr; ///< framework None: the machine's baseline
    std::string Arm;
  };
  auto Defs = std::make_shared<std::vector<Def>>();
  auto Add = [&](size_t M, SamplingFramework F, uint64_t Interval) {
    std::string Arm = frameworkName(F);
    if (F != SamplingFramework::None)
      Arm += " @ " + std::to_string(Interval);
    Defs->push_back({M,
                     microConfig(F, DuplicationMode::NoDuplication, Interval,
                                 false),
                     Arm});
    S.Cells.push_back({{"predictor", (*Machines)[M].Name}, {"arm", Arm}});
  };
  Add(0, SamplingFramework::None, 0);
  const uint64_t Intervals[] = {4, 16, 1024};
  for (uint64_t Interval : Intervals) {
    Add(0, SamplingFramework::CounterBased, Interval);
    Add(0, SamplingFramework::BrrBased, Interval);
  }
  for (size_t M = 1; M != Machines->size(); ++M) {
    Add(M, SamplingFramework::None, 0);
    Add(M, SamplingFramework::CounterBased, 16);
  }

  S.Run = [Machines, Baselines, Defs, Chars, O](const ParamSet &,
                                                size_t Index) {
    const Def &D = (*Defs)[Index];
    const MispredictSplit &Base = (*Baselines)[D.Machine];
    MispredictSplit Split =
        D.Instr.Framework == SamplingFramework::None
            ? Base
            : measureSplit(D.Instr, Chars, (*Machines)[D.Machine].Machine, O);
    double PerK = 1000.0 / static_cast<double>(Chars);
    RunRecord R;
    R.param("predictor", (*Machines)[D.Machine].Name);
    R.param("arm", D.Arm);
    R.metric("program_mis_per_1k", static_cast<double>(Split.Program) * PerK,
             2);
    R.metric("delta_per_1k",
             (static_cast<double>(Split.Program) -
              static_cast<double>(Base.Program)) *
                 PerK,
             2);
    R.metric("framework_mis_per_1k",
             static_cast<double>(Split.Framework) * PerK, 2);
    return R;
  };
  return S;
}

//===----------------------------------------------------------------------===//
// Section 3.3: hardware cost of the brr unit (an analytic model; no engine).
//===----------------------------------------------------------------------===//

ExperimentSpec makeHwCost(const ExperimentOptions &) {
  ExperimentSpec S;
  S.Title = "Section 3.3 - branch-on-random hardware cost estimates";
  S.Notes = "paper: ~20 bits of state and <100 gates single-issue; <100 "
            "bits and <400 gates\n4-wide with replicated units. The shared "
            "LFSR is footnote 3's alternative; the\ndeterministic unit "
            "adds Section 3.4's recovery bits and in-flight counter.";

  struct Config {
    const char *Name;
    HwCostInputs In;
  };
  auto Configs = std::make_shared<std::vector<Config>>();
  HwCostInputs Single; // 20-bit LFSR, 2 taps, 16 freqs, 1-wide
  Configs->push_back({"1-wide", Single});
  HwCostInputs Lfsr16 = Single;
  Lfsr16.LfsrWidth = 16;
  Configs->push_back({"1-wide, 16-bit LFSR", Lfsr16});
  HwCostInputs Wide4 = Single;
  Wide4.DecodeWidth = 4;
  Configs->push_back({"4-wide replicated", Wide4});
  HwCostInputs Shared = Wide4;
  Shared.Replicated = false;
  Configs->push_back({"4-wide shared LFSR", Shared});
  HwCostInputs Det = Single;
  Det.Deterministic = true;
  Det.MaxInFlight = 16;
  Configs->push_back({"1-wide deterministic, 16 in flight", Det});
  HwCostInputs Wide8 = Single;
  Wide8.DecodeWidth = 8;
  Configs->push_back({"8-wide replicated", Wide8});
  for (const Config &C : *Configs)
    S.Cells.push_back({{"configuration", C.Name}});

  S.Run = [Configs](const ParamSet &, size_t Index) {
    const Config &C = (*Configs)[Index];
    HwCostEstimate E = estimateBrrCost(C.In);
    RunRecord R;
    R.param("configuration", C.Name);
    R.metric("state_bits", static_cast<uint64_t>(E.StateBits));
    R.metric("macro_gates", static_cast<uint64_t>(E.MacroGates));
    R.metric("two_input_gates", static_cast<uint64_t>(E.TwoInputEquivGates));
    return R;
  };
  return S;
}

} // namespace

void registerAllExperiments() {
  static bool Registered = false;
  if (Registered)
    return;
  Registered = true;

  registerAccuracyExperiments();
  registerSampleExperiments();
  registerPgoExperiments();

  ExperimentRegistry &R = ExperimentRegistry::instance();
  R.add("fig02",
        "Figure 2: fixed vs variable sampling-cost decomposition on the "
        "microbenchmark",
        makeFig02);
  R.add("fig12",
        "Figure 12: framework overhead on the application analogues "
        "(timing simulation)",
        makeFig12);
  R.add("fig13",
        "Figure 13: microbenchmark overhead vs sampling interval, eight "
        "framework arms",
        makeFig13);
  R.add("fig14",
        "Figure 14: average added cycles per sampling site, plus the "
        "full-instrumentation reference",
        makeFig14);
  R.add("ablation",
        "Section 3.3 ablation: pipeline integration, counter placement, "
        "oracle prediction",
        makeAblation);
  R.add("kernels",
        "Section 1: framework overhead at period 1024 across the "
        "five-kernel suite",
        makeKernels);
  R.add("micro_baseline",
        "Section 5.3: the microbenchmark's baseline IPC, prediction "
        "accuracy, cache hits and fetch use",
        makeMicroBaseline);
  R.add("mispredict_split",
        "Section 5.2: framework-check vs program-branch mispredictions, "
        "across predictors",
        makeMispredictSplit);
  R.add("hw_cost",
        "Section 3.3: state bits and gate counts of the brr unit by "
        "configuration",
        makeHwCost);
}

} // namespace exp
} // namespace bor
