//===- perfbench/src/Workloads.cpp - The benchmark's workloads ------------===//
//
// Part of the branch-on-random reproduction benchmark.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "ckpt/LibraryPool.h"
#include "exp/Harness.h"
#include "exp/Json.h"
#include "exp/ResultSink.h"
#include "exp/Runner.h"
#include "profile/TraceGen.h"
#include "sim/Interpreter.h"
#include "support/Rng.h"
#include "telemetry/Counters.h"
#include "workloads/Microbench.h"

#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <exception>
#include <filesystem>

namespace perfbench {

using namespace bor;
using exp::ExperimentSpec;
using exp::ParamSet;
using exp::RunRecord;

namespace {

//===----------------------------------------------------------------------===//
// Record digests and sinks
//===----------------------------------------------------------------------===//

/// FNV-1a over the record's parameters and every metric except the
/// wall-clock *_ms ones, as 16 hex digits.
std::string digestOf(const RunRecord &R) {
  exp::JsonObjectWriter P, M;
  for (const auto &KV : R.Params)
    P.field(KV.first, KV.second);
  for (const auto &[Key, V] : R.Metrics) {
    if (Key.size() >= 3 && Key.compare(Key.size() - 3, 3, "_ms") == 0)
      continue;
    switch (V.K) {
    case exp::Metric::Kind::UInt:
      M.fieldRaw(Key, exp::jsonNumber(V.U));
      break;
    case exp::Metric::Kind::Real:
      M.fieldRaw(Key, exp::jsonNumber(V.D));
      break;
    case exp::Metric::Kind::Text:
      M.field(Key, V.S);
      break;
    }
  }
  uint64_t H = 0xcbf29ce484222325ULL;
  for (char C : P.finish() + M.finish())
    H = (H ^ static_cast<uint8_t>(C)) * 0x100000001b3ULL;
  char Hex[17];
  std::snprintf(Hex, sizeof(Hex), "%016" PRIx64, H);
  return Hex;
}

/// Digests every record the runner emits, summaries included.
class DigestSink : public exp::ResultSink {
public:
  void record(const RunRecord &R, bool) override {
    Digests.push_back(digestOf(R));
  }
  std::vector<std::string> Digests;
};

/// Forwards to the JSON-lines sink, timing each call (exp.sink_ms).
class TimedSink : public exp::ResultSink {
public:
  TimedSink(exp::ResultSink &Inner, LayerTrace *T) : Inner(Inner), T(T) {}
  void begin(const ExperimentSpec &S) override {
    Span Sp(T, Layer::Sink);
    Inner.begin(S);
    Sp.done();
  }
  void record(const RunRecord &R, bool IsSummary) override {
    Span Sp(T, Layer::Sink);
    Inner.record(R, IsSummary);
    Sp.done();
  }
  void end() override {
    Span Sp(T, Layer::Sink);
    Inner.end();
    Sp.done();
  }

private:
  exp::ResultSink &Inner;
  LayerTrace *T;
};

/// Per-spec cell timings, shared with the wrapped functors.
struct CellTimes {
  double SetupMs = 0;
  std::vector<double> CellMs;
  std::atomic<size_t> Threw{0};
};

/// Runs \p Specs back to back on the library's runner, timing the grid,
/// each cell and the Setup stage, and digesting every record. With \p
/// JsonDir set each spec's records also go through the JSON-lines sink
/// into JsonDir/<name>.jsonl, as bor-bench --json writes them.
GridRun runSpecs(std::vector<ExperimentSpec> Specs,
                 const std::string &JsonDir, LayerTrace *T) {
  std::vector<std::shared_ptr<CellTimes>> Times;
  for (ExperimentSpec &S : Specs) {
    auto Tm = std::make_shared<CellTimes>();
    Tm->CellMs.assign(S.Cells.size(), 0.0);
    if (S.Setup)
      S.Setup = [Inner = std::move(S.Setup), Tm, T] {
        Span Sp(T, Layer::ExpSetup);
        Clock::time_point Start = Clock::now();
        try {
          Inner();
        } catch (const std::exception &E) {
          std::fprintf(stderr, "perfbench: setup stage threw: %s\n",
                       E.what());
          ++Tm->Threw;
        }
        Tm->SetupMs = msSince(Start);
        Sp.done();
        if (T)
          T->add(Layer::Cell, Tm->SetupMs, 0);
      };
    S.Run = [Inner = std::move(S.Run), Tm, T](const ParamSet &Cell,
                                              size_t I) {
      Clock::time_point Start = Clock::now();
      RunRecord R;
      try {
        R = Inner(Cell, I);
      } catch (const std::exception &E) {
        std::fprintf(stderr, "perfbench: cell %zu threw: %s\n", I, E.what());
        ++Tm->Threw;
        R = RunRecord();
        R.Params = Cell;
        R.metric("cell_status", std::string("threw"));
      }
      Tm->CellMs[I] = msSince(Start);
      if (T)
        T->add(Layer::Cell, Tm->CellMs[I], 0);
      return R;
    };
    Times.push_back(Tm);
  }

  GridRun G;
  DigestSink Digests;
  Clock::time_point Start = Clock::now();
  for (const ExperimentSpec &S : Specs) {
    std::vector<exp::ResultSink *> Sinks = {&Digests};
    std::unique_ptr<exp::JsonLinesSink> Json;
    std::unique_ptr<TimedSink> Timed;
    if (!JsonDir.empty()) {
      Json = exp::JsonLinesSink::open(JsonDir + "/" + S.Name + ".jsonl");
      if (!Json) {
        G.Error = "cannot open the JSON-lines sink";
        return G;
      }
      Timed = std::make_unique<TimedSink>(*Json, T);
      Sinks.push_back(Timed.get());
    }
    Span Sp(T, Layer::Grid);
    exp::runExperiment(S, Threads, Sinks);
    Sp.done();
  }
  G.WallS = msSince(Start) / 1000.0;
  G.Digests = std::move(Digests.Digests);
  for (size_t I = 0; I != Specs.size(); ++I) {
    if (Specs[I].Setup)
      G.CellMs.push_back(Times[I]->SetupMs);
    G.CellMs.insert(G.CellMs.end(), Times[I]->CellMs.begin(),
                    Times[I]->CellMs.end());
    G.BadCells += Times[I]->Threw;
  }
  return G;
}

/// The seed-0 value \p Base, or a value derived from it and \p Seed.
uint64_t mixSeed(uint64_t Base, uint64_t Seed) {
  if (Seed == 0)
    return Base;
  SplitMix64 G(Base ^ (Seed * 0x9e3779b97f4a7c15ULL));
  return G.next();
}

uint64_t counterValue(const telemetry::CounterSnapshot &S,
                      const std::string &Name) {
  for (const auto &[N, V] : S.Counters)
    if (N == Name)
      return V;
  return 0;
}

//===----------------------------------------------------------------------===//
// Figure 13 workloads
//===----------------------------------------------------------------------===//

enum class Mode { Full, Sampled, Ckpt };

/// The eight Figure 13 framework arms, in the registered experiment's
/// order.
struct Arm {
  const char *Name;
  SamplingFramework F;
  DuplicationMode Dup;
  bool Body;
};

constexpr Arm Fig13Arms[] = {
    {"cbs+inst (no-dup)", SamplingFramework::CounterBased,
     DuplicationMode::NoDuplication, true},
    {"cbs (no-dup)", SamplingFramework::CounterBased,
     DuplicationMode::NoDuplication, false},
    {"cbs+inst (full-dup)", SamplingFramework::CounterBased,
     DuplicationMode::FullDuplication, true},
    {"cbs (full-dup)", SamplingFramework::CounterBased,
     DuplicationMode::FullDuplication, false},
    {"brr+inst (no-dup)", SamplingFramework::BrrBased,
     DuplicationMode::NoDuplication, true},
    {"brr (no-dup)", SamplingFramework::BrrBased,
     DuplicationMode::NoDuplication, false},
    {"brr+inst (full-dup)", SamplingFramework::BrrBased,
     DuplicationMode::FullDuplication, true},
    {"brr (full-dup)", SamplingFramework::BrrBased,
     DuplicationMode::FullDuplication, false},
};
constexpr size_t NumArms = sizeof(Fig13Arms) / sizeof(Fig13Arms[0]);

double overheadPct(uint64_t Cycles, uint64_t Base) {
  return 100.0 * (static_cast<double>(Cycles) - static_cast<double>(Base)) /
         static_cast<double>(Base);
}

/// The timed-run metrics every fig13 record carries (as the registered
/// experiment writes them).
void addPipelineMetrics(RunRecord &R, const exp::MicroRun &Run) {
  R.metric("roi_cycles", Run.RoiCycles);
  R.metric("cycles", Run.Stats.Cycles);
  R.metric("ipc", Run.Stats.ipc(), 2);
  R.metric("frontend_flush_cycles", Run.Stats.FrontendFlushCycles);
  R.metric("backend_flush_cycles", Run.Stats.BackendFlushCycles);
  R.metric("icache_stall_cycles", Run.Stats.FetchIcacheStallCycles);
  if (Run.Sampled) {
    R.metric("sample_intervals", Run.SampleIntervals);
    R.metric("ipc_ci95", Run.IpcCi95, 4);
    R.metric("ff_ms", Run.FfMs, 1);
    R.metric("warm_ms", Run.WarmMs, 1);
    R.metric("measure_ms", Run.MeasureMs, 1);
  }
}

/// A sampled run's measured-window counters scaled up to the full stream,
/// as the harness reports them.
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

class Fig13Workload : public Workload {
public:
  Fig13Workload(const WorkloadOptions &O, Mode M)
      : O(O), M(M), Intervals(exp::figureIntervals()),
        CacheDir(O.WorkDir + "/ckpt") {
    Scale = O.Scale ? O.Scale : (M == Mode::Full ? 40 : 4);
    size_t C = exp::FigureChars / Scale;
    Chars = C < 2000 ? 2000 : C;
    TextSeed = mixSeed(TextConfig().Seed, O.Seed);
  }

  bool timing() const override { return true; }

  std::string setup(LayerTrace *T) override;
  GridRun runGrid(LayerTrace *T) override;
  size_t verify(const std::vector<std::string> &Digests) override;
  TraceExtras traceExtras() override;

private:
  using Libraries =
      std::vector<std::shared_ptr<const ckpt::CheckpointLibrary>>;

  /// Programs per grid: the Setup baseline plus one per cell.
  size_t numCells() const { return 1 + NumArms * Intervals.size(); }

  /// Program 0 is the uninstrumented Setup baseline; program 1 + I is grid
  /// cell I (arm-major, as the registered grid orders them).
  MicrobenchProgram build(size_t Program, LayerTrace *T) const;

  /// One microbenchmark run, as exp::runMicrobench performs it, with a
  /// span around every layer call. \p Insts receives the instructions the
  /// engine retired (the whole stream in sampled modes).
  exp::MicroRun runCell(size_t Program, Mode Md, LayerTrace *T,
                        ckpt::LibraryPool *Pool, Libraries *Loaded,
                        uint64_t &Insts) const;

  /// The Figure 13 grid in mode \p Md; each program's retired
  /// instructions land in \p Insts.
  ExperimentSpec spec(Mode Md, LayerTrace *T, ckpt::LibraryPool *Pool,
                      Libraries *Loaded,
                      std::shared_ptr<std::vector<uint64_t>> Insts) const;

  /// Runs one spec over every program on the runner (the set-up grids).
  template <typename Fn> void forEachProgram(Fn F) const;

  const WorkloadOptions O;
  const Mode M;
  const std::vector<uint64_t> Intervals;
  const std::string CacheDir;
  size_t Chars = 0;
  uint64_t TextSeed = 0;
  SamplingPlan Plan;

  /// Per-program instruction totals from the set-up step (the functional
  /// interpreter, or the checkpoint library's build pass).
  std::vector<uint64_t> RefInsts;

  /// The last traced grid's libraries and counters, for traceExtras().
  Libraries LastLibraries;
  TraceExtras Extras;
};

MicrobenchProgram Fig13Workload::build(size_t Program, LayerTrace *T) const {
  MicrobenchConfig C;
  C.Text.NumChars = Chars;
  C.Text.Seed = TextSeed;
  if (Program != 0) {
    const Arm &A = Fig13Arms[(Program - 1) / Intervals.size()];
    uint64_t Interval = Intervals[(Program - 1) % Intervals.size()];
    C.Instr = exp::microConfig(A.F, A.Dup, Interval, A.Body);
  }
  Span Sp(T, Layer::Build);
  MicrobenchProgram MB = buildMicrobench(C);
  Sp.done();
  return MB;
}

exp::MicroRun Fig13Workload::runCell(size_t Program, Mode Md, LayerTrace *T,
                                     ckpt::LibraryPool *Pool,
                                     Libraries *Loaded,
                                     uint64_t &Insts) const {
  MicrobenchProgram MB = build(Program, T);
  exp::MicroRun Run;
  Run.DynamicSiteVisits = MB.DynamicSiteVisits;

  Span DecodeSpan(T, Layer::Decode);
  DecodedProgram Dec(MB.Prog);
  DecodeSpan.done(Dec.numInsts());

  const PipelineConfig Config;
  if (Md != Mode::Full) {
    SampledResult SR;
    if (Md == Mode::Ckpt) {
      Span Load(T, Layer::CkptLoad);
      std::shared_ptr<const ckpt::CheckpointLibrary> Lib =
          Pool->getOrBuild(Dec, Config.Brr, Plan.PeriodInsts);
      Load.done();
      if (Loaded)
        (*Loaded)[Program] = Lib;
      Span Sp(T, Layer::SampledRun);
      SR = runSampledFromLibrary(Dec, *Lib, Plan, Config);
      Sp.done(SR.TotalInsts);
    } else {
      Span Sp(T, Layer::SampledRun);
      SR = runSampled(Dec, Plan, Config);
      Sp.done(SR.TotalInsts);
    }
    if (T)
      T->update([&SR](LayerTotals &L) {
        L.FfMs += SR.FastForwardMs;
        L.WarmMs += SR.WarmMs;
        L.MeasureMs += SR.MeasureMs;
        L.FfInsts += SR.FastForwardInsts;
        L.WarmInsts += SR.WarmedInsts;
        L.MeasureInsts += SR.PrerollInsts + SR.MeasuredInsts;
        L.Intervals += SR.NumIntervals;
      });
    Insts = SR.TotalInsts;
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
    // Stream too short for one interval: a full run, as the harness does.
  }

  Span Sp(T, Layer::FullRun);
  RunResult Result;
  {
    Pipeline Pipe(Dec, Config);
    Result = Pipe.run(1ULL << 40);
  }
  Sp.done(Result.Stats.Insts);
  Insts = Result.Stats.Insts;
  Run.Stats = Result.Stats;
  if (Result.Markers.size() == 2)
    Run.RoiCycles = Result.roiCycles();
  return Run;
}

ExperimentSpec
Fig13Workload::spec(Mode Md, LayerTrace *T, ckpt::LibraryPool *Pool,
                    Libraries *Loaded,
                    std::shared_ptr<std::vector<uint64_t>> Insts) const {
  ExperimentSpec S;
  S.Name = "fig13";
  S.Title = "Figure 13 - microbenchmark overhead vs sampling interval";
  auto Base = std::make_shared<uint64_t>(0);
  S.Setup = [this, Base, Md, T, Pool, Loaded, Insts] {
    *Base = runCell(0, Md, T, Pool, Loaded, (*Insts)[0]).RoiCycles;
  };
  for (const Arm &A : Fig13Arms)
    for (uint64_t Interval : Intervals)
      S.Cells.push_back(
          {{"series", A.Name}, {"interval", std::to_string(Interval)}});
  S.Run = [this, Base, Md, T, Pool, Loaded, Insts](const ParamSet &,
                                                   size_t Index) {
    const Arm &A = Fig13Arms[Index / Intervals.size()];
    uint64_t Interval = Intervals[Index % Intervals.size()];
    exp::MicroRun Run =
        runCell(1 + Index, Md, T, Pool, Loaded, (*Insts)[1 + Index]);
    RunRecord R;
    R.param("series", A.Name);
    R.param("interval", std::to_string(Interval));
    R.metric("overhead_pct", overheadPct(Run.RoiCycles, *Base), 1);
    addPipelineMetrics(R, Run);
    return R;
  };
  S.Summarize = [Base, Chars = Chars](const std::vector<RunRecord> &) {
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

template <typename Fn> void Fig13Workload::forEachProgram(Fn F) const {
  ExperimentSpec S;
  S.Name = "setup";
  S.Cells.resize(numCells());
  S.Run = [&F](const ParamSet &, size_t Program) {
    F(Program);
    return RunRecord();
  };
  exp::runExperiment(S, Threads, {});
}

std::string Fig13Workload::setup(LayerTrace *T) {
  RefInsts.assign(numCells(), 0);
  if (M != Mode::Ckpt) {
    // The reference instruction count of every program, from the
    // functional interpreter: the grid's engines must retire exactly as
    // many.
    forEachProgram([this](size_t Program) {
      MicrobenchProgram MB = build(Program, nullptr);
      DecodedProgram Dec(MB.Prog);
      Machine Mach;
      BrrUnitDecider Decider(PipelineConfig().Brr);
      Interpreter Fn(Dec, Mach, Decider);
      RefInsts[Program] = Fn.run(~0ULL).Insts;
    });
    return "";
  }

  // Cold checkpoint-library build into an empty on-disk cache.
  std::error_code Ec;
  std::filesystem::remove_all(CacheDir, Ec);
  ckpt::LibraryPool Pool(CacheDir);
  forEachProgram([this, T, &Pool](size_t Program) {
    MicrobenchProgram MB = build(Program, nullptr);
    DecodedProgram Dec(MB.Prog);
    Span Sp(T, Layer::CkptBuild);
    std::shared_ptr<const ckpt::CheckpointLibrary> Lib =
        Pool.getOrBuild(Dec, PipelineConfig().Brr, Plan.PeriodInsts);
    Sp.done(Lib->totalInsts());
    RefInsts[Program] = Lib->totalInsts();
  });
  if (Pool.numLibraries() != numCells())
    return "checkpoint library set-up built " +
           std::to_string(Pool.numLibraries()) + " libraries, expected " +
           std::to_string(numCells());
  return "";
}

GridRun Fig13Workload::runGrid(LayerTrace *T) {
  auto Insts = std::make_shared<std::vector<uint64_t>>(numCells(), 0);
  GridRun G;
  if (M != Mode::Ckpt) {
    G = runSpecs({spec(M, T, nullptr, nullptr, Insts)}, O.JsonDir, T);
    if (T)
      Extras.FfExecuted = T->totals().FfInsts;
  } else {
    // A fresh pool per repetition: every library comes from the on-disk
    // cache the set-up step wrote, and none may be rebuilt.
    telemetry::CounterRegistry &Counters =
        telemetry::CounterRegistry::instance();
    Counters.reset();
    ckpt::LibraryPool Pool(CacheDir);
    Libraries Loaded(numCells());
    G = runSpecs({spec(M, T, &Pool, T ? &Loaded : nullptr, Insts)},
                 O.JsonDir, T);
    telemetry::CounterSnapshot S = Counters.snapshot();
    uint64_t Built = counterValue(S, "ckpt.libraries.built");
    uint64_t LoadedLibs = counterValue(S, "ckpt.libraries.loaded");
    uint64_t Ff = counterValue(S, "sample.insts.fast_forward");
    if (Built != 0 || LoadedLibs != numCells() || Ff != 0)
      G.Error = "checkpoint grid built " + std::to_string(Built) +
                " and loaded " + std::to_string(LoadedLibs) +
                " libraries and executed " + std::to_string(Ff) +
                " fast-forward instructions; expected 0, " +
                std::to_string(numCells()) + " and 0";
    if (T) {
      Extras.Libraries = Pool.numLibraries();
      Extras.Resumes = counterValue(S, "ckpt.resumes");
      Extras.PagesShared = counterValue(S, "ckpt.pages.shared");
      Extras.PagesCopied = counterValue(S, "ckpt.pages.copied");
      Extras.FfExecuted = Ff;
      LastLibraries = std::move(Loaded);
    }
  }
  for (size_t I = 0; I != numCells(); ++I) {
    G.Work += (*Insts)[I];
    if ((*Insts)[I] != RefInsts[I])
      ++G.BadCells;
  }
  return G;
}

size_t Fig13Workload::verify(const std::vector<std::string> &Digests) {
  if (M != Mode::Ckpt)
    return 0;
  // Resumed runs must be field-identical to plain sampling.
  auto Insts = std::make_shared<std::vector<uint64_t>>(numCells(), 0);
  GridRun Plain = runSpecs(
      {spec(Mode::Sampled, nullptr, nullptr, nullptr, Insts)}, "", nullptr);
  if (Plain.Digests.size() != Digests.size())
    return Digests.size();
  size_t Bad = 0;
  for (size_t I = 0; I != Digests.size(); ++I)
    Bad += Plain.Digests[I] != Digests[I];
  return Bad;
}

TraceExtras Fig13Workload::traceExtras() {
  if (M != Mode::Ckpt)
    return Extras;
  // Resumes happen inside runSampledFromLibrary, so the benchmark times
  // them by replaying every non-initial checkpoint of the last traced
  // grid's libraries through CheckpointLibrary::resume, then scales the
  // replay to the number of resumes the grid made.
  uint64_t Replayed = 0;
  Clock::time_point Start = Clock::now();
  for (const auto &Lib : LastLibraries) {
    if (!Lib)
      continue;
    Machine Mach;
    BrrUnitDecider Decider(PipelineConfig().Brr);
    std::string Error;
    for (size_t I = 1; I < Lib->numCheckpoints(); ++I) {
      Lib->resume(Lib->checkpoints()[I], Mach, Decider, Error);
      ++Replayed;
    }
  }
  double Ms = msSince(Start);
  Extras.ResumeMs = Replayed ? Ms * static_cast<double>(Extras.Resumes) /
                                   static_cast<double>(Replayed)
                             : 0.0;
  return Extras;
}

//===----------------------------------------------------------------------===//
// Accuracy workload
//===----------------------------------------------------------------------===//

/// The master seed of the registered Figure 9/10 brr seed sweep.
constexpr uint64_t FigureBrrSeed = 0x2c9277b5;

class AccuracyWorkload : public Workload {
public:
  explicit AccuracyWorkload(const WorkloadOptions &O) : O(O) {
    Scale = O.Scale ? O.Scale : 16;
    Models = dacapoAnalogues(5 * Scale);
    for (BenchmarkModel &Model : Models)
      Model.Seed = mixSeed(Model.Seed, O.Seed);
  }

  bool timing() const override { return false; }

  std::string setup(LayerTrace *T) override;
  GridRun runGrid(LayerTrace *T) override;

private:
  /// The Figure 9 (interval 2^10) or Figure 10 (2^13) grid.
  ExperimentSpec spec(const char *Name, uint64_t Interval, LayerTrace *T,
                      std::shared_ptr<std::atomic<size_t>> OutOfRange) const;

  const WorkloadOptions O;
  std::vector<BenchmarkModel> Models;
};

std::string AccuracyWorkload::setup(LayerTrace *T) {
  // Drain every model's invocation stream once: each must yield exactly
  // its invocation count, all within its method universe.
  std::atomic<size_t> Bad{0};
  ExperimentSpec S;
  S.Name = "setup";
  S.Cells.resize(Models.size());
  S.Run = [this, T, &Bad](const ParamSet &, size_t I) {
    const BenchmarkModel &Model = Models[I];
    Span Sp(T, Layer::Stream);
    InvocationStream Stream(Model);
    uint64_t Count = 0;
    bool InRange = true;
    while (!Stream.done()) {
      InRange &= Stream.next() < Model.NumMethods;
      ++Count;
    }
    Sp.done(Count);
    if (Count != Model.Invocations || !InRange)
      ++Bad;
    return RunRecord();
  };
  exp::runExperiment(S, Threads, {});
  return Bad ? std::to_string(Bad.load()) + " invocation streams are malformed"
             : "";
}

ExperimentSpec
AccuracyWorkload::spec(const char *Name, uint64_t Interval, LayerTrace *T,
                       std::shared_ptr<std::atomic<size_t>> OutOfRange) const {
  ExperimentSpec S;
  S.Name = Name;
  S.Title = std::string(Name) + " - sampling accuracy";
  for (const BenchmarkModel &Model : Models)
    S.Cells.push_back({{"benchmark", Model.Name},
                       {"invocations", std::to_string(Model.Invocations)}});
  S.Run = [this, Interval, T, OutOfRange](const ParamSet &, size_t Index) {
    const BenchmarkModel &Model = Models[Index];
    Span Sp(T, Layer::Accuracy);
    exp::AccuracyRow Row = exp::runAccuracy(Model, Interval, FigureBrrSeed);
    Sp.done(Model.Invocations);
    for (double Pct : {Row.SwCount, Row.HwCount, Row.Random})
      if (!(Pct >= 0.0 && Pct <= 100.0))
        ++*OutOfRange;
    RunRecord R;
    R.param("benchmark", Model.Name);
    R.metric("invocations", static_cast<uint64_t>(Model.Invocations));
    R.metric("sw_count", Row.SwCount, 2);
    R.metric("hw_count", Row.HwCount, 2);
    R.metric("random_mean", Row.Random, 2);
    R.metric("seed_spread", Row.RandomSpread, 2);
    return R;
  };
  S.Summarize = [](const std::vector<RunRecord> &Cells) {
    double Sw = 0, Hw = 0, Rand = 0;
    for (const RunRecord &R : Cells) {
      Sw += R.findMetric("sw_count")->D;
      Hw += R.findMetric("hw_count")->D;
      Rand += R.findMetric("random_mean")->D;
    }
    double N = static_cast<double>(Cells.size());
    RunRecord Avg;
    Avg.param("benchmark", "average");
    Avg.metric("sw_count", Sw / N, 2);
    Avg.metric("hw_count", Hw / N, 2);
    Avg.metric("random_mean", Rand / N, 2);
    return std::vector<RunRecord>{Avg};
  };
  return S;
}

GridRun AccuracyWorkload::runGrid(LayerTrace *T) {
  auto OutOfRange = std::make_shared<std::atomic<size_t>>(0);
  GridRun G = runSpecs({spec("fig09", 1024, T, OutOfRange),
                        spec("fig10", 8192, T, OutOfRange)},
                       O.JsonDir, T);
  for (const BenchmarkModel &Model : Models)
    G.Work += 2 * Model.Invocations;
  G.BadCells += *OutOfRange;
  return G;
}

} // namespace

std::unique_ptr<Workload> makeWorkload(const WorkloadOptions &O) {
  if (O.Name == "fig13_full")
    return std::make_unique<Fig13Workload>(O, Mode::Full);
  if (O.Name == "fig13_sampled")
    return std::make_unique<Fig13Workload>(O, Mode::Sampled);
  if (O.Name == "fig13_ckpt_warm") {
    // The checkpoint-resume checks read the library's counters.
    telemetry::CounterRegistry::setEnabled(true);
    return std::make_unique<Fig13Workload>(O, Mode::Ckpt);
  }
  if (O.Name == "accuracy")
    return std::make_unique<AccuracyWorkload>(O);
  return nullptr;
}

} // namespace perfbench
