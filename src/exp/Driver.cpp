//===- exp/Driver.cpp - Command-line driver for registered experiments ---===//
//
// Part of the branch-on-random reproduction library.
//
//===----------------------------------------------------------------------===//

#include "exp/Driver.h"

#include "ckpt/LibraryPool.h"
#include "exp/Experiments.h"
#include "exp/Manifest.h"
#include "exp/Runner.h"
#include "exp/ThreadPool.h"
#include "support/ParseNum.h"
#include "support/Path.h"
#include "telemetry/CounterInfo.h"
#include "telemetry/Counters.h"
#include "telemetry/Telemetry.h"
#include "telemetry/TimeSeries.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

namespace bor {
namespace exp {

namespace {

struct DriverOptions {
  bool List = false;
  bool All = false;
  std::vector<std::string> Experiments;
  unsigned Threads = ThreadPool::defaultThreads();
  uint64_t Scale = 1;
  std::string JsonPath; ///< empty = default BENCH_<name>.json
  bool Json = true;
  bool TableOut = true;
  bool Sample = false;
  SamplingPlan Plan;
  std::string TracePath;      ///< --trace: Chrome trace-event JSON output
  std::string FlamegraphPath; ///< --flamegraph: collapsed-stack summary
  bool Counters = false;      ///< --counters: render the snapshot to stdout
  std::string CountersOut;    ///< --counters-out: write the snapshot here
  bool CkptLibrary = false;   ///< --ckpt-library: COW-library fast-forward
  std::string CkptDir;        ///< --ckpt-dir: persist libraries here
  unsigned CkptRegions = 0;   ///< --ckpt-regions: BBV representative phases
  std::string RunDir;         ///< --run-dir: write a self-describing manifest
  std::string Progress;       ///< --progress: auto|off|text|jsonl
  double CellTimeoutS = 0;    ///< --cell-timeout: per-cell wall-clock budget
  bool ListCounters = false;  ///< --list-counters: print the description table
  bool UpdateBaselines = false; ///< --update-baselines: refresh bench/ JSON
  std::string BaselineDir = "bench"; ///< --baseline-dir: where baselines live
};

/// Exit status of a run that completed with cells explicitly missing
/// (timed out) — degraded, not failed.
constexpr int PartialResultExit = 3;

/// Accepts both "--flag value" and "--flag=value". Returns nullptr when
/// \p Arg does not start with \p Flag; advances \p I past a detached
/// value.
const char *flagValue(const char *Flag, char **Argv, int Argc, int &I) {
  const char *A = Argv[I];
  size_t Len = std::strlen(Flag);
  if (std::strncmp(A, Flag, Len) != 0)
    return nullptr;
  if (A[Len] == '=')
    return A + Len + 1;
  if (A[Len] == '\0' && I + 1 < Argc)
    return Argv[++I];
  return nullptr;
}

/// Strict non-negative double parse: the whole string must be a number.
/// Returns false (leaving \p Out untouched) on empty input, trailing
/// garbage, overflow or a negative value.
bool parseF64(const char *V, double &Out) {
  if (!V || *V == '\0')
    return false;
  errno = 0;
  char *End = nullptr;
  double Parsed = std::strtod(V, &End);
  if (errno == ERANGE || End == V || *End != '\0' || Parsed < 0)
    return false;
  Out = Parsed;
  return true;
}

/// Shared flags of bor-bench and the per-figure wrappers. Returns false
/// when \p A is not recognized; a recognized flag with a bad value prints
/// a diagnostic and exits non-zero rather than running with defaults.
bool parseCommon(const char *A, char **Argv, int Argc, int &I,
                 DriverOptions &Opt) {
  if (const char *V = flagValue("--threads", Argv, Argc, I)) {
    uint64_t N = 0;
    if (!parseU64(V, N) || N == 0 || N > 4096) {
      std::fprintf(stderr,
                   "bor-bench: --threads needs a whole number >= 1, got "
                   "'%s'\n",
                   V);
      std::exit(2);
    }
    Opt.Threads = static_cast<unsigned>(N);
    return true;
  }
  if (const char *V = flagValue("--scale", Argv, Argc, I)) {
    uint64_t N = 0;
    if (!parseU64(V, N) || N == 0) {
      std::fprintf(stderr,
                   "bor-bench: --scale needs a whole number >= 1, got "
                   "'%s'\n",
                   V);
      std::exit(2);
    }
    Opt.Scale = N;
    return true;
  }
  if (const char *V = flagValue("--json", Argv, Argc, I)) {
    Opt.JsonPath = V;
    return true;
  }
  if (std::strcmp(A, "--no-json") == 0) {
    Opt.Json = false;
    return true;
  }
  if (std::strcmp(A, "--no-table") == 0) {
    Opt.TableOut = false;
    return true;
  }
  if (std::strcmp(A, "--sample") == 0) {
    Opt.Sample = true;
    return true;
  }
  if (const char *V = flagValue("--sample-period", Argv, Argc, I)) {
    if (!parseU64(V, Opt.Plan.PeriodInsts) || Opt.Plan.PeriodInsts == 0) {
      std::fprintf(stderr,
                   "bor-bench: --sample-period needs a whole number >= 1, "
                   "got '%s'\n",
                   V);
      std::exit(2);
    }
    Opt.Sample = true;
    return true;
  }
  if (const char *V = flagValue("--sample-warm", Argv, Argc, I)) {
    if (!parseU64(V, Opt.Plan.WarmupInsts)) {
      std::fprintf(stderr,
                   "bor-bench: --sample-warm needs a whole number, got "
                   "'%s'\n",
                   V);
      std::exit(2);
    }
    Opt.Sample = true;
    return true;
  }
  if (const char *V = flagValue("--sample-measure", Argv, Argc, I)) {
    if (!parseU64(V, Opt.Plan.MeasureInsts) || Opt.Plan.MeasureInsts == 0) {
      std::fprintf(stderr,
                   "bor-bench: --sample-measure needs a whole number >= 1, "
                   "got '%s'\n",
                   V);
      std::exit(2);
    }
    Opt.Sample = true;
    return true;
  }
  if (std::strcmp(A, "--ckpt-library") == 0) {
    Opt.CkptLibrary = true;
    return true;
  }
  if (const char *V = flagValue("--ckpt-dir", Argv, Argc, I)) {
    if (*V == '\0') {
      std::fprintf(stderr, "bor-bench: --ckpt-dir needs a directory path\n");
      std::exit(2);
    }
    Opt.CkptDir = V;
    Opt.CkptLibrary = true;
    return true;
  }
  if (const char *V = flagValue("--ckpt-regions", Argv, Argc, I)) {
    uint64_t N = 0;
    if (!parseU64(V, N) || N == 0 || N > 1u << 20) {
      std::fprintf(stderr,
                   "bor-bench: --ckpt-regions needs a whole number >= 1, "
                   "got '%s'\n",
                   V);
      std::exit(2);
    }
    Opt.CkptRegions = static_cast<unsigned>(N);
    Opt.CkptLibrary = true;
    return true;
  }
  if (const char *V = flagValue("--trace", Argv, Argc, I)) {
    Opt.TracePath = V;
    return true;
  }
  if (const char *V = flagValue("--flamegraph", Argv, Argc, I)) {
    Opt.FlamegraphPath = V;
    return true;
  }
  if (std::strcmp(A, "--counters") == 0) {
    Opt.Counters = true;
    return true;
  }
  if (const char *V = flagValue("--counters-out", Argv, Argc, I)) {
    Opt.CountersOut = V;
    return true;
  }
  if (const char *V = flagValue("--run-dir", Argv, Argc, I)) {
    if (*V == '\0') {
      std::fprintf(stderr, "bor-bench: --run-dir needs a directory path\n");
      std::exit(2);
    }
    Opt.RunDir = V;
    return true;
  }
  if (const char *V = flagValue("--progress", Argv, Argc, I)) {
    if (std::strcmp(V, "auto") != 0 && std::strcmp(V, "off") != 0 &&
        std::strcmp(V, "text") != 0 && std::strcmp(V, "jsonl") != 0) {
      std::fprintf(stderr,
                   "bor-bench: --progress must be auto, off, text or "
                   "jsonl, got '%s'\n",
                   V);
      std::exit(2);
    }
    Opt.Progress = V;
    return true;
  }
  if (const char *V = flagValue("--cell-timeout", Argv, Argc, I)) {
    if (!parseF64(V, Opt.CellTimeoutS) || Opt.CellTimeoutS <= 0) {
      std::fprintf(stderr,
                   "bor-bench: --cell-timeout needs seconds > 0, got "
                   "'%s'\n",
                   V);
      std::exit(2);
    }
    return true;
  }
  if (std::strcmp(A, "--update-baselines") == 0) {
    Opt.UpdateBaselines = true;
    return true;
  }
  if (const char *V = flagValue("--baseline-dir", Argv, Argc, I)) {
    if (*V == '\0') {
      std::fprintf(stderr,
                   "bor-bench: --baseline-dir needs a directory path\n");
      std::exit(2);
    }
    Opt.BaselineDir = V;
    Opt.UpdateBaselines = true;
    return true;
  }
  return false;
}

/// Resolves the progress mode: the --progress flag wins; otherwise the
/// BOR_HEARTBEAT environment knob ("json" selects the machine-readable
/// stream, any other non-zero value the human line, 0/empty forces off);
/// otherwise text only when a human is watching stderr.
ProgressMode progressMode(const DriverOptions &Opt) {
  auto Auto = [] {
    return isatty(fileno(stderr)) != 0 ? ProgressMode::Text
                                       : ProgressMode::Off;
  };
  if (!Opt.Progress.empty()) {
    if (Opt.Progress == "off")
      return ProgressMode::Off;
    if (Opt.Progress == "text")
      return ProgressMode::Text;
    if (Opt.Progress == "jsonl")
      return ProgressMode::Jsonl;
    return Auto(); // "auto"
  }
  if (const char *Env = std::getenv("BOR_HEARTBEAT")) {
    if (std::strcmp(Env, "json") == 0 || std::strcmp(Env, "jsonl") == 0)
      return ProgressMode::Jsonl;
    return Env[0] != '\0' && Env[0] != '0' ? ProgressMode::Text
                                           : ProgressMode::Off;
  }
  return Auto();
}

/// Writes \p Text to \p Path atomically (temp file + rename), creating
/// missing parent directories; a failure names the path on stderr.
/// Returns 0 on success.
int writeOutputFile(const std::string &Path, const std::string &Text) {
  std::string Err;
  if (!writeFileAtomic(Path, Text, Err)) {
    std::fprintf(stderr, "bor-bench: %s\n", Err.c_str());
    return 1;
  }
  return 0;
}

/// Finalizes telemetry once every requested experiment has run: the trace
/// file, the counter snapshot to stdout and/or a file, and the run dir's
/// counters.json / timeseries.json / manifest.json. Returns 0 on success.
int writeTelemetryOutputs(const DriverOptions &Opt,
                          telemetry::TraceWriter *Trace,
                          telemetry::TimeSeries *Series,
                          ManifestInfo *Manifest) {
  if (Trace && !Opt.TracePath.empty()) {
    std::string Err;
    if (!Trace->writeTo(Opt.TracePath, Err)) {
      std::fprintf(stderr, "bor-bench: --trace: %s\n", Err.c_str());
      return 1;
    }
  }
  if (Trace && !Opt.FlamegraphPath.empty())
    if (int RC = writeOutputFile(Opt.FlamegraphPath,
                                 Trace->foldToCollapsedStacks()))
      return RC;

  if (Opt.Counters || !Opt.CountersOut.empty()) {
    std::string Rendered =
        telemetry::CounterRegistry::instance().snapshot().render();
    if (Opt.Counters)
      std::fputs(Rendered.c_str(), stdout);
    if (!Opt.CountersOut.empty())
      if (int RC = writeOutputFile(Opt.CountersOut, Rendered))
        return RC;
  }

  if (Opt.RunDir.empty())
    return 0;

  // The run manifest: counters.json always (the run forced counting on),
  // timeseries.json when any sampled run recorded, manifest.json last so
  // a complete manifest implies complete files.
  Manifest->CountersFile = "counters.json";
  if (int RC = writeOutputFile(
          joinPath(Opt.RunDir, Manifest->CountersFile),
          telemetry::CounterRegistry::instance().snapshot().renderJson()))
    return RC;
  if (Series && Series->numSeries() != 0) {
    Manifest->TimeSeriesFile = "timeseries.json";
    std::string Err;
    if (!Series->writeTo(joinPath(Opt.RunDir, Manifest->TimeSeriesFile),
                         Err)) {
      std::fprintf(stderr, "bor-bench: %s\n", Err.c_str());
      return 1;
    }
  }
  Manifest->TraceFile = Opt.TracePath;
  std::string Err;
  if (!writeManifest(Opt.RunDir, *Manifest, Err)) {
    std::fprintf(stderr, "bor-bench: %s\n", Err.c_str());
    return 1;
  }
  return 0;
}

/// Validates the assembled sampling plan once flags are parsed.
int checkPlan(const DriverOptions &Opt) {
  if (Opt.CkptLibrary && !Opt.Sample) {
    std::fprintf(stderr,
                 "bor-bench: --ckpt-library/--ckpt-dir/--ckpt-regions only "
                 "apply to sampled runs; add --sample\n");
    return 2;
  }
  if (!Opt.Sample || Opt.Plan.valid())
    return 0;
  std::fprintf(stderr,
               "bor-bench: invalid sampling plan: warm (%llu) + measure "
               "(%llu) + pre-roll (%llu) must fit in the period (%llu)\n",
               static_cast<unsigned long long>(Opt.Plan.WarmupInsts),
               static_cast<unsigned long long>(Opt.Plan.MeasureInsts),
               static_cast<unsigned long long>(Opt.Plan.DetailedWarmupInsts),
               static_cast<unsigned long long>(Opt.Plan.PeriodInsts));
  return 2;
}

void printRegisteredExperiments(std::FILE *Out) {
  for (const auto &[Name, Description] :
       ExperimentRegistry::instance().list())
    std::fprintf(Out, "  %-12s %s\n", Name.c_str(), Description.c_str());
}

/// Where one experiment's JSON-lines results go: the run dir, the
/// baseline dir, an explicit --json path, or the default BENCH file.
std::string jsonPathFor(const std::string &Name, const DriverOptions &Opt) {
  if (!Opt.RunDir.empty())
    return joinPath(Opt.RunDir, Name + ".json");
  if (Opt.UpdateBaselines)
    return joinPath(Opt.BaselineDir, "BENCH_" + Name + ".json");
  return Opt.JsonPath.empty() ? "BENCH_" + Name + ".json" : Opt.JsonPath;
}

/// Runs one registered experiment with the configured sinks. Returns 0 on
/// success; a partial grid is reported through \p Partial, not the return
/// code, so later experiments still run. \p Manifest (optional) records
/// the experiment, its result file, and degradation counts.
int runOne(const std::string &Name, const DriverOptions &Opt,
           const telemetry::TelemetrySink *Telemetry,
           ckpt::LibraryPool *CkptPool, ManifestInfo *Manifest,
           bool &Partial) {
  ExperimentRegistry &Registry = ExperimentRegistry::instance();
  if (!Registry.contains(Name)) {
    std::fprintf(stderr,
                 "unknown experiment '%s'; registered experiments:\n",
                 Name.c_str());
    printRegisteredExperiments(stderr);
    return 2;
  }

  ExperimentOptions ExpOpt;
  ExpOpt.Scale = Opt.Scale;
  ExpOpt.Sample = Opt.Sample;
  ExpOpt.Plan = Opt.Plan;
  ExpOpt.Telemetry = Telemetry;
  ExpOpt.CkptPool = CkptPool;
  ExpOpt.CkptRegions = Opt.CkptRegions;
  ExperimentSpec Spec = Registry.create(Name, ExpOpt);

  std::vector<ResultSink *> Sinks;
  TableSink Table(stdout);
  if (Opt.TableOut)
    Sinks.push_back(&Table);
  std::unique_ptr<JsonLinesSink> Json;
  if (Opt.Json) {
    std::string Path = jsonPathFor(Name, Opt);
    Json = JsonLinesSink::open(Path);
    if (!Json)
      return 1;
    Sinks.push_back(Json.get());
    if (Manifest)
      Manifest->ResultFiles.emplace_back(Name, Name + ".json");
  }
  if (Manifest)
    Manifest->Experiments.push_back(Name);

  RunnerHooks Hooks;
  Hooks.Telemetry = Telemetry;
  Hooks.Progress = progressMode(Opt);
  Hooks.CellTimeoutS = Opt.CellTimeoutS;
  telemetry::TraceSpan Span(Telemetry ? Telemetry->Trace : nullptr, Name,
                            "experiment");
  GridResult Grid = runExperiment(Spec, Opt.Threads, Sinks, Hooks);
  if (Grid.partial()) {
    Partial = true;
    if (Manifest)
      Manifest->CellsTimedOut += Grid.CellsTimedOut;
  }
  return 0;
}

/// Builds the sink the --trace/--counters flags ask for. The returned
/// writer is null when tracing is off; counters are switched on globally
/// (a run manifest always snapshots them).
std::unique_ptr<telemetry::TraceWriter>
setUpTelemetry(const DriverOptions &Opt) {
  if (Opt.Counters || !Opt.CountersOut.empty() || !Opt.RunDir.empty())
    telemetry::CounterRegistry::setEnabled(true);
  if (Opt.TracePath.empty() && Opt.FlamegraphPath.empty())
    return nullptr;
  return std::make_unique<telemetry::TraceWriter>();
}

/// Space-joined argv for the manifest's command field.
std::string commandLine(int Argc, char **Argv) {
  std::string Cmd;
  for (int I = 0; I < Argc; ++I) {
    if (I)
      Cmd += " ";
    Cmd += Argv[I];
  }
  return Cmd;
}

/// Flag-conflict checks shared by benchMain and the per-figure wrappers.
int checkOutputFlags(const DriverOptions &Opt) {
  if (!Opt.RunDir.empty() && Opt.UpdateBaselines) {
    std::fprintf(stderr,
                 "bor-bench: --run-dir and --update-baselines both redirect "
                 "the result JSON; pick one\n");
    return 2;
  }
  if (!Opt.JsonPath.empty() &&
      (!Opt.RunDir.empty() || Opt.UpdateBaselines)) {
    std::fprintf(stderr,
                 "bor-bench: --json PATH conflicts with "
                 "--run-dir/--update-baselines (they name the JSON file "
                 "themselves)\n");
    return 2;
  }
  if (!Opt.Json && (!Opt.RunDir.empty() || Opt.UpdateBaselines)) {
    std::fprintf(stderr,
                 "bor-bench: --no-json defeats --run-dir/--update-baselines "
                 "(nothing would be recorded)\n");
    return 2;
  }
  return 0;
}

/// One experiment loop shared by benchMain and the wrappers: telemetry
/// setup, the runs, and output finalization (including the run manifest).
int runAll(const std::vector<std::string> &Experiments,
           const DriverOptions &Opt, const std::string &Tool,
           const std::string &Command) {
  std::unique_ptr<telemetry::TraceWriter> Trace = setUpTelemetry(Opt);
  std::unique_ptr<telemetry::TimeSeries> Series;
  if (!Opt.RunDir.empty())
    Series = std::make_unique<telemetry::TimeSeries>();

  telemetry::TelemetrySink Sink;
  Sink.Trace = Trace.get();
  Sink.Series = Series.get();
  const telemetry::TelemetrySink *SinkPtr =
      Trace || Series ? &Sink : nullptr;

  ManifestInfo Manifest;
  Manifest.Tool = Tool;
  Manifest.Command = Command;
  Manifest.Scale = Opt.Scale;
  Manifest.Threads = Opt.Threads;
  Manifest.Sample = Opt.Sample;
  Manifest.Plan = Opt.Plan;
  Manifest.CkptLibrary = Opt.CkptLibrary;
  Manifest.CkptRegions = Opt.CkptRegions;

  // One pool for the whole invocation: experiments sharing a (program,
  // decider, period) key build its library exactly once.
  std::unique_ptr<ckpt::LibraryPool> Pool;
  if (Opt.CkptLibrary)
    Pool = std::make_unique<ckpt::LibraryPool>(Opt.CkptDir);

  bool Partial = false;
  for (size_t I = 0; I != Experiments.size(); ++I) {
    if (I)
      std::printf("\n");
    if (int RC = runOne(Experiments[I], Opt, SinkPtr, Pool.get(),
                        Opt.RunDir.empty() ? nullptr : &Manifest, Partial))
      return RC;
  }
  if (int RC =
          writeTelemetryOutputs(Opt, Trace.get(), Series.get(), &Manifest))
    return RC;
  return Partial ? PartialResultExit : 0;
}

} // namespace

int benchMain(int Argc, char **Argv) {
  registerAllExperiments();
  DriverOptions Opt;

  for (int I = 1; I < Argc; ++I) {
    const char *A = Argv[I];
    if (std::strcmp(A, "--list") == 0) {
      Opt.List = true;
    } else if (std::strcmp(A, "--list-counters") == 0) {
      Opt.ListCounters = true;
    } else if (std::strcmp(A, "--all") == 0) {
      Opt.All = true;
    } else if (const char *V = flagValue("--experiment", Argv, Argc, I)) {
      Opt.Experiments.push_back(V);
    } else if (!parseCommon(A, Argv, Argc, I, Opt)) {
      std::fprintf(stderr,
                   "usage: bor-bench --list | --list-counters\n"
                   "       bor-bench --experiment NAME [--threads N] "
                   "[--json PATH | --no-json]\n"
                   "                 [--no-table] [--scale N] [--sample]\n"
                   "                 [--sample-period N] [--sample-warm N] "
                   "[--sample-measure N]\n"
                   "                 [--ckpt-library] [--ckpt-dir DIR] "
                   "[--ckpt-regions N]\n"
                   "                 [--trace PATH] [--flamegraph PATH] "
                   "[--counters] [--counters-out PATH]\n"
                   "                 [--run-dir DIR] [--update-baselines] "
                   "[--baseline-dir DIR]\n"
                   "                 [--progress auto|off|text|jsonl] "
                   "[--cell-timeout SEC]\n"
                   "       bor-bench --all [same flags]\n"
                   "exit status: 0 ok, 3 completed with timed-out cells "
                   "(see docs/BENCHMARKING.md)\n");
      return 2;
    }
  }
  if (int RC = checkPlan(Opt))
    return RC;
  if (int RC = checkOutputFlags(Opt))
    return RC;

  ExperimentRegistry &Registry = ExperimentRegistry::instance();
  if (Opt.ListCounters) {
    std::fputs(telemetry::renderCounterList().c_str(), stdout);
    return 0;
  }
  if (Opt.List) {
    for (const auto &[Name, Description] : Registry.list())
      std::printf("%-12s %s\n", Name.c_str(), Description.c_str());
    return 0;
  }
  if (Opt.All) {
    for (const auto &[Name, Description] : Registry.list())
      Opt.Experiments.push_back(Name);
  }
  if (Opt.Experiments.empty()) {
    std::fprintf(stderr,
                 "bor-bench: nothing to do (--list, --experiment NAME or "
                 "--all)\n");
    return 2;
  }
  // An explicit --json path only makes sense for a single experiment.
  if (!Opt.JsonPath.empty() && Opt.Experiments.size() > 1) {
    std::fprintf(stderr,
                 "bor-bench: --json PATH with multiple experiments would "
                 "overwrite itself; drop it to get BENCH_<name>.json\n");
    return 2;
  }

  return runAll(Opt.Experiments, Opt, "bor-bench", commandLine(Argc, Argv));
}

int experimentMain(const char *Name, int Argc, char **Argv) {
  registerAllExperiments();
  DriverOptions Opt;
  for (int I = 1; I < Argc; ++I) {
    const char *A = Argv[I];
    if (!parseCommon(A, Argv, Argc, I, Opt)) {
      std::fprintf(stderr,
                   "usage: %s [--threads N] [--json PATH | --no-json] "
                   "[--no-table] [--scale N]\n"
                   "       [--sample] [--sample-period N] [--sample-warm N] "
                   "[--sample-measure N]\n"
                   "       [--ckpt-library] [--ckpt-dir DIR] "
                   "[--ckpt-regions N]\n"
                   "       [--trace PATH] [--flamegraph PATH] [--counters] "
                   "[--counters-out PATH]\n"
                   "       [--run-dir DIR] [--update-baselines] "
                   "[--baseline-dir DIR] [--progress MODE]\n",
                   Argv[0]);
      return 2;
    }
  }
  if (int RC = checkPlan(Opt))
    return RC;
  if (int RC = checkOutputFlags(Opt))
    return RC;
  return runAll({Name}, Opt, Name, commandLine(Argc, Argv));
}

} // namespace exp
} // namespace bor
