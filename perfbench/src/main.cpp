//===- perfbench/src/main.cpp - The repository benchmark driver -----------===//
//
// Part of the branch-on-random reproduction benchmark.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one workload: the set-up step several times (setup_s is their
/// median), then the timed grid repeatedly for --seconds, then an untimed
/// cross-check. Every repetition's records are digested and compared with
/// the stored reference for this seed (reference.json) or, for a seed
/// without one, with the first repetition; engine instruction counts are
/// compared with the set-up step's reference counts. A cell that differs,
/// throws or is missing counts as failed.
///
/// With --trace 0 it prints the end-to-end metrics, with --trace 1 the
/// per-layer ones (alternating traced and untraced repetitions, so the
/// tracing overhead is measured too). The last line of standard output is
/// one JSON object: {"correct", "attempted", "failed", "metrics"}.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "exp/Json.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

using namespace perfbench;
using bor::exp::jsonNumber;

namespace {

struct Options {
  WorkloadOptions W;
  double Seconds = 10;
  bool Trace = false;
  std::string Reference; ///< reference digests (JSON); "" = none
  std::string EmitReference; ///< write this run's digests here
};

[[noreturn]] void usage(const char *Msg) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload NAME --work-dir DIR [--seed N] "
               "[--seconds S] [--trace 0|1]\n"
               "                 [--scale N] [--json-dir DIR] "
               "[--reference FILE] [--emit-reference FILE]\n",
               Msg);
  std::exit(2);
}

uint64_t parseU64(const char *Flag, const char *V) {
  char *End = nullptr;
  unsigned long long N = std::strtoull(V, &End, 10);
  if (!*V || *End)
    usage((std::string(Flag) + " needs a whole number").c_str());
  return N;
}

Options parseArgs(int Argc, char **Argv) {
  Options O;
  for (int I = 1; I < Argc; ++I) {
    const char *Flag = Argv[I];
    if (I + 1 >= Argc)
      usage((std::string(Flag) + " needs a value").c_str());
    const char *V = Argv[++I];
    if (!std::strcmp(Flag, "--workload"))
      O.W.Name = V;
    else if (!std::strcmp(Flag, "--seed"))
      O.W.Seed = parseU64(Flag, V);
    else if (!std::strcmp(Flag, "--seconds"))
      O.Seconds = static_cast<double>(parseU64(Flag, V));
    else if (!std::strcmp(Flag, "--trace"))
      O.Trace = parseU64(Flag, V) != 0;
    else if (!std::strcmp(Flag, "--scale"))
      O.W.Scale = parseU64(Flag, V);
    else if (!std::strcmp(Flag, "--work-dir"))
      O.W.WorkDir = V;
    else if (!std::strcmp(Flag, "--json-dir"))
      O.W.JsonDir = V;
    else if (!std::strcmp(Flag, "--reference"))
      O.Reference = V;
    else if (!std::strcmp(Flag, "--emit-reference"))
      O.EmitReference = V;
    else
      usage((std::string("unknown flag ") + Flag).c_str());
  }
  if (O.W.Name.empty() || O.W.WorkDir.empty())
    usage("--workload and --work-dir are required");
  if (O.W.JsonDir.empty())
    O.W.JsonDir = O.W.WorkDir + "/json";
  return O;
}

/// The stored digests and work total for this workload, scale and seed.
struct Reference {
  std::vector<std::string> Digests;
  uint64_t Work = 0;
};

/// Loads reference.json's entry [workload][scale][seed], if there is one.
bool loadReference(const Options &O, uint64_t Scale, Reference &Ref) {
  if (O.Reference.empty())
    return false;
  std::ifstream In(O.Reference);
  if (!In) {
    std::fprintf(stderr, "perfbench: cannot read %s\n", O.Reference.c_str());
    std::exit(1);
  }
  std::stringstream Buf;
  Buf << In.rdbuf();
  bor::exp::JsonValue Root;
  std::string Err;
  if (!bor::exp::jsonParse(Buf.str(), Root, Err)) {
    std::fprintf(stderr, "perfbench: %s: %s\n", O.Reference.c_str(),
                 Err.c_str());
    std::exit(1);
  }
  const bor::exp::JsonValue *E = Root.find(O.W.Name);
  if (E)
    E = E->find(std::to_string(Scale));
  if (E)
    E = E->find(std::to_string(O.W.Seed));
  if (!E)
    return false;
  const bor::exp::JsonValue *Cells = E->find("cells");
  const bor::exp::JsonValue *Work = E->find("work");
  if (!Cells || !Cells->isArray() || !Work || !Work->isNumber()) {
    std::fprintf(stderr, "perfbench: malformed reference entry\n");
    std::exit(1);
  }
  for (const bor::exp::JsonValue &C : Cells->Elems)
    Ref.Digests.push_back(C.Str);
  Ref.Work = static_cast<uint64_t>(Work->Num);
  return true;
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

/// Linear-interpolated quantile of \p V (sorted in place).
double quantile(std::vector<double> &V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (Pos - static_cast<double>(Lo)) * (V[Hi] - V[Lo]);
}

double cpuSeconds() {
  rusage U;
  getrusage(RUSAGE_SELF, &U);
  auto S = [](const timeval &T) {
    return static_cast<double>(T.tv_sec) + 1e-6 * static_cast<double>(T.tv_usec);
  };
  return S(U.ru_utime) + S(U.ru_stime);
}

double peakRssMb() {
  rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0;
}

double ratio(double A, double B) { return B > 0 ? A / B : 0.0; }

/// Named metrics in print order.
struct MetricList {
  struct Entry {
    std::string Name;
    double Value;
    std::string Unit;
    std::string Note;
  };
  std::vector<Entry> Entries;
  void add(std::string Name, double Value, std::string Unit,
           std::string Note = "") {
    Entries.push_back({std::move(Name), Value, std::move(Unit),
                       std::move(Note)});
  }
};

/// The per-layer figures of one traced repetition.
MetricList layerMetrics(const LayerTotals &T, const TraceExtras &X) {
  MetricList L;
  auto Rate = [](double Insts, double Ms) { return ratio(Insts, Ms) / 1e3; };
  L.add("workloads.build_ms", T.ms(Layer::Build), "ms");
  L.add("workloads.build_calls", T.calls(Layer::Build), "count");
  L.add("sim.decode_ms", T.ms(Layer::Decode), "ms");
  L.add("sim.decode_insts", T.work(Layer::Decode), "count");
  double Ff = static_cast<double>(X.FfExecuted);
  L.add("sim.ff_insts", Ff, "count");
  L.add("sim.ff_ms", T.FfMs, "ms");
  L.add("sim.ff_minst_per_s", Rate(Ff, T.FfMs), "Minst/s");
  L.add("sample.warm_insts", T.WarmInsts, "count");
  L.add("sample.warm_ms", T.WarmMs, "ms");
  L.add("sample.warm_minst_per_s", Rate(T.WarmInsts, T.WarmMs), "Minst/s");
  L.add("sample.intervals", T.Intervals, "count");
  double Full = static_cast<double>(T.work(Layer::FullRun));
  L.add("uarch.full_insts", Full, "count");
  L.add("uarch.full_ms", T.ms(Layer::FullRun), "ms");
  L.add("uarch.full_minst_per_s", Rate(Full, T.ms(Layer::FullRun)),
        "Minst/s");
  L.add("uarch.measure_insts", T.MeasureInsts, "count");
  L.add("uarch.measure_ms", T.MeasureMs, "ms");
  L.add("uarch.measure_minst_per_s", Rate(T.MeasureInsts, T.MeasureMs),
        "Minst/s");
  L.add("ckpt.load_ms", T.ms(Layer::CkptLoad), "ms");
  L.add("ckpt.libraries", X.Libraries, "count");
  L.add("ckpt.resumes", X.Resumes, "count");
  L.add("ckpt.resume_ms", X.ResumeMs, "ms");
  L.add("ckpt.resume_hit_frac", ratio(X.Resumes, T.Intervals), "fraction");
  L.add("ckpt.pages_shared", X.PagesShared, "count");
  L.add("ckpt.pages_copied", X.PagesCopied, "count");
  L.add("ckpt.cow_copy_frac", ratio(X.PagesCopied, X.PagesShared),
        "fraction");
  double Inv = static_cast<double>(T.work(Layer::Accuracy));
  L.add("profile.invocations", Inv, "count");
  L.add("profile.accuracy_ms", T.ms(Layer::Accuracy), "ms");
  L.add("profile.minv_per_s", Rate(Inv, T.ms(Layer::Accuracy)), "Minv/s");
  L.add("exp.setup_ms", T.ms(Layer::ExpSetup), "ms");
  L.add("exp.cell_ms", T.ms(Layer::Cell), "ms");
  L.add("exp.grid_ms", T.ms(Layer::Grid), "ms");
  L.add("exp.sink_ms", T.ms(Layer::Sink), "ms");
  L.add("exp.busy_frac",
        ratio(T.ms(Layer::Cell), Threads * T.ms(Layer::Grid)), "fraction");
  double Layers = T.ms(Layer::Build) + T.ms(Layer::Decode) +
                  T.ms(Layer::FullRun) + T.ms(Layer::SampledRun) +
                  T.ms(Layer::CkptLoad) + T.ms(Layer::Accuracy);
  L.add("coverage.layer_frac", ratio(Layers, T.ms(Layer::Cell)), "fraction");
  L.add("coverage.phase_frac",
        ratio(T.FfMs + T.WarmMs + T.MeasureMs, T.ms(Layer::SampledRun)),
        "fraction");
  return L;
}

void printMetrics(const MetricList &L, bool Correct, uint64_t Attempted,
                  uint64_t Failed) {
  for (const MetricList::Entry &E : L.Entries)
    std::printf("%-28s %14.6g %s%s\n", E.Name.c_str(), E.Value,
                E.Unit.c_str(), E.Note.c_str());
  std::string Metrics = "{";
  for (const MetricList::Entry &E : L.Entries) {
    if (Metrics.size() > 1)
      Metrics += ", ";
    Metrics += "\"" + E.Name + "\": {\"value\": " + jsonNumber(E.Value) +
               ", \"unit\": \"" + E.Unit + "\"}";
  }
  Metrics += "}";
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(Attempted),
              static_cast<unsigned long long>(Failed), Metrics.c_str());
}

} // namespace

int main(int Argc, char **Argv) {
  Options O = parseArgs(Argc, Argv);
  std::unique_ptr<Workload> W = makeWorkload(O.W);
  if (!W)
    usage(("unknown workload " + O.W.Name).c_str());
  std::error_code Ec;
  std::filesystem::create_directories(O.W.JsonDir, Ec);

  // --- Set-up: at least five times, and until two seconds have been
  // spent on it.
  std::vector<double> SetupS;
  std::vector<LayerTotals> SetupTotals;
  std::string SetupError;
  double SetupSum = 0;
  while (SetupS.size() < 5 || (SetupSum < 2.0 && SetupS.size() < 40)) {
    LayerTrace T;
    Clock::time_point Start = Clock::now();
    std::string E = W->setup(O.Trace ? &T : nullptr);
    double S = msSince(Start) / 1000.0;
    if (!E.empty())
      SetupError = E;
    SetupS.push_back(S);
    SetupSum += S;
    SetupTotals.push_back(T.totals());
  }

  // --- Timed repetitions.
  Reference Ref;
  bool HaveRef = loadReference(O, W->scale(), Ref);
  std::vector<std::string> Expected = Ref.Digests;
  uint64_t Attempted = 0, Failed = 0;
  std::vector<double> Wall, TracedWall, Cpu, CellP50, CellP85;
  size_t CellSamples = 0;
  std::vector<MetricList> Layers;
  std::vector<std::string> LastDigests;
  uint64_t Work = 0;
  Clock::time_point Start = Clock::now();
  for (size_t Rep = 0;; ++Rep) {
    bool Traced = O.Trace && Rep % 2 == 1;
    LayerTrace T;
    double Cpu0 = cpuSeconds();
    GridRun G = W->runGrid(Traced ? &T : nullptr);
    double CpuS = cpuSeconds() - Cpu0;

    if (HaveRef && G.Work != Ref.Work && G.Error.empty())
      G.Error = "work total " + std::to_string(G.Work) + " differs from " +
                std::to_string(Ref.Work);
    if (Expected.empty())
      Expected = G.Digests;
    size_t N = Expected.size();
    size_t Bad = G.BadCells;
    for (size_t I = 0; I != N; ++I)
      Bad += I >= G.Digests.size() || G.Digests[I] != Expected[I];
    if (!G.Error.empty()) {
      std::fprintf(stderr, "perfbench: %s\n", G.Error.c_str());
      Bad = N;
    }
    Attempted += N;
    Failed += std::min(Bad, N);
    Work = G.Work;
    LastDigests = G.Digests;

    if (Traced) {
      TracedWall.push_back(G.WallS);
      Layers.push_back(layerMetrics(T.totals(), W->traceExtras()));
    } else {
      Wall.push_back(G.WallS);
      Cpu.push_back(CpuS);
      CellP50.push_back(quantile(G.CellMs, 0.50));
      CellP85.push_back(quantile(G.CellMs, 0.85));
      CellSamples += G.CellMs.size();
    }
    double Elapsed = msSince(Start) / 1000.0;
    if (Elapsed >= O.Seconds && Rep + 1 >= (O.Trace ? 2u : 1u))
      break;
  }

  std::fprintf(stderr, "perfbench: grid wall per repetition (s):");
  for (double S : Wall)
    std::fprintf(stderr, " %.3f", S);
  std::fprintf(stderr, "\n");

  // --- Untimed cross-check.
  Attempted += LastDigests.size();
  Failed += W->verify(LastDigests);

  bool Correct = Failed == 0 && SetupError.empty();
  if (!SetupError.empty())
    std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                 SetupError.c_str());

  if (!O.EmitReference.empty()) {
    std::ofstream Out(O.EmitReference);
    Out << "{\"workload\": \"" << O.W.Name << "\", \"scale\": " << W->scale()
        << ", \"seed\": " << O.W.Seed << ", \"work\": " << Work
        << ", \"cells\": [";
    for (size_t I = 0; I != LastDigests.size(); ++I)
      Out << (I ? ", " : "") << "\"" << LastDigests[I] << "\"";
    Out << "]}\n";
  }

  std::printf("workload %s, seed %llu, scale %llu, %zu untimed + %zu traced "
              "repetitions, reference %s\n",
              O.W.Name.c_str(), static_cast<unsigned long long>(O.W.Seed),
              static_cast<unsigned long long>(W->scale()), Wall.size(),
              TracedWall.size(), HaveRef ? "stored" : "first repetition");
  std::printf("%-28s %14.6g fraction (%llu of %llu cells)\n",
              "cells_failed_frac", ratio(Failed, Attempted),
              static_cast<unsigned long long>(Failed),
              static_cast<unsigned long long>(Attempted));

  MetricList Out;
  if (!O.Trace) {
    // Every timing is the median over the repetitions; the cell latency
    // quantiles are taken within each repetition's grid first.
    double WallS = median(Wall);
    std::string Samples = " (n=" + std::to_string(CellSamples) + " cells, " +
                          std::to_string(Wall.size()) + " grids)";
    // One throughput metric for every workload: the fixed work over the
    // grid's wall-clock, named by kind of work on the line above it.
    double Throughput = ratio(Work, WallS) / 1e6;
    std::printf("%-28s %14.6g %s\n",
                W->timing() ? "sim_minst_per_s" : "minv_per_s", Throughput,
                W->timing() ? "Minst/s" : "Minv/s");
    Out.add("wall_s", WallS, "s");
    Out.add("cpu_s", median(Cpu), "s");
    Out.add("throughput_m_per_s", Throughput, "M/s",
            W->timing() ? " simulated instructions" : " invocations");
    Out.add("cell_ms_p50", median(CellP50), "ms", Samples);
    Out.add("cell_ms_p85", median(CellP85), "ms", Samples);
    Out.add("peak_rss_mb", peakRssMb(), "MB");
    Out.add("setup_s", median(SetupS), "s",
            " (n=" + std::to_string(SetupS.size()) + ")");
  } else {
    // Median of every per-layer figure over the traced repetitions.
    Out = Layers.front();
    for (size_t I = 0; I != Out.Entries.size(); ++I) {
      std::vector<double> V;
      for (const MetricList &L : Layers)
        V.push_back(L.Entries[I].Value);
      Out.Entries[I].Value = median(V);
    }
    std::vector<double> Build, Stream;
    for (const LayerTotals &T : SetupTotals) {
      Build.push_back(T.ms(Layer::CkptBuild));
      Stream.push_back(T.ms(Layer::Stream));
    }
    Out.add("ckpt.build_ms", median(Build), "ms");
    Out.add("profile.stream_ms", median(Stream), "ms");
    Out.add("trace.overhead_s", median(TracedWall) - median(Wall), "s");

    // Coverage: the layer spans must explain the cell time, and the
    // sampled runner's phase timers the time around it. Checked at the
    // workloads' own sizes only: at a --scale override small enough for
    // a stream to fit in one sampling period, per-run fixed costs
    // outside the phase timers dominate.
    auto Value = [&Out](const std::string &Name) {
      for (const MetricList::Entry &E : Out.Entries)
        if (E.Name == Name)
          return E.Value;
      return 0.0;
    };
    bool CheckCoverage = O.W.Scale == 0;
    if (CheckCoverage && W->timing() && Value("coverage.layer_frac") < 0.9) {
      std::fprintf(stderr, "perfbench: layer spans cover only %.3f of the "
                           "cell time\n",
                   Value("coverage.layer_frac"));
      Correct = false;
    }
    if (CheckCoverage && Value("sample.intervals") > 0 &&
        Value("coverage.phase_frac") < 0.9) {
      std::fprintf(stderr, "perfbench: sampled phase timers cover only %.3f "
                           "of the sampled-run time\n",
                   Value("coverage.phase_frac"));
      Correct = false;
    }
  }
  printMetrics(Out, Correct, Attempted, Failed);
  return 0;
}
