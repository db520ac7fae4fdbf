//===- tools/bor-report.cpp - Perf-regression report ----------------------===//
//
// Part of the branch-on-random reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Compares two bor-bench runs — run dirs written by --run-dir, or bare
/// committed baselines like bench/BENCH_fig13.json — and prints a Markdown
/// report of every significant metric change. Exit status is the verdict:
///
///   0  clean (no regressions, no structural differences)
///   1  regressions or structural differences found
///   2  usage or I/O error
///
/// See docs/REPORTING.md for the workflow.
///
//===----------------------------------------------------------------------===//

#include "exp/Manifest.h"
#include "exp/Report.h"
#include "support/ParseNum.h"
#include "support/Path.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

using namespace bor;
using namespace bor::exp;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: bor-report BASELINE CANDIDATE [options]\n"
      "\n"
      "  BASELINE/CANDIDATE   a --run-dir directory, a manifest.json, or a\n"
      "                       bare JSON-lines results file (BENCH_*.json)\n"
      "\n"
      "options:\n"
      "  --threshold-pct N    significance gate in percent (default 2)\n"
      "  --threshold NAME=N   per-metric override of --threshold-pct\n"
      "  --out PATH           also write the Markdown report to PATH\n"
      "  --max-rows N         cap the metric-change table (default 50)\n");
  return 2;
}

/// Accepts "--flag value" and "--flag=value"; advances \p I for the
/// two-token form. Returns nullptr when \p Arg is not \p Flag.
const char *flagValue(const char *Flag, char **Argv, int Argc, int &I) {
  const char *A = Argv[I];
  size_t N = std::strlen(Flag);
  if (std::strncmp(A, Flag, N) != 0)
    return nullptr;
  if (A[N] == '=')
    return A + N + 1;
  if (A[N] != '\0')
    return nullptr;
  if (I + 1 >= Argc) {
    std::fprintf(stderr, "bor-report: %s needs a value\n", Flag);
    std::exit(2);
  }
  return Argv[++I];
}

bool parseDouble(const char *Text, double &Out) {
  char *End = nullptr;
  Out = std::strtod(Text, &End);
  return End != Text && *End == '\0';
}

} // namespace

int main(int Argc, char **Argv) {
  std::vector<std::string> Paths;
  ReportOptions Opt;
  std::string OutPath;

  for (int I = 1; I < Argc; ++I) {
    const char *A = Argv[I];
    if (const char *V = flagValue("--threshold-pct", Argv, Argc, I)) {
      if (!parseDouble(V, Opt.ThresholdPct) || Opt.ThresholdPct < 0) {
        std::fprintf(stderr, "bor-report: bad --threshold-pct '%s'\n", V);
        return 2;
      }
    } else if (const char *V = flagValue("--threshold", Argv, Argc, I)) {
      const char *Eq = std::strchr(V, '=');
      double Pct = 0;
      if (!Eq || Eq == V || !parseDouble(Eq + 1, Pct) || Pct < 0) {
        std::fprintf(stderr,
                     "bor-report: --threshold wants NAME=PCT, got '%s'\n", V);
        return 2;
      }
      Opt.MetricThresholds.emplace_back(std::string(V, Eq - V), Pct);
    } else if (const char *V = flagValue("--out", Argv, Argc, I)) {
      OutPath = V;
    } else if (const char *V = flagValue("--max-rows", Argv, Argc, I)) {
      Opt.MaxRows = parseU64Flag("bor-report", "--max-rows", V);
    } else if (A[0] == '-') {
      std::fprintf(stderr, "bor-report: unknown flag '%s'\n", A);
      return usage();
    } else {
      Paths.push_back(A);
    }
  }
  if (Paths.size() != 2)
    return usage();

  LoadedRun Base, Cand;
  std::string Err;
  if (!loadRun(Paths[0], Base, Err)) {
    std::fprintf(stderr, "bor-report: baseline: %s\n", Err.c_str());
    return 2;
  }
  if (!loadRun(Paths[1], Cand, Err)) {
    std::fprintf(stderr, "bor-report: candidate: %s\n", Err.c_str());
    return 2;
  }

  ReportResult Result = compareRuns(Base, Cand, Opt);
  std::fputs(Result.Markdown.c_str(), stdout);

  if (!OutPath.empty()) {
    if (!ensureParentDirs(OutPath, Err)) {
      std::fprintf(stderr, "bor-report: %s\n", Err.c_str());
      return 2;
    }
    std::FILE *F = std::fopen(OutPath.c_str(), "w");
    if (!F) {
      std::fprintf(stderr, "bor-report: cannot open '%s' for writing\n",
                   OutPath.c_str());
      return 2;
    }
    bool Ok = std::fputs(Result.Markdown.c_str(), F) >= 0;
    Ok = std::fclose(F) == 0 && Ok;
    if (!Ok) {
      std::fprintf(stderr, "bor-report: error writing '%s'\n",
                   OutPath.c_str());
      return 2;
    }
  }
  return Result.clean() ? 0 : 1;
}
