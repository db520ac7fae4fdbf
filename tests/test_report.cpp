//===- tests/test_report.cpp - Manifest, time-series and report tests -----===//
//
// Covers the observability pipeline behind bor-report: run-manifest
// round-trips, JSON-lines result loading, the per-interval TimeSeries
// sink's determinism contract, counter documentation coverage, histogram
// percentiles, path-creation helpers, and the CI-aware comparison rules
// (wall-clock exclusion, CI-overlap suppression, metric direction).
//
//===----------------------------------------------------------------------===//

#include "exp/Driver.h"
#include "exp/Json.h"
#include "exp/Manifest.h"
#include "exp/Report.h"
#include "support/Path.h"
#include "telemetry/CounterInfo.h"
#include "telemetry/Counters.h"
#include "telemetry/TimeSeries.h"

#include "Mutations.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace bor;
using namespace bor::exp;

namespace {

std::string tempPath(const std::string &Name) {
  return ::testing::TempDir() + Name;
}

bool writeFile(const std::string &Path, const std::string &Text) {
  std::string Err;
  if (!ensureParentDirs(Path, Err))
    return false;
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fputs(Text.c_str(), F);
  return std::fclose(F) == 0;
}

/// A minimal two-cell results stream in the JsonLinesSink format.
std::string sampleResults(double Ipc0, double Ci0 = 0.0) {
  std::string Ci = Ci0 != 0.0 ? ",\"ipc_ci95\":" + std::to_string(Ci0) : "";
  return
      "{\"experiment\":\"demo\",\"kind\":\"header\",\"title\":\"Demo\","
      "\"cells\":2}\n"
      "{\"experiment\":\"demo\",\"kind\":\"cell\",\"cell\":0,"
      "\"params\":{\"size\":\"small\"},\"metrics\":{\"ipc\":" +
      std::to_string(Ipc0) + Ci +
      ",\"roi_cycles\":1000,\"full_ms\":1.5}}\n"
      "{\"experiment\":\"demo\",\"kind\":\"cell\",\"cell\":1,"
      "\"params\":{\"size\":\"large\"},\"metrics\":{\"ipc\":2.0,"
      "\"roi_cycles\":4000,\"verdict\":\"PASS\"}}\n"
      "{\"experiment\":\"demo\",\"kind\":\"summary\","
      "\"params\":{},\"metrics\":{\"accuracy\":0.99}}\n";
}

LoadedRun loadFromText(const std::string &Text) {
  LoadedRun Run;
  Run.Source = "inline";
  std::string Err;
  EXPECT_TRUE(parseResultsJsonLines(Text, Run.Experiments, Err)) << Err;
  return Run;
}

} // namespace

//===----------------------------------------------------------------------===//
// support/Path
//===----------------------------------------------------------------------===//

TEST(Path, EnsureParentDirsCreatesChain) {
  std::string Path = tempPath("bor_path_test/a/b/c/file.txt");
  std::string Err;
  ASSERT_TRUE(ensureParentDirs(Path, Err)) << Err;
  ASSERT_TRUE(writeFile(Path, "x"));
  std::remove(Path.c_str());
}

TEST(Path, EnsureParentDirsNoParentIsNoOp) {
  std::string Err;
  EXPECT_TRUE(ensureParentDirs("bare-filename.txt", Err)) << Err;
}

TEST(Path, EnsureParentDirsFailsThroughNonDirectory) {
  std::string Err;
  EXPECT_FALSE(ensureParentDirs("/dev/null/sub/file.txt", Err));
  EXPECT_NE(Err.find("/dev/null"), std::string::npos) << Err;
}

TEST(Path, JoinPathSingleSeparator) {
  EXPECT_EQ(joinPath("a", "b"), "a/b");
  EXPECT_EQ(joinPath("a/", "b"), "a/b");
  EXPECT_EQ(joinPath("", "b"), "b");
}

//===----------------------------------------------------------------------===//
// Histogram percentiles
//===----------------------------------------------------------------------===//

TEST(Histogram, PercentilesFromLog2Buckets) {
  telemetry::CounterRegistry R;
  unsigned H = R.histogramId("h");
  // 90 zeros and 10 large values: p50 lands in the zero bucket, p99 in
  // the [64, 128) bucket.
  for (int I = 0; I != 90; ++I)
    R.observe(H, 0);
  for (int I = 0; I != 10; ++I)
    R.observe(H, 100);
  telemetry::CounterSnapshot Snap = R.snapshot();
  const auto &Hist = Snap.Histograms.at(0);
  EXPECT_EQ(Hist.percentile(0.50), 0u);
  EXPECT_EQ(Hist.percentile(0.90), 0u);
  EXPECT_EQ(Hist.percentile(0.99), 64u);
}

TEST(Histogram, RenderIncludesPercentiles) {
  telemetry::CounterRegistry R;
  unsigned H = R.histogramId("h");
  R.observe(H, 5);
  std::string Text = R.snapshot().render();
  EXPECT_NE(Text.find("p50"), std::string::npos) << Text;
  EXPECT_NE(Text.find("p99"), std::string::npos) << Text;
}

//===----------------------------------------------------------------------===//
// Counter documentation coverage
//===----------------------------------------------------------------------===//

TEST(CounterInfo, TableIsSortedAndNonEmpty) {
  const auto &All = telemetry::allCounterInfo();
  ASSERT_FALSE(All.empty());
  for (size_t I = 1; I < All.size(); ++I)
    EXPECT_LT(All[I - 1].Name, All[I].Name);
  for (const auto &Info : All)
    EXPECT_FALSE(Info.Description.empty()) << Info.Name;
}

TEST(CounterInfo, DescribeKnownAndUnknown) {
  EXPECT_FALSE(telemetry::describeCounter("exp.cells").empty());
  EXPECT_TRUE(telemetry::describeCounter("no.such.counter").empty());
}

TEST(CounterInfo, RenderListHasBothSections) {
  std::string Text = telemetry::renderCounterList();
  EXPECT_NE(Text.find("== counters =="), std::string::npos);
  EXPECT_NE(Text.find("== histograms =="), std::string::npos);
  EXPECT_NE(Text.find("exp.cells"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// TimeSeries
//===----------------------------------------------------------------------===//

TEST(TimeSeries, ScopeTagsAndRunIndices) {
  telemetry::TimeSeries TS;
  {
    telemetry::TimeSeries::Scope Tag("exp", 3);
    TS.record({{1.0, 0.1, 2.0, 10}});
    TS.record({{1.5, 0.2, 3.0, 20}}); // second run in the same cell
  }
  {
    telemetry::TimeSeries::Scope Tag("exp", 1);
    TS.record({{2.0, 0.0, 0.0, 0}});
  }
  EXPECT_EQ(TS.numSeries(), 3u);
  std::string Json = TS.renderJson();
  // Sorted by (experiment, cell, run): cell 1 first, then cell 3 run 0/1.
  size_t C1 = Json.find("\"cell\":1");
  size_t C3R0 = Json.find("\"cell\":3,\"run\":0");
  size_t C3R1 = Json.find("\"cell\":3,\"run\":1");
  ASSERT_NE(C1, std::string::npos) << Json;
  ASSERT_NE(C3R0, std::string::npos) << Json;
  ASSERT_NE(C3R1, std::string::npos) << Json;
  EXPECT_LT(C1, C3R0);
  EXPECT_LT(C3R0, C3R1);
}

TEST(TimeSeries, RenderIsArrivalOrderInvariant) {
  // The same tagged work recorded in opposite arrival orders (as thread
  // scheduling would reorder it) renders identically.
  telemetry::TimeSeries A, B;
  auto RecordCell = [](telemetry::TimeSeries &TS, int64_t Cell, double Ipc) {
    telemetry::TimeSeries::Scope Tag("exp", Cell);
    TS.record({{Ipc, 0.0, 0.0, 0}});
  };
  RecordCell(A, 0, 1.0);
  RecordCell(A, 1, 2.0);
  RecordCell(B, 1, 2.0);
  RecordCell(B, 0, 1.0);
  EXPECT_EQ(A.renderJson(), B.renderJson());
}

TEST(TimeSeries, ThreadedRecordingIsDeterministic) {
  telemetry::TimeSeries A, B;
  auto Work = [](telemetry::TimeSeries &TS) {
    std::vector<std::thread> Threads;
    for (int T = 0; T != 4; ++T)
      Threads.emplace_back([&TS, T] {
        for (int C = 0; C != 4; ++C) {
          telemetry::TimeSeries::Scope Tag("exp", T * 4 + C);
          TS.record({{double(T), 0.0, double(C), 7}});
        }
      });
    for (auto &Th : Threads)
      Th.join();
  };
  Work(A);
  Work(B);
  EXPECT_EQ(A.renderJson(), B.renderJson());
}

TEST(TimeSeries, NestedScopeRestoresOuterTag) {
  telemetry::TimeSeries TS;
  telemetry::TimeSeries::Scope Outer("outer", 0);
  TS.record({{1.0, 0.0, 0.0, 0}});
  {
    telemetry::TimeSeries::Scope Inner("inner", 5);
    TS.record({{2.0, 0.0, 0.0, 0}});
  }
  TS.record({{3.0, 0.0, 0.0, 0}}); // back under outer, run index 1
  std::string Json = TS.renderJson();
  EXPECT_NE(Json.find("\"experiment\":\"inner\",\"cell\":5,\"run\":0"),
            std::string::npos)
      << Json;
  EXPECT_NE(Json.find("\"experiment\":\"outer\",\"cell\":0,\"run\":1"),
            std::string::npos)
      << Json;
}

//===----------------------------------------------------------------------===//
// Results loading and manifest round-trip
//===----------------------------------------------------------------------===//

TEST(Manifest, ParsesResultsJsonLines) {
  LoadedRun Run = loadFromText(sampleResults(1.5));
  ASSERT_EQ(Run.Experiments.size(), 1u);
  const LoadedExperiment &E = Run.Experiments[0];
  EXPECT_EQ(E.Name, "demo");
  EXPECT_EQ(E.Title, "Demo");
  EXPECT_EQ(E.Cells, 2u);
  ASSERT_EQ(E.Records.size(), 3u);
  EXPECT_FALSE(E.Records[0].IsSummary);
  EXPECT_EQ(E.Records[0].paramKey(), "cell size=small");
  const LoadedMetric *Ipc = E.Records[0].findMetric("ipc");
  ASSERT_NE(Ipc, nullptr);
  EXPECT_DOUBLE_EQ(Ipc->Num, 1.5);
  const LoadedMetric *Verdict = E.Records[1].findMetric("verdict");
  ASSERT_NE(Verdict, nullptr);
  EXPECT_FALSE(Verdict->IsNumber);
  EXPECT_EQ(Verdict->Text, "PASS");
  EXPECT_TRUE(E.Records[2].IsSummary);
  EXPECT_EQ(E.Records[2].paramKey(), "summary");
}

TEST(Manifest, RejectsRecordWithoutHeader) {
  std::vector<LoadedExperiment> Out;
  std::string Err;
  EXPECT_FALSE(parseResultsJsonLines(
      "{\"experiment\":\"x\",\"kind\":\"cell\",\"cell\":0,"
      "\"params\":{},\"metrics\":{}}\n",
      Out, Err));
  EXPECT_NE(Err.find("line 1"), std::string::npos) << Err;
}

TEST(Manifest, RejectsMalformedJson) {
  std::vector<LoadedExperiment> Out;
  std::string Err;
  EXPECT_FALSE(parseResultsJsonLines("{oops\n", Out, Err));
  EXPECT_NE(Err.find("line 1"), std::string::npos) << Err;
}

TEST(Manifest, WriteAndLoadRoundTrip) {
  std::string Dir = tempPath("bor_manifest_rt");
  ASSERT_TRUE(writeFile(joinPath(Dir, "demo.json"), sampleResults(1.5)));

  ManifestInfo Info;
  Info.Command = "bor-bench --experiment demo";
  Info.Scale = 100;
  Info.Threads = 4;
  Info.Sample = true;
  Info.Experiments.push_back("demo");
  Info.ResultFiles.emplace_back("demo", "demo.json");
  std::string Err;
  ASSERT_TRUE(writeManifest(Dir, Info, Err)) << Err;

  LoadedRun Run;
  ASSERT_TRUE(loadRun(Dir, Run, Err)) << Err;
  EXPECT_TRUE(Run.HasManifest);
  EXPECT_EQ(Run.Command, "bor-bench --experiment demo");
  EXPECT_EQ(Run.Scale, 100u);
  EXPECT_EQ(Run.Threads, 4u);
  EXPECT_TRUE(Run.Sample);
  ASSERT_NE(Run.findExperiment("demo"), nullptr);
  EXPECT_EQ(Run.findExperiment("demo")->Records.size(), 3u);
}

TEST(Manifest, LoadsBareResultsFile) {
  std::string Path = tempPath("bor_bare_results.json");
  ASSERT_TRUE(writeFile(Path, sampleResults(1.5)));
  LoadedRun Run;
  std::string Err;
  ASSERT_TRUE(loadRun(Path, Run, Err)) << Err;
  EXPECT_FALSE(Run.HasManifest);
  ASSERT_EQ(Run.Experiments.size(), 1u);
  std::remove(Path.c_str());
}

TEST(Manifest, LoadRejectsMissingPath) {
  LoadedRun Run;
  std::string Err;
  EXPECT_FALSE(loadRun(tempPath("bor_no_such_run_dir_xyz"), Run, Err));
  EXPECT_FALSE(Err.empty());
}

TEST(Json, ToIntegerAcceptsExactlyTheWholeNumbersOfTheType) {
  int64_t I = 7;
  EXPECT_TRUE(jsonToInteger(-0x1p63, I));
  EXPECT_EQ(I, INT64_MIN);
  EXPECT_FALSE(jsonToInteger(0x1p63, I));
  EXPECT_FALSE(jsonToInteger(-1.0, I, int64_t{0}));
  EXPECT_TRUE(jsonToInteger(-1.0, I, int64_t{-1}));
  EXPECT_EQ(I, -1);
  EXPECT_FALSE(jsonToInteger(0.5, I));
  EXPECT_FALSE(jsonToInteger(std::nan(""), I));
  EXPECT_FALSE(jsonToInteger(-HUGE_VAL, I));
  EXPECT_EQ(I, -1);
  uint32_t U = 0;
  EXPECT_TRUE(jsonToInteger(4294967295.0, U));
  EXPECT_EQ(U, 4294967295u);
  EXPECT_FALSE(jsonToInteger(4294967296.0, U));
  EXPECT_FALSE(jsonToInteger(-0.5, U));
}

// The parser keeps numbers as doubles, so each of these parses; none is a
// valid index or count, and casting any of them would truncate or be
// undefined.
const char *const NonIntegers[] = {"-1", "2.5", "1e300", "1e400"};

TEST(Manifest, RejectsNonIntegerCellFields) {
  for (const char *Bad : NonIntegers) {
    std::string Header =
        "{\"experiment\":\"x\",\"kind\":\"header\",\"cells\":";
    std::string Cell = "\n{\"experiment\":\"x\",\"kind\":\"cell\","
                       "\"cell\":";
    std::string Tail = ",\"params\":{},\"metrics\":{}}\n";
    std::vector<LoadedExperiment> Out;
    std::string Err;
    EXPECT_FALSE(
        parseResultsJsonLines(Header + Bad + "}" + Cell + "0" + Tail, Out,
                              Err));
    EXPECT_NE(Err.find("line 1: field 'cells' is not an integer"),
              std::string::npos)
        << Err;
    Out.clear();
    EXPECT_FALSE(
        parseResultsJsonLines(Header + "1}" + Cell + Bad + Tail, Out, Err));
    EXPECT_NE(Err.find("line 2: field 'cell' is not an integer"),
              std::string::npos)
        << Err;
  }
}

TEST(Manifest, RejectsNonIntegerCounters) {
  std::string Dir = tempPath("bor_manifest_bad_counters");
  ASSERT_TRUE(writeFile(joinPath(Dir, "demo.json"), sampleResults(1.5)));
  ManifestInfo Info;
  Info.Experiments.push_back("demo");
  Info.ResultFiles.emplace_back("demo", "demo.json");
  Info.CountersFile = "counters.json";
  std::string Err;
  ASSERT_TRUE(writeManifest(Dir, Info, Err)) << Err;

  auto Counters = [](const std::string &Value) {
    return "{\"schema\":\"bor-counters-v1\",\"counters\":{\"a.b\":1,"
           "\"c.d\":" +
           Value + "}}";
  };
  LoadedRun Run;
  ASSERT_TRUE(writeFile(joinPath(Dir, "counters.json"), Counters("7")));
  ASSERT_TRUE(loadRun(Dir, Run, Err)) << Err;
  ASSERT_EQ(Run.Counters.size(), 2u);
  EXPECT_EQ(Run.Counters[1].second, 7u);
  for (const char *Bad : NonIntegers) {
    ASSERT_TRUE(writeFile(joinPath(Dir, "counters.json"), Counters(Bad)));
    EXPECT_FALSE(loadRun(Dir, Run, Err)) << Bad;
    EXPECT_NE(Err.find("counter 'c.d' is not an integer"), std::string::npos)
        << Err;
  }
}

//===----------------------------------------------------------------------===//
// Decoder sweeps: every truncation and every single-bit flip of a real
// document either fails with an error or parses, and never crashes.
//===----------------------------------------------------------------------===//

namespace {

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

/// A real run directory: bor-bench's benchMain, in-process, writing a
/// tiny-scale fig09 run (manifest, results and counters).
std::string writeRealRunDir(const std::string &Name) {
  std::string Dir = tempPath(Name);
  std::filesystem::remove_all(Dir);
  std::vector<std::string> Args = {"bor-bench", "--experiment", "fig09",
                                   "--scale",   "1000",         "--threads",
                                   "1",         "--no-table",   "--run-dir",
                                   Dir};
  std::vector<char *> Argv;
  for (std::string &A : Args)
    Argv.push_back(A.data());
  EXPECT_EQ(benchMain(static_cast<int>(Argv.size()), Argv.data()), 0);
  telemetry::CounterRegistry::setEnabled(false);
  telemetry::CounterRegistry::instance().reset();
  return Dir;
}

} // namespace

TEST(Json, ParseSurvivesTruncationAndBitFlips) {
  std::string Dir = writeRealRunDir("bor_sweep_json");
  size_t Parsed = 0, Rejected = 0, Docs = 0;
  auto Parse = [&](const std::string &Text) {
    JsonValue V;
    std::string Err;
    if (jsonParse(Text, V, Err)) {
      ++Parsed;
      return;
    }
    EXPECT_FALSE(Err.empty());
    ++Rejected;
  };
  std::istringstream Results(readFile(joinPath(Dir, "fig09.json")));
  std::vector<std::string> Texts = {readFile(joinPath(Dir, "manifest.json")),
                                    readFile(joinPath(Dir, "counters.json"))};
  for (std::string Line; std::getline(Results, Line);)
    Texts.push_back(Line);
  for (const std::string &Text : Texts) {
    ASSERT_GT(Text.size(), 40u);
    testgen::forEachMutation(Text, Parse);
    Docs += Text.size();
  }
  EXPECT_GT(Parsed, 0u);   // flips inside strings and digits still parse
  EXPECT_GT(Rejected, Docs); // every proper prefix of an object fails
  std::filesystem::remove_all(Dir);
}

TEST(Manifest, LoadRunSurvivesTruncationAndBitFlips) {
  std::string Dir = writeRealRunDir("bor_sweep_run");
  {
    LoadedRun Run;
    std::string Err;
    ASSERT_TRUE(loadRun(Dir, Run, Err)) << Err;
    ASSERT_NE(Run.findExperiment("fig09"), nullptr);
    ASSERT_FALSE(Run.Counters.empty());
  }
  for (const char *File : {"manifest.json", "fig09.json"}) {
    const std::string Path = joinPath(Dir, File);
    const std::string Good = readFile(Path);
    ASSERT_GT(Good.size(), 100u) << File;
    size_t Parsed = 0, Rejected = 0;
    testgen::forEachMutation(Good, [&](const std::string &Text) {
      ASSERT_TRUE(writeFile(Path, Text));
      LoadedRun Run;
      std::string Err;
      if (loadRun(Dir, Run, Err)) {
        ++Parsed;
        return;
      }
      EXPECT_FALSE(Err.empty()) << File;
      ++Rejected;
    });
    EXPECT_GT(Parsed, 0u) << File;
    EXPECT_GT(Rejected, Good.size() / 2) << File;
    ASSERT_TRUE(writeFile(Path, Good));
  }
  std::filesystem::remove_all(Dir);
}

//===----------------------------------------------------------------------===//
// Report comparison rules
//===----------------------------------------------------------------------===//

TEST(Report, SparklineShape) {
  EXPECT_EQ(sparkline({}), "");
  std::string Flat = sparkline({1.0, 1.0, 1.0});
  std::string Ramp = sparkline({0.0, 0.5, 1.0});
  EXPECT_FALSE(Flat.empty());
  EXPECT_FALSE(Ramp.empty());
  EXPECT_NE(Ramp, Flat);
  // Min maps to the lowest glyph, max to the highest.
  EXPECT_EQ(Ramp.find("▁"), 0u);
  EXPECT_NE(Ramp.find("█"), std::string::npos);
}

TEST(Report, WallClockMetricNames) {
  EXPECT_TRUE(isWallClockMetric("ff_ms"));
  EXPECT_TRUE(isWallClockMetric("sampled_wallclock_pct"));
  EXPECT_TRUE(isWallClockMetric("wall_s"));
  EXPECT_FALSE(isWallClockMetric("ipc"));
  EXPECT_FALSE(isWallClockMetric("roi_cycles"));
}

TEST(Report, IdenticalRunsAreClean) {
  LoadedRun Base = loadFromText(sampleResults(1.5));
  LoadedRun Cand = loadFromText(sampleResults(1.5));
  ReportResult R = compareRuns(Base, Cand);
  EXPECT_TRUE(R.clean()) << R.Markdown;
  EXPECT_EQ(R.Regressions, 0u);
  EXPECT_NE(R.Markdown.find("CLEAN"), std::string::npos);
}

TEST(Report, WallClockChangesNeverGate) {
  std::string Base = sampleResults(1.5);
  std::string Cand = Base;
  size_t Pos = Cand.find("\"full_ms\":1.5");
  ASSERT_NE(Pos, std::string::npos);
  Cand.replace(Pos, 13, "\"full_ms\":9.9");
  ReportResult R = compareRuns(loadFromText(Base), loadFromText(Cand));
  EXPECT_TRUE(R.clean()) << R.Markdown;
}

TEST(Report, LowerIpcIsRegressionHigherIsImprovement) {
  LoadedRun Base = loadFromText(sampleResults(2.0));
  ReportResult Down = compareRuns(Base, loadFromText(sampleResults(1.0)));
  EXPECT_EQ(Down.Regressions, 1u) << Down.Markdown;
  ReportResult Up = compareRuns(Base, loadFromText(sampleResults(3.0)));
  EXPECT_EQ(Up.Regressions, 0u) << Up.Markdown;
  EXPECT_EQ(Up.Improvements, 1u) << Up.Markdown;
  EXPECT_NE(Up.Markdown.find("improvement"), std::string::npos);
}

TEST(Report, SmallChangesBelowThresholdIgnored) {
  LoadedRun Base = loadFromText(sampleResults(2.0));
  LoadedRun Cand = loadFromText(sampleResults(2.02)); // +1%, under 2%
  EXPECT_TRUE(compareRuns(Base, Cand).clean());
}

TEST(Report, PerMetricThresholdOverride) {
  LoadedRun Base = loadFromText(sampleResults(2.0));
  LoadedRun Cand = loadFromText(sampleResults(1.9)); // -5%
  ReportOptions Opt;
  Opt.MetricThresholds.emplace_back("ipc", 10.0);
  EXPECT_TRUE(compareRuns(Base, Cand, Opt).clean());
  Opt.MetricThresholds.clear();
  Opt.MetricThresholds.emplace_back("ipc", 1.0);
  EXPECT_EQ(compareRuns(Base, Cand, Opt).Regressions, 1u);
}

TEST(Report, OverlappingCisSuppressSignificance) {
  // 2.0 +/- 0.3 vs 1.8 +/- 0.3: a 10% drop, but the intervals overlap, so
  // the sampler's own error bars say it is noise.
  LoadedRun Base = loadFromText(sampleResults(2.0, 0.3));
  LoadedRun Cand = loadFromText(sampleResults(1.8, 0.3));
  EXPECT_TRUE(compareRuns(Base, Cand).clean());
  // Same drop with tight CIs is real.
  LoadedRun Base2 = loadFromText(sampleResults(2.0, 0.01));
  LoadedRun Cand2 = loadFromText(sampleResults(1.8, 0.01));
  EXPECT_EQ(compareRuns(Base2, Cand2).Regressions, 1u);
}

TEST(Report, TextMetricChangeIsRegression) {
  std::string Cand = sampleResults(1.5);
  size_t Pos = Cand.find("\"verdict\":\"PASS\"");
  ASSERT_NE(Pos, std::string::npos);
  Cand.replace(Pos, 16, "\"verdict\":\"FAIL\"");
  ReportResult R =
      compareRuns(loadFromText(sampleResults(1.5)), loadFromText(Cand));
  EXPECT_EQ(R.Regressions, 1u) << R.Markdown;
  EXPECT_NE(R.Markdown.find("PASS"), std::string::npos);
  EXPECT_NE(R.Markdown.find("FAIL"), std::string::npos);
}

TEST(Report, MissingExperimentIsStructural) {
  LoadedRun Base = loadFromText(sampleResults(1.5));
  LoadedRun Empty;
  Empty.Source = "empty";
  ReportResult R = compareRuns(Base, Empty);
  EXPECT_FALSE(R.clean());
  EXPECT_GE(R.Structural, 1u);
  EXPECT_NE(R.Markdown.find("Structural"), std::string::npos);
}

TEST(Report, MissingMetricIsStructural) {
  std::string Cand = sampleResults(1.5);
  size_t Pos = Cand.find(",\"roi_cycles\":1000");
  ASSERT_NE(Pos, std::string::npos);
  Cand.erase(Pos, 18);
  ReportResult R =
      compareRuns(loadFromText(sampleResults(1.5)), loadFromText(Cand));
  EXPECT_GE(R.Structural, 1u) << R.Markdown;
}

TEST(Report, CounterDiffIsInformationalOnly) {
  LoadedRun Base = loadFromText(sampleResults(1.5));
  LoadedRun Cand = loadFromText(sampleResults(1.5));
  Base.Counters.emplace_back("exp.cells", 80);
  Cand.Counters.emplace_back("exp.cells", 99);
  ReportResult R = compareRuns(Base, Cand);
  EXPECT_TRUE(R.clean()) << R.Markdown;
  EXPECT_NE(R.Markdown.find("Counter diff"), std::string::npos);
  EXPECT_NE(R.Markdown.find("exp.cells"), std::string::npos);
}

TEST(Report, SparklinesRenderedForMatchingSeries) {
  LoadedRun Base = loadFromText(sampleResults(1.5));
  LoadedRun Cand = loadFromText(sampleResults(1.5));
  for (LoadedRun *Run : {&Base, &Cand}) {
    LoadedSeries S;
    S.Experiment = "demo";
    S.Cell = 0;
    S.Run = 0;
    S.Ipc = {1.0, 1.2, 1.4, 1.3};
    Run->Series.push_back(S);
  }
  ReportResult R = compareRuns(Base, Cand);
  EXPECT_NE(R.Markdown.find("Per-interval IPC"), std::string::npos)
      << R.Markdown;
  EXPECT_NE(R.Markdown.find("▁"), std::string::npos);
}
