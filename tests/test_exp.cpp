//===- tests/test_exp.cpp - Experiment-runner subsystem unit tests -------===//
//
// Covers the pieces of src/exp/ that the figure experiments themselves do
// not exercise deterministically: JSON rendering, the thread pool, the
// registry, the --cell-timeout path, and -- most importantly -- that the
// parallel runner produces byte-identical output for any thread count.
//
//===----------------------------------------------------------------------===//

#include "exp/Driver.h"
#include "exp/Experiment.h"
#include "exp/Json.h"
#include "exp/ResultSink.h"
#include "exp/Runner.h"
#include "exp/ThreadPool.h"

#include "gtest/gtest.h"

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace bor::exp;

namespace {

//===----------------------------------------------------------------------===//
// JSON rendering
//===----------------------------------------------------------------------===//

TEST(JsonTest, EscapePassesPlainTextThrough) {
  EXPECT_EQ(jsonEscape("fig13 interval=1024"), "fig13 interval=1024");
}

TEST(JsonTest, EscapeQuotesAndBackslashes) {
  EXPECT_EQ(jsonEscape("a\"b\\c"), "a\\\"b\\\\c");
}

TEST(JsonTest, EscapeControlCharacters) {
  EXPECT_EQ(jsonEscape("a\nb"), "a\\nb");
  EXPECT_EQ(jsonEscape("a\tb"), "a\\tb");
  EXPECT_EQ(jsonEscape("a\rb"), "a\\rb");
  EXPECT_EQ(jsonEscape(std::string_view("a\x01z", 3)), "a\\u0001z");
  EXPECT_EQ(jsonEscape(std::string_view("\x00", 1)), "\\u0000");
}

TEST(JsonTest, UnsignedNumbersAreExact) {
  EXPECT_EQ(jsonNumber(static_cast<uint64_t>(0)), "0");
  EXPECT_EQ(jsonNumber(static_cast<uint64_t>(18446744073709551615ull)),
            "18446744073709551615");
}

TEST(JsonTest, IntegralDoublesPrintWithoutDecimalPoint) {
  EXPECT_EQ(jsonNumber(0.0), "0");
  EXPECT_EQ(jsonNumber(42.0), "42");
  EXPECT_EQ(jsonNumber(-3.0), "-3");
}

TEST(JsonTest, FractionalDoublesRoundTrip) {
  for (double V : {0.1, 1.0 / 3.0, 99.95, -273.15, 6.02214076e23}) {
    std::string S = jsonNumber(V);
    EXPECT_EQ(std::strtod(S.c_str(), nullptr), V) << S;
    EXPECT_EQ(S.find('n'), std::string::npos) << S; // not nan/null
  }
}

TEST(JsonTest, NonFiniteBecomesNull) {
  EXPECT_EQ(jsonNumber(std::nan("")), "null");
  EXPECT_EQ(jsonNumber(HUGE_VAL), "null");
  EXPECT_EQ(jsonNumber(-HUGE_VAL), "null");
}

TEST(JsonTest, ObjectWriterPreservesFieldOrder) {
  JsonObjectWriter W;
  W.field("name", "fig13");
  W.fieldRaw("cells", "82");
  W.field("quote", "a\"b");
  EXPECT_EQ(W.finish(),
            "{\"name\":\"fig13\",\"cells\":82,\"quote\":\"a\\\"b\"}");
}

TEST(JsonTest, EmptyObject) {
  JsonObjectWriter W;
  EXPECT_EQ(W.finish(), "{}");
}

//===----------------------------------------------------------------------===//
// ThreadPool
//===----------------------------------------------------------------------===//

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool Pool(4);
  std::atomic<int> Count{0};
  for (int I = 0; I != 200; ++I)
    Pool.submit([&Count] { Count.fetch_add(1, std::memory_order_relaxed); });
  Pool.wait();
  EXPECT_EQ(Count.load(), 200);
}

TEST(ThreadPoolTest, WaitIsReusable) {
  ThreadPool Pool(2);
  std::atomic<int> Count{0};
  Pool.submit([&Count] { ++Count; });
  Pool.wait();
  EXPECT_EQ(Count.load(), 1);
  Pool.submit([&Count] { ++Count; });
  Pool.submit([&Count] { ++Count; });
  Pool.wait();
  EXPECT_EQ(Count.load(), 3);
}

TEST(ThreadPoolTest, WaitWithNothingSubmittedReturns) {
  ThreadPool Pool(2);
  Pool.wait(); // must not deadlock
}

TEST(ThreadPoolTest, ZeroThreadsClampsToOne) {
  ThreadPool Pool(0);
  EXPECT_EQ(Pool.size(), 1u);
  std::atomic<bool> Ran{false};
  Pool.submit([&Ran] { Ran = true; });
  Pool.wait();
  EXPECT_TRUE(Ran.load());
}

TEST(ThreadPoolTest, DestructorDrainsPendingTasks) {
  std::atomic<int> Count{0};
  {
    ThreadPool Pool(3);
    for (int I = 0; I != 50; ++I)
      Pool.submit([&Count] { Count.fetch_add(1); });
    // No wait(): the destructor must still run everything.
  }
  EXPECT_EQ(Count.load(), 50);
}

TEST(ThreadPoolTest, DefaultThreadsIsPositive) {
  EXPECT_GE(ThreadPool::defaultThreads(), 1u);
}

//===----------------------------------------------------------------------===//
// Registry
//===----------------------------------------------------------------------===//

TEST(RegistryTest, CreateStampsTheRegisteredName) {
  ExperimentRegistry R;
  R.add("toy", "a toy", [](const ExperimentOptions &) {
    ExperimentSpec S;
    S.Title = "toy experiment";
    return S;
  });
  EXPECT_TRUE(R.contains("toy"));
  EXPECT_FALSE(R.contains("fig99"));
  ExperimentSpec S = R.create("toy", ExperimentOptions());
  EXPECT_EQ(S.Name, "toy");
  EXPECT_EQ(S.Title, "toy experiment");
}

TEST(RegistryTest, ListIsSortedByName) {
  ExperimentRegistry R;
  auto Stub = [](const ExperimentOptions &) { return ExperimentSpec(); };
  R.add("zeta", "last", Stub);
  R.add("alpha", "first", Stub);
  R.add("mid", "middle", Stub);
  auto L = R.list();
  ASSERT_EQ(L.size(), 3u);
  EXPECT_EQ(L[0].first, "alpha");
  EXPECT_EQ(L[1].first, "mid");
  EXPECT_EQ(L[2].first, "zeta");
  EXPECT_EQ(L[0].second, "first");
}

//===----------------------------------------------------------------------===//
// Runner determinism
//===----------------------------------------------------------------------===//

/// A synthetic experiment whose cells deliberately finish out of order
/// when run concurrently: cell 0 sleeps longest, the last cell not at
/// all. Any order-dependence in result collection or sink feeding shows
/// up as a diff between thread counts.
ExperimentSpec makeScrambledSpec(unsigned NumCells) {
  ExperimentSpec S;
  S.Name = "scrambled";
  S.Title = "determinism probe";
  for (unsigned I = 0; I != NumCells; ++I)
    S.Cells.push_back({{"cell", std::to_string(I)}});
  S.Run = [NumCells](const ParamSet &Cell, size_t Index) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(2 * (NumCells - Index)));
    RunRecord R;
    for (const auto &KV : Cell)
      R.param(KV.first, KV.second);
    R.metric("index", static_cast<uint64_t>(Index));
    R.metric("third", static_cast<double>(Index) / 3.0, 4);
    return R;
  };
  S.Summarize = [](const std::vector<RunRecord> &Cells) {
    uint64_t Sum = 0;
    for (const RunRecord &R : Cells)
      Sum += R.findMetric("index")->U;
    std::vector<RunRecord> Out;
    Out.push_back(RunRecord().param("cell", "sum").metric("index", Sum));
    return Out;
  };
  return S;
}

/// Runs \p Spec through a JsonLinesSink into a temporary file and returns
/// the bytes written.
std::string jsonOutput(const ExperimentSpec &Spec, unsigned Threads) {
  std::FILE *F = std::tmpfile();
  EXPECT_NE(F, nullptr);
  {
    JsonLinesSink Sink(F, /*Owned=*/false);
    std::vector<ResultSink *> Sinks{&Sink};
    runExperiment(Spec, Threads, Sinks);
  }
  std::rewind(F);
  std::string Out;
  char Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Out.append(Buf, N);
  std::fclose(F);
  return Out;
}

TEST(RunnerTest, ResultsArriveInSpecOrder) {
  ExperimentSpec S = makeScrambledSpec(8);
  std::vector<ResultSink *> NoSinks;
  std::vector<RunRecord> Records = runExperiment(S, 4, NoSinks).Records;
  ASSERT_EQ(Records.size(), 8u);
  for (size_t I = 0; I != Records.size(); ++I) {
    EXPECT_EQ(*Records[I].findParam("cell"), std::to_string(I));
    EXPECT_EQ(Records[I].findMetric("index")->U, I);
  }
}

TEST(RunnerTest, SetupRunsBeforeAnyCell) {
  ExperimentSpec S;
  S.Name = "setup-order";
  S.Cells = {{{"cell", "0"}}, {{"cell", "1"}}};
  auto Baseline = std::make_shared<uint64_t>(0);
  S.Setup = [Baseline] { *Baseline = 7; };
  S.Run = [Baseline](const ParamSet &, size_t Index) {
    RunRecord R;
    R.metric("base", *Baseline);
    R.metric("index", static_cast<uint64_t>(Index));
    return R;
  };
  std::vector<ResultSink *> NoSinks;
  for (const RunRecord &R : runExperiment(S, 2, NoSinks).Records)
    EXPECT_EQ(R.findMetric("base")->U, 7u);
}

TEST(RunnerTest, JsonIsByteIdenticalAcrossThreadCounts) {
  ExperimentSpec S = makeScrambledSpec(12);
  std::string Serial = jsonOutput(S, 1);
  std::string Parallel4 = jsonOutput(S, 4);
  std::string Parallel8 = jsonOutput(S, 8);
  EXPECT_FALSE(Serial.empty());
  EXPECT_EQ(Serial, Parallel4);
  EXPECT_EQ(Serial, Parallel8);
}

TEST(RunnerTest, JsonSinkWritesNonFiniteMetricsAsNull) {
  // End-to-end version of JsonTest.NonFiniteBecomesNull: an experiment
  // whose metrics divide by zero must still produce parseable JSON.
  ExperimentSpec S;
  S.Name = "nonfinite";
  S.Cells = {{{"cell", "0"}}};
  S.Run = [](const ParamSet &, size_t) {
    RunRecord R;
    R.param("cell", "0");
    R.metric("nan", std::nan(""), 3);
    R.metric("inf", std::numeric_limits<double>::infinity(), 3);
    R.metric("finite", 1.5, 3);
    return R;
  };
  std::string Out = jsonOutput(S, 1);
  EXPECT_NE(Out.find("\"nan\":null"), std::string::npos);
  EXPECT_NE(Out.find("\"inf\":null"), std::string::npos);
  EXPECT_NE(Out.find("\"finite\":1.5"), std::string::npos);
  EXPECT_EQ(Out.find("nan("), std::string::npos);
}

TEST(RunnerTest, JsonCarriesHeaderCellsAndSummary) {
  ExperimentSpec S = makeScrambledSpec(3);
  std::string Out = jsonOutput(S, 2);
  // One header + three cells + one summary = five lines.
  size_t Lines = 0;
  for (char C : Out)
    Lines += C == '\n';
  EXPECT_EQ(Lines, 5u);
  EXPECT_NE(Out.find("\"kind\":\"header\""), std::string::npos);
  EXPECT_NE(Out.find("\"kind\":\"cell\""), std::string::npos);
  EXPECT_NE(Out.find("\"kind\":\"summary\""), std::string::npos);
  EXPECT_NE(Out.find("\"experiment\":\"scrambled\""), std::string::npos);
  // Summary: sum of indices 0+1+2.
  EXPECT_NE(Out.find("\"index\":3"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// TableSink
//===----------------------------------------------------------------------===//

TEST(TableSinkTest, RendersTitleColumnsAndNotes) {
  ExperimentSpec S = makeScrambledSpec(2);
  S.Notes = "probe notes line";
  std::FILE *F = std::tmpfile();
  ASSERT_NE(F, nullptr);
  {
    TableSink Sink(F);
    std::vector<ResultSink *> Sinks{&Sink};
    runExperiment(S, 1, Sinks);
  }
  std::rewind(F);
  std::string Out;
  char Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Out.append(Buf, N);
  std::fclose(F);
  EXPECT_NE(Out.find("determinism probe"), std::string::npos);
  EXPECT_NE(Out.find("cell"), std::string::npos);
  EXPECT_NE(Out.find("third"), std::string::npos);
  EXPECT_NE(Out.find("probe notes line"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Sampling-plan flags, end to end through benchMain
//===----------------------------------------------------------------------===//

int runBench(std::vector<std::string> Args) {
  std::vector<char *> Argv;
  for (std::string &A : Args)
    Argv.push_back(A.data());
  return benchMain(static_cast<int>(Argv.size()), Argv.data());
}

TEST(DriverTest, NegativeSampleWarmIsAUsageError) {
  // strtoull reads "-1" as 2^64-1, which once ran the full grid and exited
  // 0 with no sample_intervals.
  EXPECT_EXIT(runBench({"bor-bench", "--experiment", "fig13", "--sample",
                        "--sample-warm", "-1", "--no-table", "--no-json"}),
              testing::ExitedWithCode(2), "--sample-warm");
}

TEST(DriverTest, PlanWhoseSumWrapsIsRejected) {
  // Written out, 2^64-1 parses; the plan check must not wrap its sum.
  EXPECT_EQ(runBench({"bor-bench", "--experiment", "fig13", "--sample",
                      "--sample-warm", "18446744073709551615", "--no-table",
                      "--no-json"}),
            2);
}

//===----------------------------------------------------------------------===//
// --cell-timeout, end to end through the driver
//===----------------------------------------------------------------------===//

TEST(DriverTest, CellTimeoutMarksTheSlowCellAndSkipsTheSummary) {
  // Cell 1 sleeps three times the 0.2 s budget. The abandoned cell keeps
  // running detached, so it raises Finished and the test waits for that
  // before returning.
  auto Finished = std::make_shared<std::atomic<bool>>(false);
  ExperimentRegistry::instance().add(
      "timeout_probe", "cell 1 overruns --cell-timeout",
      [Finished](const ExperimentOptions &) {
        ExperimentSpec S;
        S.Title = "timeout probe";
        for (unsigned I = 0; I != 4; ++I)
          S.Cells.push_back({{"cell", std::to_string(I)}});
        S.Run = [Finished](const ParamSet &Cell, size_t Index) {
          if (Index == 1) {
            std::this_thread::sleep_for(std::chrono::milliseconds(600));
            Finished->store(true);
          }
          RunRecord R;
          R.Params = Cell;
          R.metric("index", static_cast<uint64_t>(Index));
          return R;
        };
        S.Summarize = [](const std::vector<RunRecord> &) {
          return std::vector<RunRecord>{RunRecord().param("cell", "sum")};
        };
        return S;
      });

  const std::string Path = testing::TempDir() + "timeout_probe.json";
  std::vector<std::string> Args = {
      "bor-bench", "--experiment", "timeout_probe", "--cell-timeout", "0.2",
      "--threads", "2", "--no-table", "--json", Path};
  std::vector<char *> Argv;
  for (std::string &A : Args)
    Argv.push_back(A.data());
  EXPECT_EQ(benchMain(static_cast<int>(Argv.size()), Argv.data()), 3);

  std::vector<JsonValue> Cells;
  size_t Summaries = 0;
  std::ifstream In(Path);
  for (std::string Line; std::getline(In, Line);) {
    JsonValue V;
    std::string Err;
    ASSERT_TRUE(jsonParse(Line, V, Err)) << Err;
    const JsonValue *Kind = V.find("kind");
    ASSERT_NE(Kind, nullptr);
    if (Kind->Str == "cell")
      Cells.push_back(V);
    Summaries += Kind->Str == "summary";
  }
  EXPECT_EQ(Summaries, 0u);
  ASSERT_EQ(Cells.size(), 4u);
  for (size_t I = 0; I != Cells.size(); ++I) {
    EXPECT_EQ(Cells[I].find("params")->find("cell")->Str, std::to_string(I));
    const JsonValue *Metrics = Cells[I].find("metrics");
    ASSERT_NE(Metrics, nullptr);
    const JsonValue *Status = Metrics->find("cell_status");
    const JsonValue *Index = Metrics->find("index");
    if (I == 1) {
      ASSERT_NE(Status, nullptr);
      EXPECT_EQ(Status->Str, "timeout");
      EXPECT_EQ(Index, nullptr);
    } else {
      EXPECT_EQ(Status, nullptr) << "cell " << I;
      ASSERT_NE(Index, nullptr);
      EXPECT_EQ(Index->Num, static_cast<double>(I));
    }
  }

  for (int Tick = 0; Tick != 500 && !Finished->load(); ++Tick)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_TRUE(Finished->load());
  std::remove(Path.c_str());
}

} // namespace
