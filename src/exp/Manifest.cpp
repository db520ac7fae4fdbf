//===- exp/Manifest.cpp - Self-describing run manifests -------------------===//
//
// Part of the branch-on-random reproduction library.
//
//===----------------------------------------------------------------------===//

#include "exp/Manifest.h"

#include "exp/Json.h"
#include "support/BuildInfo.h"
#include "support/Path.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <limits>

using namespace bor;
using namespace bor::exp;

namespace fs = std::filesystem;

//===----------------------------------------------------------------------===//
// Writing
//===----------------------------------------------------------------------===//

namespace {

std::string utcNow() {
  std::time_t T = std::time(nullptr);
  std::tm Tm;
  gmtime_r(&T, &Tm);
  char Buf[32];
  std::strftime(Buf, sizeof(Buf), "%Y-%m-%dT%H:%M:%SZ", &Tm);
  return Buf;
}

bool readTextFile(const std::string &Path, std::string &Out,
                  std::string &Err) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F) {
    Err = "cannot open '" + Path + "' for reading";
    return false;
  }
  Out.clear();
  char Buf[1 << 16];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) != 0)
    Out.append(Buf, N);
  bool Ok = !std::ferror(F);
  std::fclose(F);
  if (!Ok)
    Err = "error reading '" + Path + "'";
  return Ok;
}

} // namespace

bool bor::exp::writeManifest(const std::string &Dir, const ManifestInfo &Info,
                             std::string &Err) {
  if (!ensureDirs(Dir, Err))
    return false;

  const BuildInfo &BI = buildInfo();
  JsonObjectWriter Build;
  Build.field("git_rev", BI.GitRevision);
  Build.field("compiler", BI.Compiler);
  Build.field("build_type", BI.BuildType);
  Build.field("flags", BI.Flags);

  JsonObjectWriter Config;
  Config.fieldRaw("scale", jsonNumber(Info.Scale));
  Config.fieldRaw("threads",
                  jsonNumber(static_cast<uint64_t>(Info.Threads)));
  Config.fieldRaw("sample", Info.Sample ? "true" : "false");
  Config.fieldRaw("sample_period", jsonNumber(Info.Plan.PeriodInsts));
  Config.fieldRaw("sample_warm", jsonNumber(Info.Plan.WarmupInsts));
  Config.fieldRaw("sample_measure", jsonNumber(Info.Plan.MeasureInsts));
  Config.fieldRaw("ckpt_library", Info.CkptLibrary ? "true" : "false");
  if (Info.CellsTimedOut) {
    Config.fieldRaw("partial", "true");
    Config.fieldRaw("cells_timedout",
                    jsonNumber(static_cast<uint64_t>(Info.CellsTimedOut)));
  }

  std::string Experiments = "[";
  for (size_t I = 0; I != Info.Experiments.size(); ++I) {
    if (I)
      Experiments += ",";
    Experiments += "\"" + jsonEscape(Info.Experiments[I]) + "\"";
  }
  Experiments += "]";

  JsonObjectWriter Results;
  for (const auto &[Name, Path] : Info.ResultFiles)
    Results.field(Name, Path);
  JsonObjectWriter Files;
  Files.fieldRaw("results", Results.finish());
  if (!Info.CountersFile.empty())
    Files.field("counters", Info.CountersFile);
  if (!Info.TimeSeriesFile.empty())
    Files.field("timeseries", Info.TimeSeriesFile);
  if (!Info.TraceFile.empty())
    Files.field("trace", Info.TraceFile);

  JsonObjectWriter W;
  W.field("schema", "bor-run-manifest-v1");
  W.field("tool", Info.Tool);
  W.field("command", Info.Command);
  W.field("created_utc", utcNow());
  W.fieldRaw("build", Build.finish());
  W.fieldRaw("config", Config.finish());
  W.fieldRaw("experiments", Experiments);
  W.fieldRaw("files", Files.finish());

  // Atomic: a manifest either exists complete or not at all, preserving
  // "a manifest implies complete files".
  return writeFileAtomic(joinPath(Dir, "manifest.json"), W.finish() + "\n",
                         Err);
}

//===----------------------------------------------------------------------===//
// Loading
//===----------------------------------------------------------------------===//

const LoadedMetric *LoadedRecord::findMetric(const std::string &Name) const {
  for (const auto &KV : Metrics)
    if (KV.first == Name)
      return &KV.second;
  return nullptr;
}

std::string LoadedRecord::paramKey() const {
  std::string Key = IsSummary ? "summary" : "cell";
  for (const auto &KV : Params)
    Key += " " + KV.first + "=" + KV.second;
  return Key;
}

const LoadedExperiment *
LoadedRun::findExperiment(const std::string &Name) const {
  for (const LoadedExperiment &E : Experiments)
    if (E.Name == Name)
      return &E;
  return nullptr;
}

namespace {

std::string fieldString(const JsonValue &Obj, std::string_view Key) {
  const JsonValue *V = Obj.find(Key);
  return V && V->isString() ? V->Str : std::string();
}

/// Reads the integer field \p Key of \p Obj into \p Out, leaving \p Out
/// alone when the field is absent or not a number. Fails, naming the
/// field, on a number that is not an integer in [Min, T's maximum].
template <typename T>
bool fieldInteger(const JsonValue &Obj, std::string_view Key, T &Out,
                  std::string &Err, T Min = 0) {
  const JsonValue *V = Obj.find(Key);
  if (!V || !V->isNumber() || jsonToInteger(V->Num, Out, Min))
    return true;
  Err = "field '" + std::string(Key) + "' is not an integer in [" +
        std::to_string(Min) + ", " +
        std::to_string(std::numeric_limits<T>::max()) + "]";
  return false;
}

bool parseResultLine(const JsonValue &Obj,
                     std::vector<LoadedExperiment> &Out, std::string &Err) {
  std::string Name = fieldString(Obj, "experiment");
  std::string Kind = fieldString(Obj, "kind");
  if (Name.empty() || Kind.empty()) {
    Err = "record without experiment/kind fields";
    return false;
  }

  if (Kind == "header") {
    LoadedExperiment E;
    E.Name = Name;
    E.Title = fieldString(Obj, "title");
    if (!fieldInteger(Obj, "cells", E.Cells, Err))
      return false;
    Out.push_back(std::move(E));
    return true;
  }

  if (Out.empty() || Out.back().Name != Name) {
    Err = "record for '" + Name + "' without a preceding header";
    return false;
  }

  LoadedRecord R;
  R.IsSummary = Kind == "summary";
  if (!R.IsSummary && Kind != "cell") {
    Err = "unknown record kind '" + Kind + "'";
    return false;
  }
  if (!fieldInteger(Obj, "cell", R.Cell, Err))
    return false;
  if (const JsonValue *Params = Obj.find("params"))
    for (const auto &[K, V] : Params->Fields)
      R.Params.emplace_back(K, V.isString() ? V.Str : std::string());
  if (const JsonValue *Metrics = Obj.find("metrics"))
    for (const auto &[K, V] : Metrics->Fields) {
      LoadedMetric M;
      if (V.isNumber()) {
        M.Num = V.Num;
      } else if (V.isString()) {
        M.IsNumber = false;
        M.Text = V.Str;
      } else {
        continue; // null (non-finite) — not comparable
      }
      R.Metrics.emplace_back(K, std::move(M));
    }
  Out.back().Records.push_back(std::move(R));
  return true;
}

bool loadResultsFile(const std::string &Path,
                     std::vector<LoadedExperiment> &Out, std::string &Err) {
  std::string Text;
  if (!readTextFile(Path, Text, Err))
    return false;
  if (!parseResultsJsonLines(Text, Out, Err)) {
    Err = Path + ": " + Err;
    return false;
  }
  return true;
}

bool loadCounters(const std::string &Path, LoadedRun &Out, std::string &Err) {
  std::string Text;
  if (!readTextFile(Path, Text, Err))
    return false;
  JsonValue Root;
  if (!jsonParse(Text, Root, Err)) {
    Err = Path + ": " + Err;
    return false;
  }
  if (const JsonValue *Counters = Root.find("counters"))
    for (const auto &[K, V] : Counters->Fields) {
      uint64_t Value = 0;
      if (!V.isNumber())
        continue;
      if (!jsonToInteger(V.Num, Value)) {
        Err = Path + ": counter '" + K + "' is not an integer in [0, " +
              std::to_string(UINT64_MAX) + "]";
        return false;
      }
      Out.Counters.emplace_back(K, Value);
    }
  std::sort(Out.Counters.begin(), Out.Counters.end());
  return true;
}

bool loadTimeSeries(const std::string &Path, LoadedRun &Out,
                    std::string &Err) {
  std::string Text;
  if (!readTextFile(Path, Text, Err))
    return false;
  JsonValue Root;
  if (!jsonParse(Text, Root, Err)) {
    Err = Path + ": " + Err;
    return false;
  }
  const JsonValue *Series = Root.find("series");
  if (!Series || !Series->isArray())
    return true;
  auto Column = [](const JsonValue &Obj, std::string_view Key) {
    std::vector<double> V;
    if (const JsonValue *Arr = Obj.find(Key))
      for (const JsonValue &E : Arr->Elems)
        V.push_back(E.isNumber() ? E.Num : 0.0);
    return V;
  };
  for (const JsonValue &S : Series->Elems) {
    LoadedSeries L;
    L.Experiment = fieldString(S, "experiment");
    // Cell -1 is the set-up series (TimeSeries::kSetupCell).
    if (!fieldInteger(S, "cell", L.Cell, Err, int64_t{-1}) ||
        !fieldInteger(S, "run", L.Run, Err)) {
      Err = Path + ": " + Err;
      return false;
    }
    L.Ipc = Column(S, "ipc");
    L.FlushFrac = Column(S, "flush_frac");
    L.BrrRate = Column(S, "brr_rate");
    L.FfInsts = Column(S, "ff_insts");
    Out.Series.push_back(std::move(L));
  }
  return true;
}

bool loadFromManifest(const std::string &Dir, const std::string &Path,
                      LoadedRun &Out, std::string &Err) {
  std::string Text;
  if (!readTextFile(Path, Text, Err))
    return false;
  JsonValue Root;
  if (!jsonParse(Text, Root, Err)) {
    Err = Path + ": " + Err;
    return false;
  }
  if (fieldString(Root, "schema") != "bor-run-manifest-v1") {
    Err = Path + ": not a bor run manifest (schema mismatch)";
    return false;
  }

  Out.HasManifest = true;
  Out.Command = fieldString(Root, "command");
  if (const JsonValue *Build = Root.find("build")) {
    Out.GitRevision = fieldString(*Build, "git_rev");
    Out.Compiler = fieldString(*Build, "compiler");
    Out.BuildType = fieldString(*Build, "build_type");
  }
  if (const JsonValue *Config = Root.find("config")) {
    if (!fieldInteger(*Config, "scale", Out.Scale, Err) ||
        !fieldInteger(*Config, "threads", Out.Threads, Err)) {
      Err = Path + ": config " + Err;
      return false;
    }
    const JsonValue *Sample = Config->find("sample");
    Out.Sample = Sample && Sample->isBool() && Sample->BoolVal;
  }

  const JsonValue *Files = Root.find("files");
  if (!Files) {
    Err = Path + ": manifest has no files block";
    return false;
  }
  if (const JsonValue *Results = Files->find("results"))
    for (const auto &[Name, Rel] : Results->Fields) {
      (void)Name;
      if (!Rel.isString())
        continue;
      if (!loadResultsFile(joinPath(Dir, Rel.Str), Out.Experiments, Err))
        return false;
    }
  std::string Counters = fieldString(*Files, "counters");
  if (!Counters.empty() && !loadCounters(joinPath(Dir, Counters), Out, Err))
    return false;
  std::string Series = fieldString(*Files, "timeseries");
  if (!Series.empty() && !loadTimeSeries(joinPath(Dir, Series), Out, Err))
    return false;
  return true;
}

} // namespace

bool bor::exp::parseResultsJsonLines(const std::string &Text,
                                     std::vector<LoadedExperiment> &Out,
                                     std::string &Err) {
  size_t Pos = 0, LineNo = 0;
  while (Pos < Text.size()) {
    size_t End = Text.find('\n', Pos);
    if (End == std::string::npos)
      End = Text.size();
    std::string_view Line(Text.data() + Pos, End - Pos);
    Pos = End + 1;
    ++LineNo;
    if (Line.find_first_not_of(" \t\r") == std::string_view::npos)
      continue;
    JsonValue Obj;
    if (!jsonParse(Line, Obj, Err)) {
      Err = "line " + std::to_string(LineNo) + ": " + Err;
      return false;
    }
    if (!parseResultLine(Obj, Out, Err)) {
      Err = "line " + std::to_string(LineNo) + ": " + Err;
      return false;
    }
  }
  if (Out.empty()) {
    Err = "no experiment records found";
    return false;
  }
  return true;
}

bool bor::exp::loadRun(const std::string &Path, LoadedRun &Out,
                       std::string &Err) {
  Out = LoadedRun();
  Out.Source = Path;

  std::error_code Ec;
  if (fs::is_directory(fs::path(Path), Ec))
    return loadFromManifest(Path, joinPath(Path, "manifest.json"), Out, Err);

  fs::path P(Path);
  if (P.filename() == "manifest.json")
    return loadFromManifest(P.parent_path().string(), Path, Out, Err);

  // A bare JSON-lines results file (e.g. a committed bench/BENCH_*.json
  // baseline): results only, no counters or time series to compare.
  return loadResultsFile(Path, Out.Experiments, Err);
}
