//===- exp/Manifest.h - Self-describing run manifests ---------------------===//
//
// Part of the branch-on-random reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The durable record of one bor-bench invocation. `--run-dir DIR` writes
/// a directory holding everything needed to re-interpret the run later:
///
///   manifest.json     what ran and what produced it (build + config)
///   <name>.json       per-experiment JSON-lines results
///   counters.json     the merged counter snapshot, with descriptions
///   timeseries.json   per-interval series from sampled runs
///
/// The loading side reads a run dir — or a bare committed JSON-lines
/// baseline like bench/BENCH_fig13.json — into one LoadedRun value, which
/// is what bor-report compares. See docs/REPORTING.md.
///
//===----------------------------------------------------------------------===//

#ifndef BOR_EXP_MANIFEST_H
#define BOR_EXP_MANIFEST_H

#include "sample/SamplingPlan.h"

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace bor {
namespace exp {

//===----------------------------------------------------------------------===//
// Writing
//===----------------------------------------------------------------------===//

/// Everything manifest.json records about the invocation. Build metadata
/// comes from support/BuildInfo.h at write time.
struct ManifestInfo {
  std::string Tool = "bor-bench";
  std::string Command; ///< the argv, space-joined

  uint64_t Scale = 1;
  unsigned Threads = 1;
  bool Sample = false;
  SamplingPlan Plan;
  bool CkptLibrary = false;
  unsigned CkptRegions = 0;

  /// Degradation accounting, summed over the run's experiments; emitted
  /// only when the run was partial (any cell timed out).
  size_t CellsTimedOut = 0;

  std::vector<std::string> Experiments;

  /// Dir-relative result file per experiment, in run order.
  std::vector<std::pair<std::string, std::string>> ResultFiles;
  std::string CountersFile;   ///< empty = no counter snapshot
  std::string TimeSeriesFile; ///< empty = no time series
  std::string TraceFile;      ///< as given on the command line, may be empty
};

/// Writes DIR/manifest.json (creating DIR). Returns false with \p Err set
/// on I/O failure.
bool writeManifest(const std::string &Dir, const ManifestInfo &Info,
                   std::string &Err);

//===----------------------------------------------------------------------===//
// Loading (the bor-report side)
//===----------------------------------------------------------------------===//

/// One metric value as loaded from a results file.
struct LoadedMetric {
  bool IsNumber = true;
  double Num = 0.0;
  std::string Text; ///< Text metrics (verdicts etc.)
};

/// One cell or summary record.
struct LoadedRecord {
  bool IsSummary = false;
  int64_t Cell = -1; ///< cell index, -1 for summaries
  std::vector<std::pair<std::string, std::string>> Params;
  std::vector<std::pair<std::string, LoadedMetric>> Metrics;

  const LoadedMetric *findMetric(const std::string &Name) const;

  /// "k1=v1 k2=v2 ..." — the identity used to match records across runs.
  std::string paramKey() const;
};

struct LoadedExperiment {
  std::string Name;
  std::string Title;
  uint64_t Cells = 0; ///< header's declared grid size
  std::vector<LoadedRecord> Records;
};

/// One per-interval series from timeseries.json.
struct LoadedSeries {
  std::string Experiment;
  int64_t Cell = 0;
  uint64_t Run = 0;
  std::vector<double> Ipc, FlushFrac, BrrRate, FfInsts;
};

/// A fully loaded comparison side: a run dir or a bare results file.
struct LoadedRun {
  std::string Source; ///< path as given (report header)
  bool HasManifest = false;

  // Manifest metadata (empty strings when HasManifest is false).
  std::string Command, GitRevision, Compiler, BuildType;
  uint64_t Scale = 0;
  unsigned Threads = 0;
  bool Sample = false;

  std::vector<LoadedExperiment> Experiments;
  std::vector<std::pair<std::string, uint64_t>> Counters; ///< name-sorted
  std::vector<LoadedSeries> Series;

  const LoadedExperiment *findExperiment(const std::string &Name) const;
};

/// Parses one JSON-lines results stream (possibly several experiments
/// appended) into \p Out. Returns false with \p Err set on malformed
/// input.
bool parseResultsJsonLines(const std::string &Text,
                           std::vector<LoadedExperiment> &Out,
                           std::string &Err);

/// Loads \p Path — a run directory (containing manifest.json), a path to
/// a manifest.json itself, or a bare JSON-lines results file — into
/// \p Out. Returns false with \p Err set when anything cannot be read or
/// parsed.
bool loadRun(const std::string &Path, LoadedRun &Out, std::string &Err);

} // namespace exp
} // namespace bor

#endif // BOR_EXP_MANIFEST_H
