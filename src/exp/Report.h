//===- exp/Report.h - CI-aware perf-regression comparison -----------------===//
//
// Part of the branch-on-random reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The analysis behind the bor-report tool: compare two loaded runs
/// (run dirs or committed baselines), metric by metric and counter by
/// counter, and render a Markdown report. Result records carry no
/// wall-clock, so every metric is deterministic and every one is compared
/// (an older sampled run's *_ms fields, as the baseline, are listed as
/// present only in the baseline). Two rules make the verdict trustworthy:
///
///   * a metric with a 95% CI sibling (ipc next to ipc_ci95) is only
///     significant when the intervals do not overlap, so sampling noise
///     cannot trip the gate;
///   * direction matters: higher cycles is a regression, higher IPC is an
///     improvement, and a metric with no known direction counts as a
///     regression when it moves (a silent behavior change is worth a red
///     build).
///
/// See docs/REPORTING.md for the workflow.
///
//===----------------------------------------------------------------------===//

#ifndef BOR_EXP_REPORT_H
#define BOR_EXP_REPORT_H

#include "exp/Manifest.h"

#include <string>
#include <utility>
#include <vector>

namespace bor {
namespace exp {

struct ReportOptions {
  /// Relative-change gate: |delta| must exceed this many percent (of the
  /// baseline value) to count at all.
  double ThresholdPct = 2.0;

  /// Per-metric overrides of ThresholdPct (--threshold name=pct).
  std::vector<std::pair<std::string, double>> MetricThresholds;

  size_t MaxRows = 50;         ///< metric-change table cap
  size_t MaxCounterRows = 25;  ///< counter-diff table cap
  size_t MaxSparklines = 8;    ///< per-interval series cap
};

struct ReportResult {
  std::string Markdown;
  unsigned Regressions = 0;  ///< gated metric changes for the worse
  unsigned Improvements = 0; ///< significant changes for the better
  unsigned Structural = 0;   ///< missing experiments/records/metrics

  bool clean() const { return Regressions == 0 && Structural == 0; }
};

/// Compares \p Base against \p Cand and renders the Markdown report.
ReportResult compareRuns(const LoadedRun &Base, const LoadedRun &Cand,
                         const ReportOptions &Opt = ReportOptions());

/// Eight-level Unicode sparkline of \p Values (min..max normalized;
/// constant series render mid-level). Empty input renders empty.
std::string sparkline(const std::vector<double> &Values);

} // namespace exp
} // namespace bor

#endif // BOR_EXP_REPORT_H
