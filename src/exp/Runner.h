//===- exp/Runner.h - Parallel, deterministic experiment execution -------===//
//
// Part of the branch-on-random reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes an ExperimentSpec's grid: Setup once, then every cell on a
/// fixed-size ThreadPool (one worker when Threads == 1), then the serial
/// Summarize stage. Results are collected into spec order regardless of
/// completion order, so the records a sink sees (and therefore the JSON
/// written) are byte-identical for any thread count: parallelism is pure
/// mechanism, never policy. Optional RunnerHooks add observability — a
/// trace span per stage and cell, and a periodic progress heartbeat on
/// stderr — without touching the measurement path, plus an optional
/// per-cell wall-clock budget.
///
//===----------------------------------------------------------------------===//

#ifndef BOR_EXP_RUNNER_H
#define BOR_EXP_RUNNER_H

#include "exp/Experiment.h"
#include "exp/ResultSink.h"

namespace bor {
namespace exp {

/// How (and whether) progress reaches stderr while a grid runs.
enum class ProgressMode {
  Off,
  Text, ///< human line: "[bor-bench] fig13: 34/80 cells, ..."
  Jsonl ///< one JSON object per tick (machine-readable heartbeat)
};

/// Per-call knobs for one runExperiment call.
struct RunnerHooks {
  /// Emits spans for Setup, every cell, and Summarize when non-null (with
  /// a non-null Trace), and tags per-interval time series per cell (with
  /// a non-null Series).
  const telemetry::TelemetrySink *Telemetry = nullptr;

  /// Progress reporting (cells done/total, elapsed, ETA) to stderr
  /// roughly every two seconds. The driver picks Text only when stderr is
  /// a TTY so piped output stays clean; Jsonl is the machine-readable
  /// heartbeat (--progress jsonl / BOR_HEARTBEAT=json).
  ProgressMode Progress = ProgressMode::Off;

  /// Per-cell wall-clock budget in seconds (--cell-timeout); 0 = none.
  /// With a budget every cell runs on an abandonable thread: a cell that
  /// exceeds it is marked timed out and the grid moves on. The abandoned
  /// computation cannot be interrupted — it keeps running detached (its
  /// result is discarded) until it finishes or the process exits. To keep
  /// that safe, timed cells run a value-captured copy of the spec's run
  /// functor without the trace/time-series wrapping, so an abandoned cell
  /// never touches telemetry buffers the caller may since have finalized.
  double CellTimeoutS = 0;
};

/// Everything one grid run produced. A cell that timed out is recorded as
/// an explicit marker (the cell's params plus cell_status "timeout"), and
/// the summary stage is skipped, since summaries over an incomplete grid
/// would silently lie.
struct GridResult {
  std::vector<RunRecord> Records; ///< per-cell, spec order
  size_t CellsTimedOut = 0;

  bool partial() const { return CellsTimedOut != 0; }
};

/// Runs \p Spec with \p Threads in-process workers and feeds every record
/// to each of \p Sinks in deterministic spec order. Returns the per-cell
/// records (without the summary records) and the timed-out cell count.
GridResult runExperiment(const ExperimentSpec &Spec, unsigned Threads,
                         const std::vector<ResultSink *> &Sinks,
                         const RunnerHooks &Hooks = RunnerHooks());

} // namespace exp
} // namespace bor

#endif // BOR_EXP_RUNNER_H
