//===- telemetry/TimeSeries.h - Per-interval sampled-run time series ------===//
//
// Part of the branch-on-random reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-interval view of a sampled run: where counters give one merged
/// total and RunRecord metrics give one mean with a CI, the TimeSeries
/// sink keeps the *sequence* — IPC, flush fraction, brr rate and executed
/// fast-forward instructions for every detailed interval, in stream order.
/// bor-report renders these as sparklines; the columnar JSON it writes is
/// the manifest's `timeseries.json`.
///
/// Determinism contract: a series is tagged by (experiment, cell, run)
/// through the RAII Scope the experiment Runner installs around each cell
/// (cells execute wholly on one worker thread, and runs within a cell are
/// sequential), so writeTo() output is byte-identical for any --threads
/// value — the same guarantee result records and counter snapshots give.
///
/// Cost contract: a null TimeSeries pointer in the TelemetrySink is the
/// off switch; the sampled runner then never allocates or records, so the
/// feature costs one pointer test per sampled run when off.
///
//===----------------------------------------------------------------------===//

#ifndef BOR_TELEMETRY_TIMESERIES_H
#define BOR_TELEMETRY_TIMESERIES_H

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace bor {
namespace telemetry {

/// One detailed interval's measurements, in the order the intervals ran.
struct IntervalSample {
  double Ipc = 0.0;       ///< measured-window instructions per cycle
  double FlushFrac = 0.0; ///< flush cycles / interval cycles
  double BrrRate = 0.0;   ///< brr executions per kilo-instruction
  uint64_t FfInsts = 0;   ///< fast-forward instructions *executed* after
                          ///< this interval (0 when a checkpoint resume
                          ///< skipped the span)
};

/// Collects per-interval series from sampled runs, each tagged with the
/// (experiment, cell, run) it came from. Thread-safe; rendering sorts by
/// tag, never by arrival order.
class TimeSeries {
public:
  /// Tags every record() call made on the current thread while alive.
  /// The Runner wraps Setup (Cell = kSetupCell), each cell (its index)
  /// and Summarize (kSummarizeCell); sampled runs outside any scope land
  /// under ("", kUntaggedCell). Scopes nest: destruction restores the
  /// previous tag.
  class Scope {
  public:
    Scope(std::string Experiment, int64_t Cell);
    ~Scope();

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    std::string PrevExperiment;
    int64_t PrevCell;
    uint64_t PrevNextRun;
  };

  static constexpr int64_t kSetupCell = -1;
  static constexpr int64_t kSummarizeCell = -2;
  static constexpr int64_t kUntaggedCell = -3;

  /// Adds one complete sampled run's interval sequence under the current
  /// thread's scope tag. Consecutive runs under one scope get run indices
  /// 0, 1, 2, ...
  void record(std::vector<IntervalSample> Samples);

  size_t numSeries() const;

  /// Columnar JSON, one line per series, sorted by (experiment, cell,
  /// run): {"schema":"bor-timeseries-v1","series":[...]}. Deterministic
  /// for identical work regardless of thread count.
  std::string renderJson() const;

  /// Renders to \p Path (creating parent directories). Returns false with
  /// \p Err set when the file cannot be written.
  bool writeTo(const std::string &Path, std::string &Err) const;

private:
  struct Series {
    std::string Experiment;
    int64_t Cell = kUntaggedCell;
    uint64_t Run = 0;
    std::vector<IntervalSample> Samples;
  };

  mutable std::mutex Mutex;
  std::vector<Series> All;
};

} // namespace telemetry
} // namespace bor

#endif // BOR_TELEMETRY_TIMESERIES_H
