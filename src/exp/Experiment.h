//===- exp/Experiment.h - Declarative experiment specs and the registry --===//
//
// Part of the branch-on-random reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The experiment-runner subsystem's core types. An ExperimentSpec is a
/// declarative description of one paper experiment: a parameter grid (one
/// ParamSet per cell), a thread-safe run functor that measures one cell
/// and returns a RunRecord, and optional serial setup/summary stages. The
/// process-wide ExperimentRegistry maps names ("fig13", "ablation", ...)
/// to spec factories so a single driver, bor-bench, can list and run
/// everything.
///
//===----------------------------------------------------------------------===//

#ifndef BOR_EXP_EXPERIMENT_H
#define BOR_EXP_EXPERIMENT_H

#include "exp/RunRecord.h"
#include "sample/SamplingPlan.h"

#include <functional>
#include <map>
#include <string>
#include <vector>

namespace bor {

namespace telemetry {
struct TelemetrySink;
} // namespace telemetry

namespace ckpt {
class LibraryPool;
} // namespace ckpt

namespace exp {

/// The coordinates of one grid cell, as ordered key/value strings (they
/// become both table columns and JSON fields).
using ParamSet = std::vector<std::pair<std::string, std::string>>;

/// Global knobs a factory may use to shrink an experiment for smoke tests
/// and CI (workload sizes divide by Scale; the grid shape is unchanged so
/// records stay comparable across scales). Timing factories capture the
/// whole value into their run functors and hand it to the harness drivers
/// (exp/Harness.h), which pick the engine from it.
struct ExperimentOptions {
  uint64_t Scale = 1;

  /// Sampled-simulation mode (bor-bench --sample): timed cells run
  /// through the SampledRunner under Plan instead of through a full
  /// detailed Pipeline. Purely functional cells ignore it.
  bool Sample = false;
  SamplingPlan Plan;

  /// Observability sink (bor-bench --trace): the harness drivers emit
  /// sampled-phase spans through it. Null when telemetry is off; the sink
  /// must outlive every cell run.
  const telemetry::TelemetrySink *Telemetry = nullptr;

  /// Checkpoint-library mode (bor-bench --ckpt-library): sampled cells
  /// resume their fast-forward spans from a shared COW checkpoint library
  /// instead of re-executing the prefix. One pool serves the whole grid —
  /// cells with the same (program, decider config, period) share one
  /// build — and must outlive every cell run. Null means plain sampling;
  /// ignored when Sample is off.
  ckpt::LibraryPool *CkptPool = nullptr;
};

/// One registered experiment, fully described.
struct ExperimentSpec {
  std::string Name;  ///< registry key; also names BENCH_<Name>.json
  std::string Title; ///< heading printed before the results table
  std::string Notes; ///< commentary printed after the results table

  /// The parameter grid, in the order results are reported.
  std::vector<ParamSet> Cells;

  /// Optional serial stage run once before any cell (shared baselines).
  std::function<void()> Setup;

  /// Measures cell \p Cells[Index]. MUST be thread-safe and deterministic:
  /// cells run concurrently and every run constructs its own Pipeline /
  /// BrrPolicy state from the cell's parameters alone.
  std::function<RunRecord(const ParamSet &Cell, size_t Index)> Run;

  /// Optional serial stage deriving summary records (averages, spreads,
  /// verdicts) from the per-cell records, in order.
  std::function<std::vector<RunRecord>(const std::vector<RunRecord> &)>
      Summarize;
};

/// Process-wide name -> factory map. Factories build a fresh spec per
/// invocation so option-dependent grids (scaled workloads) stay pure.
class ExperimentRegistry {
public:
  using Factory = std::function<ExperimentSpec(const ExperimentOptions &)>;

  static ExperimentRegistry &instance();

  /// Registers \p F under \p Name. Re-registering a name replaces the
  /// previous factory (useful in tests; does not happen in production).
  void add(std::string Name, std::string Description, Factory F);

  bool contains(const std::string &Name) const;

  /// Instantiates the named experiment. Asserts the name is registered.
  ExperimentSpec create(const std::string &Name,
                        const ExperimentOptions &Options) const;

  /// Name/description pairs, sorted by name.
  std::vector<std::pair<std::string, std::string>> list() const;

private:
  struct Entry {
    std::string Description;
    Factory Make;
  };
  std::map<std::string, Entry> Entries;
};

} // namespace exp
} // namespace bor

#endif // BOR_EXP_EXPERIMENT_H
