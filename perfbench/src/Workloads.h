//===- perfbench/src/Workloads.h - The benchmark's workloads --------------===//
//
// Part of the branch-on-random reproduction benchmark.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The four workloads. Each one is generated from a seed, prepared once
/// (the set-up step) and then run as one or more experiment grids on the
/// library's exp::runExperiment runner. Cells call the same public layer
/// functions the registered experiments call, in the same order, so at
/// seed 0 every record equals the registered experiment's record; the
/// calls are wrapped in Spans so a traced run can attribute cell time to
/// layers.
///
///   fig13_full      Figure 13 grid on the cold detailed Pipeline
///   fig13_sampled   the same grid under SMARTS-style sampling
///   fig13_ckpt_warm the sampled grid resumed from an on-disk checkpoint
///                   library that the set-up step builds
///   accuracy        the Figure 9 and 10 grids through runAccuracy
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Trace.h"

#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// Runner worker threads: half of a 4-core host, leaving room for the
/// rest of the system so the timings stay steady.
constexpr unsigned Threads = 2;

/// What selects and sizes a workload.
struct WorkloadOptions {
  std::string Name;
  uint64_t Seed = 0;   ///< 0 reproduces the registered experiments
  uint64_t Scale = 0;  ///< bor-bench --scale; 0 picks the workload default
  std::string WorkDir; ///< scratch space (checkpoint cache)
  std::string JsonDir; ///< where the JSON-lines sink writes each grid
};

/// One timed repetition of a workload's grid.
struct GridRun {
  double WallS = 0;
  /// Per-cell latency, timed around each Run call and around the Setup
  /// baseline.
  std::vector<double> CellMs;
  /// One digest per record the sink saw (cells, then summaries), over
  /// every field except the *_ms wall-clock ones.
  std::vector<std::string> Digests;
  /// The workload's fixed work (simulated instructions, or invocations
  /// for accuracy) as this repetition's engines reported it.
  uint64_t Work = 0;
  /// Cells whose engine-reported work differs from the set-up reference,
  /// or that threw.
  size_t BadCells = 0;
  /// A repetition-wide check failure (every cell then counts as failed).
  std::string Error;
};

/// Extra per-layer figures a workload measures outside its grids.
struct TraceExtras {
  double ResumeMs = 0;      ///< ckpt: COW resumes replayed, scaled to the run
  uint64_t Libraries = 0;   ///< ckpt: libraries the timed grid loaded
  uint64_t Resumes = 0;     ///< ckpt: resumes the timed grid made
  uint64_t PagesShared = 0; ///< ckpt: pages COW-attached by resumes
  uint64_t PagesCopied = 0; ///< ckpt: pages copied on first write
  uint64_t FfExecuted = 0;  ///< instructions fast-forward really executed
};

class Workload {
public:
  virtual ~Workload() = default;

  /// The preparation step the driver times as setup_s: builds the inputs
  /// and the per-cell reference work the grids are checked against.
  /// Returns "" or a description of what failed.
  virtual std::string setup(LayerTrace *T) = 0;

  /// One timed repetition of the workload's grids.
  virtual GridRun runGrid(LayerTrace *T) = 0;

  /// Untimed cross-check after the timed repetitions; returns how many of
  /// \p Digests (the last repetition's) it could not confirm.
  virtual size_t verify(const std::vector<std::string> &Digests) {
    (void)Digests;
    return 0;
  }

  /// Figures only the traced run reports (measured after the grids).
  virtual TraceExtras traceExtras() { return {}; }

  /// True for the timing-simulation workloads (instructions as work).
  virtual bool timing() const = 0;

  uint64_t scale() const { return Scale; }

protected:
  uint64_t Scale = 1;
};

/// Builds the named workload; nullptr for an unknown name.
std::unique_ptr<Workload> makeWorkload(const WorkloadOptions &O);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
