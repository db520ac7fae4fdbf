//===- exp/Harness.h - Shared drivers for the paper's experiments --------===//
//
// Part of the branch-on-random reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The measurement drivers shared by the registered experiments (and by
/// perfbench, which times them): the accuracy-experiment driver
/// (Figures 9/10 and the sensitivity study) and the timed-microbenchmark
/// driver over the Section 5.3 workload (Figures 2/13/14 and the
/// ablations). They live in the library so that every experiment, and
/// the benchmark, runs the one copy.
///
/// Every function here is thread-safe: all state is constructed per call
/// from the arguments, which is what lets the ParallelRunner fan cells out
/// across cores.
///
//===----------------------------------------------------------------------===//

#ifndef BOR_EXP_HARNESS_H
#define BOR_EXP_HARNESS_H

#include "profile/TraceGen.h"
#include "sample/SampledRunner.h"
#include "uarch/Pipeline.h"
#include "workloads/Microbench.h"

#include <vector>

namespace bor {

namespace exp {

struct ExperimentOptions;

/// Accuracy of the three Figure-9/10 sampling techniques on one benchmark
/// stream. The LFSR technique is run with several seeds in the same pass
/// so the tables can report its seed-to-seed spread (the counters are
/// deterministic and need no such treatment).
struct AccuracyRow {
  double SwCount = 0;
  double HwCount = 0;
  double Random = 0;       ///< mean over seeds
  double RandomSpread = 0; ///< max - min over seeds
};

AccuracyRow runAccuracy(const BenchmarkModel &Model, uint64_t Interval,
                        uint64_t BrrSeed);

/// Timed microbenchmark run: region-of-interest cycles plus the stats the
/// figures report. In sampled mode RoiCycles is an estimate (ROI
/// instruction span over the sampled mean IPC) and Stats is synthesized by
/// scaling the measured intervals' counters up to the full stream, so
/// downstream metric code works identically; Sampled / IpcCi95 /
/// SampleIntervals report the estimate's provenance and precision.
struct MicroRun {
  uint64_t RoiCycles = 0;
  uint64_t DynamicSiteVisits = 0;
  PipelineStats Stats;
  bool Sampled = false;
  double IpcCi95 = 0;          ///< 95% CI half-width on the sampled IPC.
  uint64_t SampleIntervals = 0; ///< detailed intervals behind the estimate.

  /// Sampled mode only: wall-clock the run spent per phase (the sampler's
  /// self-profiling timers; all zero in full-pipeline runs).
  double FfMs = 0;
  double WarmMs = 0;
  double MeasureMs = 0;
};

/// Runs the microbenchmark on \p Machine through the full detailed
/// Pipeline, or — when \p O.Sample is set — through
/// runSampledMaybeLibrary, which executes the same instruction stream but
/// times only the plan's periodic intervals. \p O.Telemetry (optional)
/// enables trace spans and detail events in whichever engine runs.
MicroRun runMicrobench(const InstrumentationConfig &Instr, size_t NumChars,
                       const PipelineConfig &Machine,
                       const ExperimentOptions &O);

InstrumentationConfig microConfig(SamplingFramework F, DuplicationMode Dup,
                                  uint64_t Interval, bool IncludeBody);

/// One Figure 13 framework arm: the sampling framework, its duplication
/// mode, and whether the instrumentation bodies run.
struct MicroArm {
  const char *Name;
  SamplingFramework F;
  DuplicationMode Dup;
  bool Body;
};

/// The eight Figure 13 arms in the figure's order. fig13 sweeps them over
/// figureIntervals(); sample_error validates the sampler on the same arms.
inline constexpr MicroArm Fig13Arms[] = {
    {"cbs+inst (no-dup)", SamplingFramework::CounterBased,
     DuplicationMode::NoDuplication, true},
    {"cbs (no-dup)", SamplingFramework::CounterBased,
     DuplicationMode::NoDuplication, false},
    {"cbs+inst (full-dup)", SamplingFramework::CounterBased,
     DuplicationMode::FullDuplication, true},
    {"cbs (full-dup)", SamplingFramework::CounterBased,
     DuplicationMode::FullDuplication, false},
    {"brr+inst (no-dup)", SamplingFramework::BrrBased,
     DuplicationMode::NoDuplication, true},
    {"brr (no-dup)", SamplingFramework::BrrBased,
     DuplicationMode::NoDuplication, false},
    {"brr+inst (full-dup)", SamplingFramework::BrrBased,
     DuplicationMode::FullDuplication, true},
    {"brr (full-dup)", SamplingFramework::BrrBased,
     DuplicationMode::FullDuplication, false},
};

/// One sampled execution of \p Dec under \p O.Plan (\p O.Sample must be
/// set): plain runSampled, or — when \p O.CkptPool is set — a resume of
/// every fast-forward span from the pool's shared COW checkpoint library
/// for this program, whose result is field-identical to plain sampling.
/// The engine switch every timed experiment driver routes through.
SampledResult runSampledMaybeLibrary(const DecodedProgram &Dec,
                                     const PipelineConfig &Machine,
                                     const ExperimentOptions &O);

/// The character count used by the timing figures. The paper processes
/// half a million characters; that is also affordable here.
constexpr size_t FigureChars = 500000;

/// The microbenchmark length at \p O.Scale: FigureChars / Scale, but at
/// least 2,000 characters.
size_t scaledChars(const ExperimentOptions &O);

/// The sampling-interval sweep of Figures 13/14.
std::vector<uint64_t> figureIntervals();

} // namespace exp
} // namespace bor

#endif // BOR_EXP_HARNESS_H
