//===- sample/SampledRunner.h - SMARTS-style sampled simulation -----------===//
//
// Part of the branch-on-random reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Systematic interval sampling over one workload: the committed stream is
/// executed functionally end to end (so architectural results are exactly
/// those of a full run — every instruction executes once, through one
/// Machine and one BrrDecider), while only a small periodic slice runs
/// through the detailed Pipeline:
///
///   per period: functional warming | detailed interval | fast-forward
///
/// Each detailed interval opens with a discarded pre-roll that absorbs the
/// pipeline-fill ramp, then measures MeasureInsts instructions. The
/// per-interval IPC, flush-fraction and brr-rate samples aggregate into
/// mean estimates with 95% confidence intervals (support/Stats.h), so a
/// sampled result quantifies its own statistical error. Validation lives
/// in the `sample_error` experiment (src/exp/ExperimentsSample.cpp) and
/// docs/SAMPLING.md.
///
//===----------------------------------------------------------------------===//

#ifndef BOR_SAMPLE_SAMPLEDRUNNER_H
#define BOR_SAMPLE_SAMPLEDRUNNER_H

#include "sample/SamplingPlan.h"
#include "support/Stats.h"
#include "telemetry/Telemetry.h"
#include "uarch/Pipeline.h"

namespace bor {

namespace ckpt {
class CheckpointLibrary;
} // namespace ckpt

/// A marker observed anywhere in a sampled run, positioned by its global
/// committed-instruction index (1-based, counting every instruction in the
/// stream regardless of which phase executed it). Sampled runs estimate
/// ROI cycles as an instruction span divided by the mean IPC, so the
/// instruction index — exact in every phase — replaces the commit cycle.
struct SampledMarker {
  int32_t Id = 0;
  uint64_t GlobalInst = 0;
};

/// Everything a sampled execution produces.
struct SampledResult {
  SamplingPlan Plan;

  /// Phase totals; TotalInsts is the full stream length and always equals
  /// what an uninterrupted functional run retires.
  uint64_t TotalInsts = 0;
  uint64_t FastForwardInsts = 0;
  uint64_t WarmedInsts = 0;
  uint64_t PrerollInsts = 0;
  uint64_t MeasuredInsts = 0;
  uint64_t NumIntervals = 0;
  bool Halted = false;

  /// Detailed-model statistics summed over the measured windows only
  /// (pre-roll excluded).
  PipelineStats Detailed;

  /// Per-interval samples: IPC, flush fraction (flush cycles over interval
  /// cycles) and brr executions per kilo-instruction.
  RunningStat IpcSamples;
  RunningStat FlushFracSamples;
  RunningStat BrrRateSamples;

  /// Self-profiling phase timers: wall-clock spent fast-forwarding vs
  /// functionally warming vs running the detailed intervals (pre-roll +
  /// measurement). Always collected — one steady_clock read per phase
  /// transition — so sampled cells can report where their time went (the
  /// ROADMAP's interpreter-profiling question) without a trace attached.
  double FastForwardMs = 0;
  double WarmMs = 0;
  double MeasureMs = 0;

  std::vector<SampledMarker> Markers;

  double ipcMean() const { return IpcSamples.mean(); }
  double ipcCi95() const { return IpcSamples.ci95HalfWidth(); }

  /// Estimated cycles for a span of \p Insts committed instructions, from
  /// the sampled mean IPC; 0 when nothing was measured.
  double estimatedCycles(uint64_t Insts) const {
    return ipcMean() > 0.0 ? static_cast<double>(Insts) / ipcMean() : 0.0;
  }

  /// Instruction span between the first two markers (the harness ROI
  /// convention, as RunResult::roiCycles but in instructions).
  uint64_t roiInsts() const {
    assert(Markers.size() >= 2 && "run committed fewer than two markers");
    return Markers[1].GlobalInst - Markers[0].GlobalInst;
  }
};

/// Runs \p DP's program to completion under \p Plan. \p Decider resolves
/// every brr in the stream (all phases share it, so the outcome sequence
/// is identical to an unsampled run's); pass nullptr for a config-default
/// LFSR decider. \p MaxInsts bounds the total stream as Pipeline::run's
/// budget does. \p Telemetry (optional) adds one trace span per phase
/// (warm / detailed / fast-forward) and publishes sample.* counters at the
/// end of the run. \p DP must outlive the call; decode once per workload
/// and share the image across every sampled (and full) run of it.
SampledResult runSampled(const DecodedProgram &DP, const SamplingPlan &Plan,
                         const PipelineConfig &Config = PipelineConfig(),
                         BrrDecider *Decider = nullptr,
                         uint64_t MaxInsts = ~0ULL,
                         const telemetry::TelemetrySink *Telemetry = nullptr);

/// As above, but resumes from existing architectural state in \p M (e.g. a
/// restored checkpoint; the image is not reloaded) and leaves the final
/// state in place. Marker positions count from the resume point.
SampledResult runSampled(const DecodedProgram &DP, Machine &M,
                         const SamplingPlan &Plan,
                         const PipelineConfig &Config, BrrDecider &Decider,
                         uint64_t MaxInsts = ~0ULL,
                         const telemetry::TelemetrySink *Telemetry = nullptr);

/// Library-backed sampled run: identical phase structure to runSampled,
/// but every fast-forward span whose end point has a checkpoint in \p Lib
/// is replaced by a COW resume — the machine re-attaches the library's
/// shared pages instead of re-executing the prefix, and the markers the
/// span would have observed are spliced from the library's record. The
/// library must have been built for the same program, the same
/// PipelineConfig::Brr decider configuration and Plan.PeriodInsts as its
/// capture period; spans without a matching checkpoint (library truncated
/// by its build budget, MaxInsts mid-period) execute functionally, so the
/// result is ALWAYS field-identical to the plain runSampled result except
/// for the wall-clock phase timers.
///
/// Publishes ckpt.resumes, ckpt.insts.skipped and the
/// ckpt.pages.{shared,copied} COW totals alongside the usual sample.*
/// counters; sample.insts.fast_forward counts only instructions actually
/// executed, so the plain-vs-library ratio of that counter is the
/// measured redundancy win.
SampledResult
runSampledFromLibrary(const DecodedProgram &DP,
                      const ckpt::CheckpointLibrary &Lib,
                      const SamplingPlan &Plan, const PipelineConfig &Config,
                      uint64_t MaxInsts = ~0ULL,
                      const telemetry::TelemetrySink *Telemetry = nullptr);

} // namespace bor

#endif // BOR_SAMPLE_SAMPLEDRUNNER_H
