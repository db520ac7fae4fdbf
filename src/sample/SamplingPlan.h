//===- sample/SamplingPlan.h - Systematic sampling schedule ---------------===//
//
// Part of the branch-on-random reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The schedule of a SMARTS-style systematically sampled simulation: the
/// committed instruction stream is divided into fixed-length periods, and
/// each period opens with a functionally-warmed detailed measurement
/// interval. Within one period of PeriodInsts instructions:
///
///   functional warming (caches, BP)     WarmupInsts
///   detailed measurement (Pipeline)     MeasureInsts (+ discarded pre-roll)
///   fast-forward (functional only)      the rest of the period
///
/// The per-interval IPC samples feed a standard-error estimate, so sampled
/// results carry their own confidence intervals (docs/SAMPLING.md).
///
//===----------------------------------------------------------------------===//

#ifndef BOR_SAMPLE_SAMPLINGPLAN_H
#define BOR_SAMPLE_SAMPLINGPLAN_H

#include <cstdint>

namespace bor {

struct SamplingPlan {
  /// Instructions per sampling period (fast-forward + warm + measure).
  uint64_t PeriodInsts = 100000;

  /// Functional-warming instructions immediately before each detailed
  /// interval: committed stream drives the caches, predictor, BTB and RAS
  /// without timing, so measurement starts from trained structures.
  uint64_t WarmupInsts = 3000;

  /// Detailed (cycle-timed) instructions per interval.
  uint64_t MeasureInsts = 1000;

  /// Detailed pre-roll: extra timed instructions at the head of each
  /// interval whose cycles are discarded, absorbing the pipeline-fill
  /// ramp so the measured window reflects steady state.
  uint64_t DetailedWarmupInsts = 200;

  /// Warm, measure and pre-roll fit in one period. Checked by subtraction,
  /// so parts near 2^64 cannot wrap their sum back under the period.
  bool valid() const {
    return PeriodInsts > 0 && MeasureInsts > 0 &&
           WarmupInsts <= PeriodInsts &&
           MeasureInsts <= PeriodInsts - WarmupInsts &&
           DetailedWarmupInsts <= PeriodInsts - WarmupInsts - MeasureInsts;
  }

  /// Fraction of the stream that runs through the detailed model.
  double detailedFraction() const {
    return PeriodInsts ? static_cast<double>(MeasureInsts +
                                             DetailedWarmupInsts) /
                             static_cast<double>(PeriodInsts)
                       : 0.0;
  }
};

} // namespace bor

#endif // BOR_SAMPLE_SAMPLINGPLAN_H
