//===- exp/Experiments.h - The paper's registered experiments ------------===//
//
// Part of the branch-on-random reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Registration entry point for the paper's evaluation experiments:
/// Figures 2/9/10/12/13/14, the design ablation, the Section 4.2
/// sensitivity sweep, and the results the paper states outside its
/// figures (the Section 1 kernel suite, the Section 3.3 hardware cost,
/// the Section 5.2 misprediction split, the Section 5.3 baseline and the
/// Section 7 convergent profiler). Call registerAllExperiments() once at
/// startup -- bor-bench does -- then drive any experiment through the
/// ExperimentRegistry.
///
//===----------------------------------------------------------------------===//

#ifndef BOR_EXP_EXPERIMENTS_H
#define BOR_EXP_EXPERIMENTS_H

namespace bor {
namespace exp {

/// Registers every paper experiment with ExperimentRegistry::instance().
/// Idempotent.
void registerAllExperiments();

} // namespace exp
} // namespace bor

#endif // BOR_EXP_EXPERIMENTS_H
