//===- sample/Warmup.h - Functional µarch warming -------------------------===//
//
// Part of the branch-on-random reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Functional warming for sampled simulation: drives the cache hierarchy,
/// tournament predictor, BTB and RAS from the interpreter's committed
/// instruction stream without computing any timing. Applied for the
/// WarmupInsts instructions before each detailed interval, it removes the
/// cold-structure bias that makes naively sampled IPC estimates wrong
/// (docs/SAMPLING.md).
///
/// The branch-structure update rules are literally Pipeline's: both sides
/// delegate to the shared BranchUpdatePolicy (uarch/BranchPolicy.h), so
/// structures warmed here are in the same state a detailed run would have
/// left them in by construction. This class adds the cache side — the same
/// one-probe-per-line I-cache rule and per-load/store D-cache access the
/// timed fetch/execute paths make, minus the latency bookkeeping. Under
/// PerfectBranchPrediction the policy is a no-op, so only the caches warm.
///
//===----------------------------------------------------------------------===//

#ifndef BOR_SAMPLE_WARMUP_H
#define BOR_SAMPLE_WARMUP_H

#include "sim/Interpreter.h"
#include "uarch/BranchPolicy.h"
#include "uarch/MicroarchState.h"

namespace bor {

class FunctionalWarmer {
public:
  FunctionalWarmer(MicroarchState &Uarch, const PipelineConfig &Config)
      : Uarch(Uarch), Config(Config), Policy(Uarch, Config) {}

  /// Steps \p Oracle for up to \p Insts instructions (or until halt),
  /// warming structures from each committed record. Returns the number of
  /// instructions actually consumed.
  uint64_t warm(Interpreter &Oracle, uint64_t Insts);

private:
  /// Feeds one committed instruction through the structure-update rules.
  void observe(const ExecRecord &R);

  MicroarchState &Uarch;
  const PipelineConfig &Config;
  BranchUpdatePolicy Policy;
  uint64_t LastFetchLine = ~0ULL;
};

} // namespace bor

#endif // BOR_SAMPLE_WARMUP_H
