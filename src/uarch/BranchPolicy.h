//===- uarch/BranchPolicy.h - Shared predictor/BTB/RAS update policy -----===//
//
// Part of the branch-on-random reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The front-end structure-update policy applied to every committed
/// control-flow instruction, shared by the two consumers of a
/// MicroarchState: the timed Pipeline and the untimed FunctionalWarmer.
/// Keeping both on one policy type guarantees structures functionally
/// warmed between detailed intervals are in exactly the state a detailed
/// run would have left them in — the property sampled simulation depends
/// on (docs/SAMPLING.md).
///
/// The rules (Section 5.1, and Section 3.3 for brr):
///  * conditional branches predict through the tournament predictor gated
///    by a BTB hit, train on resolution, repair history on mispredicts,
///    and insert their target when taken;
///  * branch-on-random never touches predictor, BTB or RAS;
///  * direct jumps push the RAS when they link, and insert into the BTB
///    on a miss;
///  * returns (jalr r0, lr) predict through the RAS; other indirects
///    predict through the BTB and insert their target; linking indirects
///    push the RAS.
///
/// The timed and warming entry points perform the same structure
/// operations in the same order, with one deliberate exception: a
/// non-return indirect's BTB *lookup* happens only on the timed path,
/// where a target prediction is actually made and validated. Functional
/// warming predicts nothing, so it applies only the insert/update rules —
/// matching the recency state an interleaved warm/detailed schedule has
/// always produced, which keeps sampled results bit-stable.
///
//===----------------------------------------------------------------------===//

#ifndef BOR_UARCH_BRANCHPOLICY_H
#define BOR_UARCH_BRANCHPOLICY_H

#include "sim/Interpreter.h"
#include "uarch/MicroarchState.h"

namespace bor {

/// Front-end classification of one committed control instruction under the
/// update policy.
enum class BranchOutcome : uint8_t {
  /// Not subject to the policy (non-control, halt, or an invisible brr
  /// falling through).
  None,
  /// Correctly predicted taken at fetch: fetch breaks, no bubble.
  PredictedTaken,
  /// Resolved in decode (taken brr, BTB-missing direct jump): short flush.
  DecodeRedirect,
  /// Resolved in the back end (cond/indirect mispredict): full flush.
  BackendRedirect,
};

/// The shared update policy. Stateless beyond its references; both
/// consumers construct one over the MicroarchState they train.
class BranchUpdatePolicy {
public:
  BranchUpdatePolicy(MicroarchState &Uarch, const PipelineConfig &Config)
      : Uarch(Uarch), Config(Config) {}

  /// Timed path (Pipeline): applies the update rules and classifies the
  /// front-end outcome for timing. Must not be called under
  /// PerfectBranchPrediction (the oracle front end bypasses the
  /// structures entirely). Both entry points read the record's decoded
  /// kind; any kind but the four branch kinds is a no-op.
  BranchOutcome observeTimed(const ExecRecord &R);

  /// Warming path (FunctionalWarmer): applies the same update rules
  /// without forming a target prediction. No-op under
  /// PerfectBranchPrediction.
  void observeWarming(const ExecRecord &R);

private:
  MicroarchState &Uarch;
  const PipelineConfig &Config;
};

} // namespace bor

#endif // BOR_UARCH_BRANCHPOLICY_H
