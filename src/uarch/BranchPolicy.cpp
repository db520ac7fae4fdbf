//===- uarch/BranchPolicy.cpp - Shared predictor/BTB/RAS update policy ---===//

#include "uarch/BranchPolicy.h"

using namespace bor;

BranchOutcome BranchUpdatePolicy::observeTimed(const ExecRecord &R) {
  assert(!Config.PerfectBranchPrediction &&
         "oracle front end never consults the update policy");

  const DecodedInst &D = *R.D;
  switch (D.Kind) {
  case InstKind::Brr:
    if (!Config.BrrAsBackendBranch) {
      // The real design: always predicted not-taken, invisible to every
      // structure, resolved in decode (Section 3.3). Under trap emulation
      // the redirect is scheduled by the pipeline once the decode cycle is
      // known, so a taken brr classifies as a decode redirect only when
      // the hardware instruction exists.
      return R.Taken && Config.BrrTrapCycles == 0
                 ? BranchOutcome::DecodeRedirect
                 : BranchOutcome::None;
    }
    [[fallthrough]]; // the ablation: brr predicted like a cond branch
  case InstKind::CondBranch: {
    BranchPrediction Pred = Uarch.Predictor.predict(R.Pc);
    bool BtbHit = Uarch.TargetBuffer.lookup(R.Pc).has_value();
    bool Effective = Pred.Taken && BtbHit;
    Uarch.Predictor.resolve(R.Pc, Pred.HistBefore, Effective, R.Taken);
    BranchOutcome O = BranchOutcome::None;
    if (Effective != R.Taken) {
      Uarch.Predictor.repairHistory(Pred.HistBefore, R.Taken);
      O = BranchOutcome::BackendRedirect;
    } else if (Effective) {
      O = BranchOutcome::PredictedTaken;
    }
    if (R.Taken)
      Uarch.TargetBuffer.insert(R.Pc, R.NextPc);
    return O;
  }

  case InstKind::DirectJump:
    if (D.Op == Opcode::Jal && D.Rd != RegZero)
      Uarch.Ras.push(R.Pc + 4);
    if (Uarch.TargetBuffer.lookup(R.Pc))
      return BranchOutcome::PredictedTaken;
    Uarch.TargetBuffer.insert(R.Pc, R.NextPc);
    return BranchOutcome::DecodeRedirect;

  case InstKind::Indirect: {
    uint64_t PredTarget;
    if (D.Return) {
      PredTarget = Uarch.Ras.pop();
    } else {
      std::optional<uint64_t> T = Uarch.TargetBuffer.lookup(R.Pc);
      PredTarget = T ? *T : ~0ULL;
    }
    if (D.Rd != RegZero)
      Uarch.Ras.push(R.Pc + 4);
    BranchOutcome O = PredTarget == R.NextPc
                          ? BranchOutcome::PredictedTaken
                          : BranchOutcome::BackendRedirect;
    if (!D.Return)
      Uarch.TargetBuffer.insert(R.Pc, R.NextPc);
    return O;
  }

  default:
    return BranchOutcome::None;
  }
}

void BranchUpdatePolicy::observeWarming(const ExecRecord &R) {
  if (Config.PerfectBranchPrediction)
    return; // oracle front end never touches the predictor structures

  const DecodedInst &D = *R.D;
  switch (D.Kind) {
  case InstKind::Brr:
    if (!Config.BrrAsBackendBranch)
      return; // invisible to predictor and BTB (Section 3.3)
    [[fallthrough]];
  case InstKind::CondBranch: {
    BranchPrediction Pred = Uarch.Predictor.predict(R.Pc);
    bool BtbHit = Uarch.TargetBuffer.lookup(R.Pc).has_value();
    bool Effective = Pred.Taken && BtbHit;
    Uarch.Predictor.resolve(R.Pc, Pred.HistBefore, Effective, R.Taken);
    if (Effective != R.Taken)
      Uarch.Predictor.repairHistory(Pred.HistBefore, R.Taken);
    if (R.Taken)
      Uarch.TargetBuffer.insert(R.Pc, R.NextPc);
    return;
  }

  case InstKind::DirectJump:
    if (D.Op == Opcode::Jal && D.Rd != RegZero)
      Uarch.Ras.push(R.Pc + 4);
    if (!Uarch.TargetBuffer.lookup(R.Pc))
      Uarch.TargetBuffer.insert(R.Pc, R.NextPc);
    return;

  case InstKind::Indirect:
    // No target prediction is made while warming, so unlike the timed
    // path a non-return indirect performs no BTB lookup here.
    if (D.Return)
      Uarch.Ras.pop();
    if (D.Rd != RegZero)
      Uarch.Ras.push(R.Pc + 4);
    if (!D.Return)
      Uarch.TargetBuffer.insert(R.Pc, R.NextPc);
    return;

  default:
    return;
  }
}
