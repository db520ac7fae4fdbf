//===- sample/Warmup.cpp - Functional µarch warming -----------------------===//

#include "sample/Warmup.h"

using namespace bor;

void FunctionalWarmer::observe(const ExecRecord &R) {
  // Caches: one I-cache probe per distinct line, one D-cache access per
  // load/store — the same accesses a detailed run would make, minus the
  // latency bookkeeping.
  uint64_t Line =
      R.Pc & ~static_cast<uint64_t>(Config.MemHier.L1I.LineBytes - 1);
  if (Line != LastFetchLine) {
    Uarch.MemHier.fetchAccess(R.Pc);
    LastFetchLine = Line;
  }
  if (R.D->Kind == InstKind::Load)
    Uarch.MemHier.dataAccess(R.MemAddr, /*IsWrite=*/false);
  else if (R.D->Kind == InstKind::Store)
    Uarch.MemHier.dataAccess(R.MemAddr, /*IsWrite=*/true);

  Policy.observeWarming(R);
}

uint64_t FunctionalWarmer::warm(Interpreter &Oracle, uint64_t Insts) {
  uint64_t Consumed = 0;
  while (Consumed != Insts && !Oracle.halted()) {
    observe(Oracle.step());
    ++Consumed;
  }
  return Consumed;
}
