//===- workloads/PgoGen.h - Pessimal-layout PGO workload ------------------===//
//
// Part of the branch-on-random reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The workload the pgo_layout experiment optimizes: a self-checking
/// microbenchmark whose baseline layout is deliberately pessimal — every
/// hot arm is reached through a *taken* conditional branch that hops over
/// an inline cold chunk, and every helper function carries its cold tail
/// inline — exactly the shape the layout optimizer exists to fix. The
/// generator also produces an instrumented profiling variant (the same
/// program emitted again with a sampling framework and a profile counter
/// around each site, through the SamplingFrameworkEmitter every workload
/// uses) and the site-to-block map the optimizer needs to consume the
/// collected counts.
///
/// Hot/cold decisions come from a register-resident LCG, so control flow
/// is deterministic per seed, identical across layout variants, and
/// independent of the brr decider — the checksum each variant stores to
/// the data segment must match bit-for-bit, which the experiment uses as
/// its execution-equivalence self-check.
///
//===----------------------------------------------------------------------===//

#ifndef BOR_WORKLOADS_PGOGEN_H
#define BOR_WORKLOADS_PGOGEN_H

#include "cfg/Cfg.h"
#include "instr/Transform.h"
#include "isa/Program.h"

#include <vector>

namespace bor {

struct PgoGenConfig {
  uint64_t Iters = 2000;  ///< ROI loop iterations
  unsigned Arms = 6;      ///< biased decision points per iteration
  unsigned ColdChunk = 24; ///< straight-line insts in each inline cold path
  unsigned Functions = 2; ///< helper functions (cold tails inline)
  uint64_t Seed = 1;      ///< varies bit selections and LCG increments
  /// Framework for the profiling variant. Dup/IncludeBody are forced to
  /// NoDuplication/true — profile counters are the body.
  InstrumentationConfig Instr;
};

struct PgoWorkload {
  Program Baseline;     ///< pessimal layout, uninstrumented
  Program Instrumented; ///< Baseline + framework + profile-count sites
  /// Profile slot i counts entries of Baseline-CFG block SiteBlocks[i]
  /// (block ids are stable across every buildModule(Baseline) lift).
  std::vector<cfg::BlockId> SiteBlocks;
  uint64_t ProfileBase = 0; ///< profile table base address (both variants)
  size_t NumSites = 0;
  uint64_t ChecksumAddr = 0; ///< data address of the self-check checksum
};

/// Emits the program twice from one generator: with no framework (the
/// baseline, lifted once for the site map) and with C.Instr's framework
/// around every site (the profiling variant). When C.Instr names no
/// framework the profiling variant is a copy of the baseline, not a second
/// emission. Deterministic for a given config.
PgoWorkload buildPgoWorkload(const PgoGenConfig &C);

} // namespace bor

#endif // BOR_WORKLOADS_PGOGEN_H
