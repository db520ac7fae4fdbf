//===- examples/adaptive_jit.cpp - Continuous profiling in an adaptive JIT -===//
//
// The paper's opening argument (Section 1): most JVMs profile only
// baseline-compiled code; once a method is optimized its instrumentation
// is dropped, so the runtime "misses opportunities to re-optimize their
// code as program behavior changes". Branch-on-random makes it cheap to
// keep sampling *inside optimized code*, enabling continuous profiling.
//
// This example plays the whole scenario out on the timing model:
//
//   phase 1  startup: every method baseline-compiled and fully
//            instrumented; the profile identifies the hot set.
//   phase 2  the "JIT" recompiles the hot methods (their bodies get
//            faster). Three policies for the optimized code:
//              traditional - no instrumentation (profile goes blind),
//              cbs         - counter-sampled instrumentation,
//              brr         - branch-on-random-sampled instrumentation.
//   phase 3  the workload shifts: the hot ranking *within the optimized
//            set* inverts. Only the sampled policies see it; we compare
//            what each profile reports and what each policy cost.
//
//===----------------------------------------------------------------------===//

#include "support/Table.h"
#include "uarch/Pipeline.h"
#include "workloads/AppGen.h"
#include "workloads/Microbench.h" // marker ids

#include <algorithm>
#include <cstdio>
#include <numeric>

using namespace bor;

namespace {

AppConfig baseApp(uint64_t Seed) {
  AppConfig C;
  C.NumMethods = 24;
  C.NumTopCalls = 24000;
  C.InnerIters = 8;
  C.CallFanoutProb = 0.3;
  C.ZipfSkew = 1.1;
  C.Seed = Seed;
  C.Instr.Framework = SamplingFramework::Full; // baseline compiler
  C.Instr.Interval = 256;
  return C;
}

struct JitRunResult {
  uint64_t RoiCycles = 0;
  std::vector<uint64_t> Profile;
};

JitRunResult run(const AppConfig &C) {
  AppProgram App = buildApp(C);
  const DecodedProgram Dec(App.Prog);
  Pipeline Pipe(Dec, PipelineConfig());
  bor::RunResult Timed = Pipe.run(1ULL << 40);
  JitRunResult R;
  R.RoiCycles = Timed.roiCycles();
  for (uint32_t M = 0; M != App.NumMethods; ++M)
    R.Profile.push_back(
        Pipe.machine().memory().readU64(App.ProfileBase + 8 * M));
  return R;
}

/// Ranks methods by count, hottest first.
std::vector<uint32_t> ranking(const std::vector<uint64_t> &Counts) {
  std::vector<uint32_t> Ids(Counts.size());
  std::iota(Ids.begin(), Ids.end(), 0);
  std::sort(Ids.begin(), Ids.end(), [&](uint32_t A, uint32_t B) {
    return Counts[A] > Counts[B];
  });
  return Ids;
}

} // namespace

int main() {
  // --- Phase 1: startup under the baseline compiler. ---------------------
  AppConfig Startup = baseApp(/*Seed=*/0x3a7);
  JitRunResult P1 = run(Startup);
  std::vector<uint32_t> Rank = ranking(P1.Profile);
  std::vector<uint32_t> HotSet(Rank.begin(), Rank.begin() + 6);
  std::sort(HotSet.begin(), HotSet.end());

  std::printf("phase 1 (startup, fully instrumented baseline code): "
              "%llu cycles\n  hot set:",
              static_cast<unsigned long long>(P1.RoiCycles));
  for (uint32_t M : HotSet)
    std::printf(" m%u", M);
  std::printf("\n\n");

  // --- Phase 2: recompile the hot set under three policies. --------------
  auto Recompiled = [&](SamplingFramework OptFramework) {
    AppConfig C = baseApp(0x3a7);
    C.OptimizedMethods = HotSet;
    for (uint32_t M : HotSet)
      C.MethodFramework[M] = OptFramework;
    return C;
  };

  JitRunResult Blind = run(Recompiled(SamplingFramework::None));
  JitRunResult Cbs = run(Recompiled(SamplingFramework::CounterBased));
  JitRunResult Brr = run(Recompiled(SamplingFramework::BrrBased));

  Table T;
  T.addRow({"phase-2 policy for optimized code", "cycles",
            "speedup vs startup", "profiling cost vs blind %"});
  auto Row = [&](const char *Name, const JitRunResult &R) {
    T.addRow({Name, Table::fmt(R.RoiCycles),
              Table::fmt(static_cast<double>(P1.RoiCycles) /
                             static_cast<double>(R.RoiCycles),
                         3),
              Table::fmt(100.0 *
                             (static_cast<double>(R.RoiCycles) -
                              static_cast<double>(Blind.RoiCycles)) /
                             static_cast<double>(Blind.RoiCycles),
                         2)});
  };
  Row("traditional (drop instrumentation)", Blind);
  Row("continuous via counter sampling", Cbs);
  Row("continuous via branch-on-random", Brr);
  T.print();

  // --- Phase 3: behaviour shifts; who notices? ----------------------------
  // A different call mix (new seed) reshuffles hotness inside the
  // optimized set. Re-run the phase-2 binaries on the shifted workload.
  auto Shifted = [&](SamplingFramework OptFramework) {
    AppConfig C = Recompiled(OptFramework);
    C.Seed = 0x77b2; // the program changed its behaviour
    return C;
  };
  JitRunResult BlindShift = run(Shifted(SamplingFramework::None));
  JitRunResult BrrShift = run(Shifted(SamplingFramework::BrrBased));

  uint64_t BlindSeen = 0, BrrSeen = 0;
  for (uint32_t M : HotSet) {
    BlindSeen += BlindShift.Profile[M];
    BrrSeen += BrrShift.Profile[M];
  }

  std::printf("\nphase 3 (behaviour shift):\n");
  std::printf("  traditional profile samples from optimized methods: "
              "%llu (blind - cannot re-rank them)\n",
              static_cast<unsigned long long>(BlindSeen));
  std::printf("  brr profile samples from optimized methods:         "
              "%llu\n",
              static_cast<unsigned long long>(BrrSeen));

  // Sampled counts estimate 1/Interval of the truth: rescale before
  // ranking against the fully-counted baseline-compiled methods.
  std::vector<uint64_t> Estimated = BrrShift.Profile;
  for (uint32_t M : HotSet)
    Estimated[M] *= Startup.Instr.Interval;
  std::vector<uint32_t> NewRank = ranking(Estimated);
  std::printf("  brr-continuous profile's new hottest methods: "
              "m%u m%u m%u -> the runtime can re-optimize.\n",
              NewRank[0], NewRank[1], NewRank[2]);
  return 0;
}
