//===- telemetry/CounterInfo.cpp - Central counter/histogram descriptions -===//
//
// Part of the branch-on-random reproduction library.
//
//===----------------------------------------------------------------------===//

#include "telemetry/CounterInfo.h"

#include <algorithm>
#include <cstdio>

using namespace bor;
using namespace bor::telemetry;

namespace {

// Keep sorted by name within each group; allCounterInfo() re-sorts
// defensively. Every name a component registers must appear here — the
// report_smoke ctest diffs a real run's snapshot against this table.
const CounterInfo Table[] = {
    {"brr_unit.evaluations", "LFSR/deterministic brr-unit decisions taken"},
    {"btb.hits", "BTB lookups that returned a target"},
    {"btb.inserts", "BTB entries written (new or replaced)"},
    {"btb.lookups", "fetch-stage BTB target lookups"},
    {"cache.l1d.accesses", "L1 data-cache accesses (loads + stores)"},
    {"cache.l1d.misses", "L1 data-cache misses"},
    {"cache.l1i.accesses", "L1 instruction-cache fetch accesses"},
    {"cache.l1i.misses", "L1 instruction-cache misses"},
    {"cache.l2.accesses", "unified L2 accesses (L1 miss traffic)"},
    {"cache.l2.misses", "unified L2 misses (memory traffic)"},
    {"cfg.build.blocks", "basic blocks discovered by buildModule"},
    {"cfg.build.edges", "CFG edges discovered by buildModule"},
    {"cfg.build.functions", "functions derived by computeFunctions"},
    {"cfg.build.modules", "programs lifted into cfg::Module form"},
    {"cfg.emit.elided_jumps", "jmp-to-next terminators dropped (opt-in)"},
    {"cfg.emit.inserted_jumps",
     "jmps inserted for displaced fall-through edges"},
    {"cfg.emit.insts", "instructions emitted by relinearization"},
    {"cfg.emit.inverted_branches",
     "conditional branches inverted for layout adjacency"},
    {"cfg.emit.programs", "programs emitted from cfg::Module form"},
    {"cfg.emit.relaxed_branches",
     "out-of-range branches relaxed to branch-around-jump"},
    {"ckpt.build.checkpoints", "checkpoints captured during library builds"},
    {"ckpt.build.insts", "instructions executed by library build passes"},
    {"ckpt.insts.skipped",
     "fast-forward instructions replaced by checkpoint resumes"},
    {"ckpt.libraries.built", "checkpoint libraries built in-process"},
    {"ckpt.libraries.corrupt",
     "cached checkpoint libraries rejected as corrupt and rebuilt"},
    {"ckpt.libraries.loaded", "checkpoint libraries loaded from disk"},
    {"ckpt.pages.copied", "COW pages privatized by a write after resume"},
    {"ckpt.pages.deduped",
     "pages interned to an existing PageStore entry during capture"},
    {"ckpt.pages.shared", "pages attached copy-on-write at resume"},
    {"ckpt.pages.stored", "distinct pages stored in the PageStore"},
    {"ckpt.resumes", "checkpoint resumes (library fast-forward skips)"},
    {"exp.cells", "experiment grid cells executed"},
    {"exp.cells.timedout", "cells abandoned at the --cell-timeout"},
    {"exp.experiments", "experiment grids executed"},
    {"exp.pool.pools", "ThreadPools constructed"},
    {"exp.pool.tasks", "tasks submitted to ThreadPools"},
    {"interp.block.blocks", "decoded basic blocks executed via chaining"},
    {"interp.block.chains", "block-chained dispatch loop entries"},
    {"interp.block.insts", "instructions retired inside chained blocks"},
    {"interp.brr.executed", "brr instructions executed functionally"},
    {"interp.brr.taken", "functional brr executions that branched"},
    {"interp.cond_branches", "conditional branches executed functionally"},
    {"interp.cond_taken", "functional conditional branches taken"},
    {"interp.decode.insts", "static instructions pre-decoded"},
    {"interp.decode.programs", "programs pre-decoded (DecodedProgram built)"},
    {"interp.insts", "instructions retired by the functional interpreter"},
    {"interp.loads", "functional loads executed"},
    {"interp.runs", "functional interpreter runs (dtor publications)"},
    {"interp.run.insts", "instructions retired per interpreter run", true},
    {"interp.stores", "functional stores executed"},
    {"memory.translation_misses",
     "simulated-memory page lookups that missed the translation cache "
     "(miss rate: divide by interp.loads + interp.stores)"},
    {"opt.pass.brr_outlined",
     "brr-uncommon blocks moved out of line structurally"},
    {"opt.pass.cold_outlined", "profiled-cold blocks moved to cold sections"},
    {"opt.pass.functions_split",
     "functions that shed at least one cold block"},
    {"opt.pass.hot_fallthroughs",
     "non-fall hot edges made adjacent by trace layout"},
    {"opt.pass.runs", "layout-optimizer pass pipelines run"},
    {"opt.pass.traces", "traces formed by branch-direction layout"},
    {"opt.profile.oracle_runs", "exact interpreter profiles collected"},
    {"opt.profile.oracle_steps",
     "instructions traced by oracle profile collection"},
    {"opt.profile.site_ingests", "sampled site-count profiles ingested"},
    {"pipeline.brr.executed", "brr instructions retired by the pipeline"},
    {"pipeline.brr.taken", "pipeline brr retirements that branched"},
    {"pipeline.cond_branches", "conditional branches retired"},
    {"pipeline.cond_mispredicts", "conditional branches mispredicted"},
    {"pipeline.cycles", "detailed-model cycles simulated"},
    {"pipeline.direct_jump_decode_redirects",
     "direct jumps redirected at decode (BTB miss, no flush)"},
    {"pipeline.direct_jumps", "direct jumps retired"},
    {"pipeline.fetch.backend_flush_cycles",
     "fetch cycles lost to backend (mispredict) flushes"},
    {"pipeline.fetch.frontend_flush_cycles",
     "fetch cycles lost to frontend (decode-redirect) flushes"},
    {"pipeline.fetch.full_width_cycles",
     "cycles fetch delivered its full width"},
    {"pipeline.fetch.icache_stall_cycles",
     "fetch cycles stalled on instruction-cache misses"},
    {"pipeline.indirect_branches", "indirect branches retired"},
    {"pipeline.indirect_mispredicts", "indirect branch target mispredicts"},
    {"pipeline.insts", "instructions retired by the detailed pipeline"},
    {"pipeline.issue.window_grows",
     "issue-window ring doublings (two reachable cycles shared a slot)"},
    {"pipeline.issue.window_slots",
     "issue-window ring size in slots at the end of each pipeline run", true},
    {"pipeline.runs", "detailed pipeline runs (dtor publications)"},
    {"pipeline.run.cycles", "cycles simulated per pipeline run", true},
    {"pipeline.run.insts", "instructions retired per pipeline run", true},
    {"predictor.mispredictions", "direction predictions that were wrong"},
    {"predictor.predictions", "conditional-branch direction predictions"},
    {"ras.pops", "return-address-stack pops"},
    {"ras.pushes", "return-address-stack pushes"},
    {"ras.underflows", "RAS pops from an empty stack"},
    {"sample.insts.fast_forward",
     "fast-forward instructions actually executed (resumes excluded)"},
    {"sample.insts.measured", "instructions in measured detailed windows"},
    {"sample.insts.preroll", "discarded detailed pre-roll instructions"},
    {"sample.insts.total", "total committed stream length of sampled runs"},
    {"sample.insts.warmed", "functional-warming instructions executed"},
    {"sample.intervals", "detailed intervals measured"},
    {"sample.runs", "sampled runs completed"},
    {"workloads.text.built",
     "microbenchmark texts generated (one per distinct TextConfig)"},
    {"workloads.text.reused",
     "generateText calls answered from the process-wide text memo"},
};

} // namespace

const std::vector<CounterInfo> &bor::telemetry::allCounterInfo() {
  static const std::vector<CounterInfo> Sorted = [] {
    std::vector<CounterInfo> V(std::begin(Table), std::end(Table));
    std::sort(V.begin(), V.end(),
              [](const CounterInfo &A, const CounterInfo &B) {
                return A.Name < B.Name;
              });
    return V;
  }();
  return Sorted;
}

std::string_view bor::telemetry::describeCounter(std::string_view Name) {
  const std::vector<CounterInfo> &All = allCounterInfo();
  auto It = std::lower_bound(All.begin(), All.end(), Name,
                             [](const CounterInfo &I, std::string_view N) {
                               return I.Name < N;
                             });
  if (It != All.end() && It->Name == Name)
    return It->Description;
  return {};
}

std::string bor::telemetry::renderCounterList() {
  std::string Out;
  char Buf[256];
  for (bool Histograms : {false, true}) {
    Out += Histograms ? "== histograms ==\n" : "== counters ==\n";
    for (const CounterInfo &I : allCounterInfo()) {
      if (I.IsHistogram != Histograms)
        continue;
      std::snprintf(Buf, sizeof(Buf), "%-44.*s %.*s\n",
                    static_cast<int>(I.Name.size()), I.Name.data(),
                    static_cast<int>(I.Description.size()),
                    I.Description.data());
      Out += Buf;
    }
  }
  return Out;
}
