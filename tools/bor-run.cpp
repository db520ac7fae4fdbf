//===- tools/bor-run.cpp - BOR-RISC simulator driver -----------------------===//
//
// Runs a BORB image on the functional simulator or the cycle-level
// out-of-order timing model:
//
//   bor-run program.borb [options]
//
//   --timing               use the Section 5.1 timing model (default:
//                          functional)
//   --decider=lfsr|counter|never|always
//                          how brr outcomes are resolved (default lfsr)
//   --seed=N               LFSR seed for the lfsr decider
//   --max-insts=N          instruction budget (default 1<<32)
//   --print-insts=N        functional mode: print the first N executed
//                          instructions with their PCs
//   --trace=PATH           write a Chrome trace-event JSON file (load in
//                          chrome://tracing or Perfetto) with the run span
//                          and per-flush / taken-brr instant events
//   --counters             print the telemetry counter snapshot after the
//                          run (see docs/OBSERVABILITY.md)
//   --dump-sym=NAME        after the run, print the u64 at data symbol NAME
//   --ckpt-dir=DIR         lfsr decider: build (or load from DIR) a COW
//                          checkpoint library for the program — one
//                          checkpoint every --ckpt-every insts — persisting
//                          it in DIR as a BORB v2 image for later
//                          bor-run/bor-bench invocations
//   --ckpt-every=N         library capture period (default 100000)
//   --resume-at=N          with --ckpt-dir: resume from the nearest
//                          library checkpoint at or before inst N, execute
//                          the gap functionally, and run the rest on the
//                          functional model or, with --timing, the timing
//                          model
//
// --max-insts bounds everything a run executes: a --ckpt-dir build pass,
// the gap before --resume-at and the rest of the run alike.
//
// Exit status: 0 if the program halted within --max-insts, 1 otherwise, 2
// on a usage error (an unknown flag, a numeric flag whose value is not a
// whole number, or flags that do not combine).
//
//===----------------------------------------------------------------------===//

#include "ckpt/LibraryPool.h"
#include "isa/Disasm.h"
#include "isa/Serialize.h"
#include "sim/Interpreter.h"
#include "support/ParseNum.h"
#include "telemetry/Counters.h"
#include "telemetry/Telemetry.h"
#include "uarch/Pipeline.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

using namespace bor;

namespace {

struct Options {
  const char *Input = nullptr;
  bool Timing = false;
  std::string Decider = "lfsr";
  uint64_t Seed = 0x2c9277b5;
  uint64_t MaxInsts = 1ULL << 32;
  uint64_t PrintInsts = 0;
  std::string TracePath;
  bool Counters = false;
  std::vector<std::string> DumpSymbols;
  std::string CkptDir;
  uint64_t CkptEvery = 100000;
  uint64_t ResumeAt = 0;
  bool HasResumeAt = false;
};

bool parseArgs(int Argc, char **Argv, Options &Opt) {
  for (int I = 1; I < Argc; ++I) {
    const char *A = Argv[I];
    if (std::strcmp(A, "--timing") == 0) {
      Opt.Timing = true;
    } else if (std::strncmp(A, "--decider=", 10) == 0) {
      Opt.Decider = A + 10;
    } else if (std::strncmp(A, "--seed=", 7) == 0) {
      Opt.Seed = parseU64Flag("bor-run", "--seed", A + 7);
    } else if (std::strncmp(A, "--max-insts=", 12) == 0) {
      Opt.MaxInsts = parseU64Flag("bor-run", "--max-insts", A + 12);
    } else if (std::strncmp(A, "--print-insts=", 14) == 0) {
      Opt.PrintInsts = parseU64Flag("bor-run", "--print-insts", A + 14);
    } else if (std::strncmp(A, "--trace=", 8) == 0) {
      Opt.TracePath = A + 8;
    } else if (std::strcmp(A, "--counters") == 0) {
      Opt.Counters = true;
    } else if (std::strncmp(A, "--dump-sym=", 11) == 0) {
      Opt.DumpSymbols.push_back(A + 11);
    } else if (std::strncmp(A, "--ckpt-dir=", 11) == 0) {
      Opt.CkptDir = A + 11;
    } else if (std::strncmp(A, "--ckpt-every=", 13) == 0) {
      Opt.CkptEvery = parseU64Flag("bor-run", "--ckpt-every", A + 13);
    } else if (std::strncmp(A, "--resume-at=", 12) == 0) {
      Opt.ResumeAt = parseU64Flag("bor-run", "--resume-at", A + 12);
      Opt.HasResumeAt = true;
    } else if (A[0] == '-') {
      std::fprintf(stderr, "bor-run: unknown flag '%s'\n", A);
      return false;
    } else if (!Opt.Input) {
      Opt.Input = A;
    } else {
      return false;
    }
  }
  return Opt.Input != nullptr;
}

std::unique_ptr<BrrDecider> makeDecider(const Options &Opt) {
  if (Opt.Decider == "lfsr") {
    BrrUnitConfig Cfg;
    Cfg.Seed = Opt.Seed;
    return std::make_unique<BrrUnitDecider>(Cfg);
  }
  if (Opt.Decider == "counter")
    return std::make_unique<HwCounterDecider>();
  if (Opt.Decider == "never")
    return std::make_unique<NeverTakenDecider>();
  if (Opt.Decider == "always")
    return std::make_unique<AlwaysTakenDecider>();
  return nullptr;
}

void dumpSymbols(const Options &Opt, const Program &P, const Machine &M) {
  for (const std::string &Name : Opt.DumpSymbols) {
    if (!P.hasSymbol(Name)) {
      std::printf("%s = <unknown symbol>\n", Name.c_str());
      continue;
    }
    std::printf("%s = %" PRIu64 "\n", Name.c_str(),
                M.memory().readU64(P.symbol(Name)));
  }
}

/// The tool-level objects behind --trace / --counters. Construct before
/// the simulator objects; call finish() after they are destroyed, since
/// simulators publish their counters from their destructors.
struct ToolTelemetry {
  explicit ToolTelemetry(const Options &Opt) {
    if (Opt.Counters)
      telemetry::CounterRegistry::setEnabled(true);
    if (!Opt.TracePath.empty()) {
      Trace = std::make_unique<telemetry::TraceWriter>();
      Sink.Trace = Trace.get();
      Sink.DetailEvents = true;
    }
  }

  /// The sink the pipeline observes, or null when --trace was not given
  /// (counters flow through the process-wide registry regardless).
  const telemetry::TelemetrySink *sink() const {
    return Trace ? &Sink : nullptr;
  }

  /// Writes the trace file and prints the counter snapshot. Returns false
  /// when the trace cannot be written.
  bool finish(const Options &Opt) const {
    if (Trace) {
      std::string Err;
      if (!Trace->writeTo(Opt.TracePath, Err)) {
        std::fprintf(stderr, "bor-run: --trace: %s\n", Err.c_str());
        return false;
      }
    }
    if (Opt.Counters)
      std::fputs(
          telemetry::CounterRegistry::instance().snapshot().render().c_str(),
          stdout);
    return true;
  }

  std::unique_ptr<telemetry::TraceWriter> Trace;
  telemetry::TelemetrySink Sink;
};

void printFunctionalStats(const RunStats &S) {
  std::printf("insts %" PRIu64 ", cond branches %" PRIu64 " (%" PRIu64
              " taken), brr %" PRIu64 " (%" PRIu64 " taken), loads %" PRIu64
              ", stores %" PRIu64 ", halted %s\n",
              S.Insts, S.CondBranches, S.CondTaken, S.BrrExecuted,
              S.BrrTaken, S.Loads, S.Stores, S.Halted ? "yes" : "no");
}

/// Whether the checkpoint-library flags combine with the rest; when they
/// do not, prints a diagnostic naming the offending flag.
bool checkCkptFlags(const Options &Opt) {
  if (Opt.CkptDir.empty()) {
    if (Opt.HasResumeAt)
      std::fprintf(stderr, "bor-run: --resume-at needs --ckpt-dir\n");
    return !Opt.HasResumeAt;
  }
  if (Opt.Decider != "lfsr")
    std::fprintf(stderr,
                 "bor-run: checkpoint libraries record the lfsr decider "
                 "stream; --decider=%s cannot resume from one\n",
                 Opt.Decider.c_str());
  else if (Opt.CkptEvery == 0)
    std::fprintf(stderr, "bor-run: --ckpt-every needs a whole number >= 1\n");
  else if (Opt.PrintInsts != 0)
    std::fprintf(stderr, "bor-run: --print-insts traces a run from "
                         "instruction 0 and does not combine with "
                         "--ckpt-dir\n");
  else if (Opt.Timing && !Opt.HasResumeAt)
    std::fprintf(stderr, "bor-run: --timing with --ckpt-dir times the run "
                         "after a checkpoint; add --resume-at=N\n");
  else
    return true;
  return false;
}

/// --resume-at: resumes \p Lib's nearest checkpoint at or before the
/// resume point, executes the gap functionally, and runs the rest on the
/// interpreter or, with --timing, on a Pipeline attached to the resumed
/// machine. The resume point and the rest are both clamped to --max-insts.
int resumeFromLibrary(const Options &Opt, const DecodedProgram &Dec,
                      const ckpt::CheckpointLibrary &Lib,
                      const BrrUnitConfig &Cfg, const ToolTelemetry &Tel) {
  const uint64_t Target = std::min(Opt.ResumeAt, Opt.MaxInsts);
  // Never null: every library holds checkpoint 0 at instruction 0.
  const ckpt::LibraryCheckpoint &C = *Lib.nearestAtOrBefore(Target);
  Machine M;
  BrrUnitDecider Decider(Cfg);
  std::string Err;
  if (!Lib.resume(C, M, Decider, Err)) {
    std::fprintf(stderr, "bor-run: %s\n", Err.c_str());
    return 1;
  }
  std::printf("resumed at inst %" PRIu64 " (nearest checkpoint at or "
              "before %" PRIu64 "), pc %" PRIu64 "\n",
              C.InstsRetired, Opt.ResumeAt, M.pc());
  {
    Interpreter Interp(Dec, M, Decider, /*LoadImage=*/false);
    telemetry::TraceSpan Span(Tel.Trace.get(), "resume", "bor-run");
    Interp.run(Target - C.InstsRetired, /*RequireHalt=*/false);
    const uint64_t Budget =
        Opt.MaxInsts - C.InstsRetired - Interp.stats().Insts;
    if (Opt.Timing) {
      MicroarchState Uarch((PipelineConfig()));
      {
        Pipeline Pipe(Dec, M, Uarch, PipelineConfig(), Decider);
        Pipe.setTelemetry(Tel.sink());
        RunResult Result = Pipe.run(Budget, /*RequireHalt=*/false);
        std::printf("%s", describeStats(Result.Stats).c_str());
      }
      // The attached Pipeline borrows Uarch and so never publishes it;
      // this run owns it, so publish once here.
      publishUarchCounters(Uarch);
    } else {
      printFunctionalStats(Interp.run(Budget, /*RequireHalt=*/false));
    }
  }
  dumpSymbols(Opt, Dec.program(), M);
  return M.halted() ? 0 : 1;
}

/// --ckpt-dir: build (or load from the cache directory) the program's COW
/// checkpoint library within --max-insts, then resume from it when
/// --resume-at is given.
int ckptLibraryMain(const Options &Opt, const Program &P) {
  ToolTelemetry Tel(Opt);
  BrrUnitConfig Cfg;
  Cfg.Seed = Opt.Seed;
  DecodedProgram Dec(P);
  int Rc;
  {
    ckpt::LibraryPool Pool(Opt.CkptDir);
    std::shared_ptr<const ckpt::CheckpointLibrary> Lib = Pool.getOrBuild(
        Dec, Cfg, Opt.CkptEvery, Tel.sink(), Opt.MaxInsts);
    // The pool persists only a library that reached the halt.
    const std::string Where =
        Lib->streamHalted()
            ? Pool.cachePathFor(
                  ckpt::LibraryPool::keyFor(P, Cfg, Opt.CkptEvery))
            : "(not cached: the build stopped at --max-insts)";
    std::printf("checkpoint library %s: %zu checkpoints every %" PRIu64
                " insts, %" PRIu64 " insts total, %zu distinct pages\n",
                Where.c_str(), Lib->numCheckpoints(), Lib->periodInsts(),
                Lib->totalInsts(), Lib->numStoredPages());
    if (Opt.HasResumeAt)
      Rc = resumeFromLibrary(Opt, Dec, *Lib, Cfg, Tel);
    else
      Rc = (Lib->streamHalted() && Lib->totalInsts() <= Opt.MaxInsts) ? 0 : 1;
  }
  if (!Tel.finish(Opt))
    return 1;
  return Rc;
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opt;
  if (!parseArgs(Argc, Argv, Opt)) {
    std::fprintf(stderr,
                 "usage: bor-run program.borb [--timing] "
                 "[--decider=lfsr|counter|never|always] [--seed=N] "
                 "[--max-insts=N] [--print-insts=N] [--dump-sym=NAME]...\n"
                 "       [--trace=PATH] [--counters] "
                 "[--ckpt-dir=DIR [--ckpt-every=N] [--resume-at=N]]\n");
    return 2;
  }
  if (!checkCkptFlags(Opt))
    return 2;

  LoadResult R = loadProgramFile(Opt.Input);
  if (!R.Ok) {
    std::fprintf(stderr, "bor-run: %s\n", R.Error.c_str());
    return 1;
  }

  if (!Opt.CkptDir.empty())
    return ckptLibraryMain(Opt, R.Prog);

  std::unique_ptr<BrrDecider> Decider = makeDecider(Opt);
  if (!Decider) {
    std::fprintf(stderr, "bor-run: unknown decider '%s'\n",
                 Opt.Decider.c_str());
    return 2;
  }

  ToolTelemetry Tel(Opt);
  // Decode once up front; both models execute the decoded image.
  DecodedProgram Dec(R.Prog);
  int Rc;
  if (Opt.Timing) {
    // Inner scope: the Pipeline publishes its counters on destruction, and
    // that has to happen before Tel.finish() renders the snapshot.
    {
      Pipeline Pipe(Dec, PipelineConfig(), Decider.get());
      Pipe.setTelemetry(Tel.sink());
      telemetry::TraceSpan Span(Tel.Trace.get(), "run", "bor-run");
      RunResult Result = Pipe.run(Opt.MaxInsts, /*RequireHalt=*/false);
      Span.close();
      std::printf("%s", describeStats(Result.Stats).c_str());
      for (const MarkerEvent &E : Result.Markers)
        std::printf("marker %d at cycle %" PRIu64 " (inst %" PRIu64 ")\n",
                    E.Id, E.CommitCycle, E.InstsRetired);
      dumpSymbols(Opt, R.Prog, Pipe.machine());
      Rc = Pipe.machine().halted() ? 0 : 1;
    }
    Decider.reset();
    if (!Tel.finish(Opt))
      return 1;
    return Rc;
  }

  Machine M;
  {
    Interpreter Interp(Dec, M, *Decider);
    telemetry::TraceSpan Span(Tel.Trace.get(), "run", "bor-run");
    for (uint64_t I = 0; I != Opt.PrintInsts && !Interp.halted(); ++I) {
      ExecRecord Rec = Interp.step();
      std::printf("%6" PRIu64 "  %s\n", Rec.Pc / 4,
                  disassemble(R.Prog.at(Rec.Pc / 4),
                              static_cast<int64_t>(Rec.Pc / 4))
                      .c_str());
    }

    uint64_t Budget = Opt.MaxInsts > Interp.stats().Insts
                          ? Opt.MaxInsts - Interp.stats().Insts
                          : 0;
    RunStats S = Interp.run(Budget, /*RequireHalt=*/false);
    Span.close();
    printFunctionalStats(S);
    Rc = S.Halted ? 0 : 1;
  }
  dumpSymbols(Opt, R.Prog, M);
  Decider.reset();
  if (!Tel.finish(Opt))
    return 1;
  return Rc;
}
