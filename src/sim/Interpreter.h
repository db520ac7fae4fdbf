//===- sim/Interpreter.h - Functional BOR-RISC execution -----------------===//
//
// Part of the branch-on-random reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The functional interpreter executes a pre-decoded program
/// (sim/Decode.h) against a Machine, producing an ExecRecord per stepped
/// instruction with the facts a timing model needs (next PC, branch
/// outcome, memory address). It is used directly for the accuracy
/// experiments — mirroring the paper's full-speed SIGILL-based functional
/// emulation (Section 4.1) — and as the correct-path oracle of the
/// timing-first pipeline model (Section 5.1).
///
/// Two execution modes share identical architectural semantics:
///  - step(): one instruction at a time, returning an ExecRecord — the
///    oracle/warming mode.
///  - run(): block-chained threaded dispatch over the decoded image — the
///    fast-forward mode. No ExecRecords are materialized, the PC is synced
///    to the Machine only at marker hooks and chain exits, and statistics
///    are folded in at the same points. See docs/INTERPRETER.md.
///
//===----------------------------------------------------------------------===//

#ifndef BOR_SIM_INTERPRETER_H
#define BOR_SIM_INTERPRETER_H

#include "sim/Decode.h"
#include "sim/Machine.h"

#include <functional>

namespace bor {

/// Everything a timing model needs to know about one executed instruction.
struct ExecRecord {
  uint64_t Pc = 0;
  /// The executed instruction in the shared decoded image (never null in
  /// a record step() returns): its kind and operand slots are what timing
  /// models read.
  const DecodedInst *D = nullptr;
  uint64_t NextPc = 0;
  /// For loads/stores: the effective address.
  uint64_t MemAddr = 0;
  /// For control instructions: did it redirect (conditional taken, brr
  /// taken; always true for jumps)?
  bool Taken = false;
};

/// Aggregate execution statistics.
struct RunStats {
  uint64_t Insts = 0;
  uint64_t CondBranches = 0;
  uint64_t CondTaken = 0;
  uint64_t BrrExecuted = 0;
  uint64_t BrrTaken = 0;
  uint64_t Loads = 0;
  uint64_t Stores = 0;
  bool Halted = false;
};

/// Functional executor over a shared decoded image. The decider resolves
/// brr outcomes; markers invoke the optional callback.
class Interpreter {
public:
  /// Executes over \p DP, which must outlive the interpreter. Decode once,
  /// share the image across every engine (and thread) that runs the same
  /// program.
  ///
  /// \p LoadImage: when set (the default) the constructor copies the
  /// program's data segment into \p M and resets the PC, so a fresh
  /// machine is immediately runnable. Pass false to attach to a machine
  /// that is already mid-execution (checkpoint resume, sampled
  /// simulation) -- the machine's PC, registers and memory are taken
  /// as-is.
  Interpreter(const DecodedProgram &DP, Machine &M, BrrDecider &Decider,
              bool LoadImage = true);

  /// Publishes this run's aggregate execution statistics to the telemetry
  /// counter registry (interp.*, including the interp.block.* chained-
  /// dispatch counters). Aggregation at destruction keeps the dispatch
  /// loop itself free of any telemetry cost.
  ~Interpreter();

  bool halted() const { return Mach.halted(); }

  /// Executes exactly one instruction. Must not be called once halted.
  ExecRecord step();

  /// Runs until halt or until \p MaxSteps instructions retire, through the
  /// block-chained dispatch loop. Asserts the program halts within the
  /// budget when \p RequireHalt is set.
  RunStats run(uint64_t MaxSteps, bool RequireHalt = true);

  /// Invoked with the marker id each time a marker executes. During run(),
  /// stats().Insts and the machine PC are synchronized before the hook
  /// fires, so hooks observe the same state they would under step().
  void setMarkerHook(std::function<void(int32_t)> Hook) {
    MarkerHook = std::move(Hook);
  }

  const RunStats &stats() const { return Stats; }
  Machine &machine() { return Mach; }
  const DecodedProgram &decoded() const { return Dec; }

private:
  void runChained(uint64_t MaxSteps);

  const DecodedProgram &Dec;
  const Program &Prog;
  Machine &Mach;
  BrrDecider &Decider;
  RunStats Stats;
  std::function<void(int32_t)> MarkerHook;

  // Chained-dispatch accounting (published as interp.block.* at
  // destruction): chain entries, instructions retired inside chains, and
  // block terminators executed inside chains.
  uint64_t Chains = 0;
  uint64_t ChainedInsts = 0;
  uint64_t ChainedBlocks = 0;
};

} // namespace bor

#endif // BOR_SIM_INTERPRETER_H
