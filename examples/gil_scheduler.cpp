//===- examples/gil_scheduler.cpp - brr as a statistical scheduler --------===//
//
// Section 7's non-profiling use case: CPython's cooperative multithreading
// releases the global interpreter lock (GIL) after a fixed number of
// bytecodes, paying a countdown (load/decrement/test/store) on every
// bytecode dispatched. A branch-on-random with a matching frequency makes
// the same *statistical* guarantee - the GIL is released about once per N
// bytecodes - for the cost of a single never-mispredicting instruction in
// the dispatch loop.
//
// This example builds both interpreter loops in BOR-RISC, times them on
// the cycle-level machine model, and compares release cadence and
// dispatch-loop overhead.
//
//===----------------------------------------------------------------------===//

#include "isa/ProgramBuilder.h"
#include "sim/Interpreter.h"
#include "support/Table.h"
#include "uarch/Pipeline.h"
#include "workloads/Microbench.h" // marker ids

#include <cstdio>

using namespace bor;

namespace {

constexpr uint64_t NumBytecodes = 200000;
constexpr uint64_t CheckInterval = 128; // sys.setcheckinterval analogue

enum class GilStrategy { None, Countdown, Brr };

struct GilProgram {
  Program Prog;
  uint64_t ReleaseCounter;
};

/// The interpreter dispatch loop: per bytecode a little dispatch work,
/// then (optionally) the GIL-release check; the release path itself
/// simulates a lock handoff and counts releases.
GilProgram buildInterpreter(GilStrategy Strategy) {
  ProgramBuilder B;
  GilProgram Out;
  Out.ReleaseCounter = B.allocData(8, 8);
  uint64_t Countdown = B.allocData(8, 8);
  B.initDataU64(Countdown, CheckInterval - 1);

  B.emitLoadConst(28, DefaultDataBase);
  B.emitLoadConst(2, NumBytecodes);
  B.emit(Inst::marker(MarkerRoiBegin));

  auto Loop = B.label();
  auto Release = B.label();
  auto Resume = B.label();
  B.bind(Loop);

  // "Dispatch": decode the next bytecode and execute its handler - a
  // realistic bytecode costs a couple dozen host instructions, which is
  // what makes the per-bytecode countdown overhead worth eliminating.
  B.emit(Inst::add(4, 4, 2));
  B.emit(Inst::alui(Opcode::Xori, 5, 5, 0x2a));
  B.emit(Inst::addi(6, 6, 3));
  B.emit(Inst::alu(Opcode::Xor, 7, 7, 4));
  for (int Op = 0; Op != 3; ++Op) {
    B.emit(Inst::alui(Opcode::Slli, 8, 4, 2));
    B.emit(Inst::add(9, 9, 8));
    B.emit(Inst::alui(Opcode::Xori, 10, 10, 7));
    B.emit(Inst::addi(11, 11, 5));
  }

  switch (Strategy) {
  case GilStrategy::None:
    break;
  case GilStrategy::Countdown: {
    // CPython: if (--_Py_Ticker <= 0) release_gil();
    int32_t D = static_cast<int32_t>(Countdown - DefaultDataBase);
    B.emit(Inst::ld(15, 28, D));
    B.emitBranch(Opcode::Beq, 15, 0, Release);
    B.bind(Resume);
    B.emit(Inst::addi(15, 15, -1));
    B.emit(Inst::st(15, 28, D));
    break;
  }
  case GilStrategy::Brr:
    B.emitBrr(FreqCode::forInterval(CheckInterval), Release);
    B.bind(Resume);
    break;
  }

  B.emit(Inst::addi(2, 2, -1));
  B.emitBranch(Opcode::Bne, 2, 0, Loop);
  B.emit(Inst::marker(MarkerRoiEnd));
  B.emit(Inst::halt());

  if (Strategy != GilStrategy::None) {
    // The release path: hand the lock off (a few stores/loads) and count.
    B.bind(Release);
    int32_t RC = static_cast<int32_t>(Out.ReleaseCounter - DefaultDataBase);
    B.emit(Inst::ld(15, 28, RC));
    B.emit(Inst::addi(15, 15, 1));
    B.emit(Inst::st(15, 28, RC));
    if (Strategy == GilStrategy::Countdown) {
      int32_t D = static_cast<int32_t>(Countdown - DefaultDataBase);
      B.emit(Inst::li(15, CheckInterval - 1));
      B.emit(Inst::st(15, 28, D));
      // Skip the decrement on this path: the counter was just reset.
      B.emit(Inst::addi(2, 2, -1));
      B.emitBranch(Opcode::Bne, 2, 0, Loop);
      B.emit(Inst::marker(MarkerRoiEnd));
      B.emit(Inst::halt());
    } else {
      B.emitJmp(Resume);
    }
  }

  Out.Prog = B.finish();
  return Out;
}

struct GilResult {
  uint64_t RoiCycles;
  uint64_t Releases;
};

GilResult run(GilStrategy Strategy) {
  GilProgram GP = buildInterpreter(Strategy);
  const DecodedProgram Dec(GP.Prog);
  Pipeline Pipe(Dec, PipelineConfig());
  RunResult Timed = Pipe.run(1ULL << 40);
  GilResult R;
  R.RoiCycles = Timed.roiCycles();
  R.Releases = Pipe.machine().memory().readU64(GP.ReleaseCounter);
  return R;
}

} // namespace

int main() {
  std::printf("GIL scheduling: countdown vs branch-on-random "
              "(%llu bytecodes, release every ~%llu)\n\n",
              static_cast<unsigned long long>(NumBytecodes),
              static_cast<unsigned long long>(CheckInterval));

  GilResult None = run(GilStrategy::None);
  GilResult Countdown = run(GilStrategy::Countdown);
  GilResult Brr = run(GilStrategy::Brr);

  Table T;
  T.addRow({"strategy", "cycles", "overhead %", "cycles/bytecode",
            "GIL releases"});
  auto AddRow = [&](const char *Name, const GilResult &R) {
    T.addRow({Name, Table::fmt(R.RoiCycles),
              Table::fmt(100.0 *
                             (static_cast<double>(R.RoiCycles) -
                              static_cast<double>(None.RoiCycles)) /
                             static_cast<double>(None.RoiCycles),
                         2),
              Table::fmt(static_cast<double>(R.RoiCycles) / NumBytecodes, 2),
              Table::fmt(R.Releases)});
  };
  AddRow("no GIL checks", None);
  AddRow("countdown (CPython)", Countdown);
  AddRow("branch-on-random", Brr);
  T.print();

  std::printf("\nboth strategies release ~%llu times; the countdown pays "
              "its check on every bytecode, brr pays one fall-through "
              "branch.\n",
              static_cast<unsigned long long>(NumBytecodes /
                                              CheckInterval));
  return 0;
}
