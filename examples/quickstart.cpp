//===- examples/quickstart.cpp - First steps with branch-on-random -------===//
//
// A five-minute tour of the library:
//
//  1. poke the decode-stage hardware model (BrrUnit) directly;
//  2. assemble a BOR-RISC program that uses `brr` to sample a loop;
//  3. run it functionally and read the collected profile;
//  4. run the same program through the cycle-level pipeline model and see
//     what the sampling cost.
//
//===----------------------------------------------------------------------===//

#include "isa/Disasm.h"
#include "isa/ProgramBuilder.h"
#include "sim/Interpreter.h"
#include "uarch/Pipeline.h"

#include <cstdio>

using namespace bor;

int main() {
  // --- 1. The hardware: an LFSR, 15 AND gates and a mux. ----------------
  BrrUnit Unit; // 20-bit LFSR, spaced AND inputs: the paper's design point
  FreqCode OneIn16(FreqCode::forInterval(16));
  uint64_t Taken = 0;
  for (int I = 0; I != 100000; ++I)
    Taken += Unit.evaluate(OneIn16);
  std::printf("BrrUnit at freq=%u: taken %.3f%% (encoding says %.3f%%)\n\n",
              OneIn16.raw(), 100.0 * Taken / 100000,
              100.0 * OneIn16.probability());

  // --- 2. A program: count loop iterations, sampled at 1/16. ------------
  // if_random(1/16) { samples++; }  around a 100000-iteration loop.
  ProgramBuilder B;
  uint64_t SampleCounter = B.allocData(8, 8);
  B.emitLoadConst(28, DefaultDataBase); // globals base

  B.emitLoadConst(2, 100000); // loop counter
  auto Loop = B.label();
  auto DoSample = B.label();
  auto Resume = B.label();
  B.bind(Loop);
  B.emitBrr(OneIn16, DoSample); // the entire sampling framework
  B.bind(Resume);
  B.emit(Inst::add(4, 4, 2)); // "real work"
  B.emit(Inst::addi(2, 2, -1));
  B.emitBranch(Opcode::Bne, 2, 0, Loop);
  B.emit(Inst::halt());

  // Out-of-line instrumentation (Figure 8 layout: common case falls
  // through; the rare sampled path jumps out and back).
  B.bind(DoSample);
  B.emit(Inst::ld(15, 28, 0));
  B.emit(Inst::addi(15, 15, 1));
  B.emit(Inst::st(15, 28, 0));
  B.emitJmp(Resume);

  Program P = B.finish();
  std::printf("the sampled loop:\n%s\n", disassemble(P).c_str());

  // --- 3. Functional run. ------------------------------------------------
  // Every engine runs a decoded image of the program; decode it once and
  // hand the same image to each engine that runs the program.
  const DecodedProgram Dec(P);
  BrrUnitDecider Decider;
  Machine M;
  Interpreter Interp(Dec, M, Decider);
  RunStats Stats = Interp.run(1ULL << 24);
  std::printf("functional: %llu insts, %llu brr executed, %llu taken, "
              "samples collected = %llu (expect ~%u)\n",
              static_cast<unsigned long long>(Stats.Insts),
              static_cast<unsigned long long>(Stats.BrrExecuted),
              static_cast<unsigned long long>(Stats.BrrTaken),
              static_cast<unsigned long long>(
                  M.memory().readU64(SampleCounter)),
              100000 / 16);

  // --- 4. Timed run on the Section 5.1 machine. ---------------------------
  Pipeline Pipe(Dec, PipelineConfig());
  PipelineStats TS = Pipe.run(1ULL << 40).Stats;
  std::printf("timing: %llu cycles, IPC %.2f, %llu front-end flushes from "
              "taken brrs\n",
              static_cast<unsigned long long>(TS.Cycles), TS.ipc(),
              static_cast<unsigned long long>(TS.BrrTaken));
  return 0;
}
