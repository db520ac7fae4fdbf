//===- examples/perf_auditor.cpp - Online performance auditing ------------===//
//
// Section 7's second non-profiling use case (after Lau et al.): a runtime
// has two functionally-equivalent versions of a hot kernel and wants to
// know which is faster *in production* without committing to either. A
// branch-on-random statistically routes a small fraction of executions to
// the candidate version; comparing sampled costs picks the winner, and the
// audit itself costs almost nothing.
//
// Here version A computes 15*x with strength-reduced shifts/adds while
// candidate version B uses naive repeated addition (three times the
// instructions). The auditor routes 1/64 of iterations through B.
//
//===----------------------------------------------------------------------===//

#include "isa/ProgramBuilder.h"
#include "support/Table.h"
#include "uarch/Pipeline.h"
#include "workloads/Microbench.h" // marker ids

#include <cstdio>

using namespace bor;

namespace {

constexpr uint64_t Iters = 100000;

enum class Variant { AOnly, BOnly, Audited };

/// Emits version A of the kernel: shift/add polynomial evaluation.
void emitVersionA(ProgramBuilder &B) {
  B.emit(Inst::alui(Opcode::Slli, 5, 4, 1));
  B.emit(Inst::add(5, 5, 4));
  B.emit(Inst::alui(Opcode::Slli, 6, 5, 2));
  B.emit(Inst::add(6, 6, 5));
  B.emit(Inst::add(7, 7, 6));
}

/// Version B: the same 15*x, but computed by naive repeated addition (the
/// unstrength-reduced form a simpler code generator would emit).
void emitVersionB(ProgramBuilder &B) {
  B.emit(Inst::mv(5, 4));
  for (int I = 0; I != 14; ++I)
    B.emit(Inst::add(5, 5, 4));
  B.emit(Inst::add(7, 7, 5));
}

Program build(Variant V) {
  ProgramBuilder B;
  uint64_t AuditCount = B.allocData(8, 8);
  B.nameData("audits", AuditCount);
  B.emitLoadConst(28, DefaultDataBase);
  B.emitLoadConst(2, Iters);
  B.emit(Inst::marker(MarkerRoiBegin));

  auto Loop = B.label();
  auto AuditB = B.label();
  auto Tail = B.label();
  B.bind(Loop);
  B.emit(Inst::addi(4, 4, 1)); // kernel input

  switch (V) {
  case Variant::AOnly:
    emitVersionA(B);
    break;
  case Variant::BOnly:
    emitVersionB(B);
    break;
  case Variant::Audited:
    B.emitBrr(FreqCode::forInterval(64), AuditB);
    emitVersionA(B);
    break;
  }

  B.bind(Tail);
  B.emit(Inst::addi(2, 2, -1));
  B.emitBranch(Opcode::Bne, 2, 0, Loop);
  B.emit(Inst::marker(MarkerRoiEnd));
  B.emit(Inst::halt());

  if (V == Variant::Audited) {
    B.bind(AuditB);
    emitVersionB(B);
    int32_t D = static_cast<int32_t>(AuditCount - DefaultDataBase);
    B.emit(Inst::ld(15, 28, D));
    B.emit(Inst::addi(15, 15, 1));
    B.emit(Inst::st(15, 28, D));
    B.emitJmp(Tail);
  }
  return B.finish();
}

struct Result {
  uint64_t RoiCycles;
  uint64_t Audits;
};

Result run(Variant V) {
  Program P = build(V);
  const DecodedProgram Dec(P);
  Pipeline Pipe(Dec, PipelineConfig());
  RunResult Timed = Pipe.run(1ULL << 40);
  Result R;
  R.RoiCycles = Timed.roiCycles();
  R.Audits = Pipe.machine().memory().readU64(P.symbol("audits"));
  return R;
}

} // namespace

int main() {
  std::printf("online performance auditing with branch-on-random "
              "(%llu kernel executions, audit rate 1/64)\n\n",
              static_cast<unsigned long long>(Iters));

  Result A = run(Variant::AOnly);
  Result BR = run(Variant::BOnly);
  Result Audit = run(Variant::Audited);

  Table T;
  T.addRow({"build", "cycles", "cycles/iteration", "audited executions"});
  T.addRow({"version A only", Table::fmt(A.RoiCycles),
            Table::fmt(static_cast<double>(A.RoiCycles) / Iters, 2), "0"});
  T.addRow({"version B only", Table::fmt(BR.RoiCycles),
            Table::fmt(static_cast<double>(BR.RoiCycles) / Iters, 2), "0"});
  T.addRow({"A + brr-audited B", Table::fmt(Audit.RoiCycles),
            Table::fmt(static_cast<double>(Audit.RoiCycles) / Iters, 2),
            Table::fmt(Audit.Audits)});
  T.print();

  double PerIterA = static_cast<double>(A.RoiCycles) / Iters;
  double PerIterB = static_cast<double>(BR.RoiCycles) / Iters;
  double AuditOverhead =
      100.0 * (static_cast<double>(Audit.RoiCycles) -
               static_cast<double>(A.RoiCycles)) /
      static_cast<double>(A.RoiCycles);
  std::printf("\nverdict: version %s is faster (%.2f vs %.2f "
              "cycles/iteration); auditing it in production cost "
              "%.2f%%.\n",
              PerIterA < PerIterB ? "A" : "B", PerIterA, PerIterB,
              AuditOverhead);
  return 0;
}
