//===- sim/Decode.cpp - Pre-decoded program image ------------------------===//

#include "sim/Decode.h"

#include "telemetry/Counters.h"

using namespace bor;

namespace {

InstKind kindFor(const Inst &I) {
  if (I.isLoad())
    return InstKind::Load;
  if (I.isStore())
    return InstKind::Store;
  if (I.isCondBranch())
    return InstKind::CondBranch;
  if (I.isBrr())
    return InstKind::Brr;
  if (I.isDirectJump())
    return InstKind::DirectJump;
  if (I.isIndirect())
    return InstKind::Indirect;
  switch (I.Op) {
  case Opcode::Halt:
    return InstKind::Halt;
  case Opcode::Marker:
    return InstKind::Marker;
  case Opcode::Mul:
    return InstKind::Mul;
  default:
    return InstKind::Other;
  }
}

int64_t immFor(const Inst &I) {
  // Shift amounts are architecturally masked to 0..63; fold the mask into
  // the image so the dispatch loop shifts unconditionally.
  if (I.Op == Opcode::Slli || I.Op == Opcode::Srli)
    return I.Imm & 63;
  return static_cast<int64_t>(I.Imm);
}

} // namespace

DecodedProgram::DecodedProgram(const Program &P) : Prog(P) {
  Insts.reserve(P.numInsts() + 1);
  for (size_t Index = 0; Index != P.numInsts(); ++Index) {
    const Inst &I = P.at(Index);
    assert(I.Rd < 32 && I.Rs1 < 32 && I.Rs2 < 32 &&
           "register index out of range in code image");
    DecodedInst D;
    D.Op = I.Op;
    D.Rd = I.Rd;
    D.Rs1 = I.Rs1;
    D.Rs2 = I.Rs2;
    D.Freq = I.Freq;
    D.Kind = kindFor(I);
    D.Return = I.Op == Opcode::Jalr && I.Rd == RegZero && I.Rs1 == RegLr;
    uint8_t Srcs[2];
    unsigned NumSrcs = I.sourceRegs(Srcs);
    for (unsigned S = 0; S != NumSrcs; ++S)
      D.Src[S] = Srcs[S];
    if (I.writesReg())
      D.Dst = I.Rd;
    D.Imm = immFor(I);
    // PC-relative control: target = PC + 4*Imm with 64-bit wraparound,
    // exactly as the step interpreter computed it.
    if (I.isCondBranch() || I.isDirectJump() || I.isBrr())
      D.Target = Program::pcForIndex(Index) +
                 4 * static_cast<uint64_t>(static_cast<int64_t>(I.Imm));
    Insts.push_back(D);
  }
  DecodedInst End;
  End.Op = EndOfImage;
  Insts.push_back(End);

  if (telemetry::CounterRegistry::enabled()) {
    static const telemetry::Counter Programs("interp.decode.programs");
    static const telemetry::Counter DecInsts("interp.decode.insts");
    Programs.add();
    DecInsts.add(numInsts());
  }
}
