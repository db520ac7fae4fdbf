//===- sim/Decode.cpp - Pre-decoded program image ------------------------===//

#include "sim/Decode.h"

#include "cfg/Cfg.h"
#include "telemetry/Counters.h"

using namespace bor;

namespace {

uint8_t flagsFor(const Inst &I) {
  uint8_t F = DIF_None;
  if (I.isLoad())
    F |= DIF_Load;
  if (I.isStore())
    F |= DIF_Store;
  if (I.isControl())
    F |= DIF_Control;
  if (I.isControl() || I.Op == Opcode::Marker)
    F |= DIF_EndsBlock;
  if (I.Op == Opcode::Jalr && I.Rd == RegZero && I.Rs1 == RegLr)
    F |= DIF_Return;
  return F;
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
  Insts.reserve(P.numInsts());
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
    D.Flags = flagsFor(I);
    D.Imm = immFor(I);
    // PC-relative control: target = PC + 4*Imm with 64-bit wraparound,
    // exactly as the step interpreter computed it.
    if (I.isCondBranch() || I.isDirectJump() || I.isBrr())
      D.Target = Program::pcForIndex(Index) +
                 4 * static_cast<uint64_t>(static_cast<int64_t>(I.Imm));
    Insts.push_back(D);
  }

  // Block structure comes from the shared CFG IR rather than a private
  // re-derivation: run lengths are distances to the end of the enclosing
  // cfg::Module block (CFG blocks also break at branch targets).
  cfg::Module M = cfg::buildModule(P);
  NumBlocks = M.numBlocks();
  for (size_t Index = 0; Index != Insts.size(); ++Index) {
    const cfg::BasicBlock &B = M.block(M.blockForIndex(Index));
    size_t Run = B.OrigIndex + B.Insts.size() - Index;
    Insts[Index].RunLen = static_cast<uint16_t>(Run > 0xffff ? 0xffff : Run);
  }

  if (telemetry::CounterRegistry::enabled()) {
    static const telemetry::Counter Programs("interp.decode.programs");
    static const telemetry::Counter DecInsts("interp.decode.insts");
    static const telemetry::Counter Blocks("interp.decode.blocks");
    Programs.add();
    DecInsts.add(Insts.size());
    Blocks.add(NumBlocks);
  }
}
