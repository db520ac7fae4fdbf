//===- instr/Sites.cpp - Instrumentation sites and profile counters ------===//

#include "instr/Sites.h"

using namespace bor;

ProfileTable::ProfileTable(ProgramBuilder &B, const std::string &Name,
                           size_t NumCounters)
    : NumCounters(NumCounters) {
  Base = B.allocData(8 * NumCounters, 8);
  B.nameData(Name, Base);
}

void ProfileTable::emitIncrement(ProgramBuilder &B, size_t I, uint8_t BaseReg,
                                 uint64_t BaseRegValue,
                                 uint8_t ScratchReg) const {
  int64_t Disp = static_cast<int64_t>(counterAddr(I)) -
                 static_cast<int64_t>(BaseRegValue);
  // The displacement must fit the 16-bit load/store immediate; allocating
  // profile tables before bulk data keeps it small.
  assert(Disp >= -32768 && Disp <= 32767 &&
         "profile counter out of displacement range");
  int32_t D = static_cast<int32_t>(Disp);
  B.emit(Inst::ld(ScratchReg, BaseReg, D));
  B.emit(Inst::addi(ScratchReg, ScratchReg, 1));
  B.emit(Inst::st(ScratchReg, BaseReg, D));
}

std::vector<uint64_t> ProfileTable::read(const Machine &M) const {
  std::vector<uint64_t> Values(NumCounters);
  for (size_t I = 0; I != NumCounters; ++I)
    Values[I] = M.memory().readU64(counterAddr(I));
  return Values;
}
