//===- isa/ProgramBuilder.cpp - Label-based BOR-RISC assembler -----------===//

#include "isa/ProgramBuilder.h"

#include "isa/Encoding.h"

#include <algorithm>

using namespace bor;

ProgramBuilder::LabelId ProgramBuilder::label() {
  LabelPositions.push_back(-1);
  return static_cast<LabelId>(LabelPositions.size() - 1);
}

void ProgramBuilder::bind(LabelId L) {
  assert(L < LabelPositions.size() && "unknown label");
  assert(LabelPositions[L] == -1 && "label bound twice");
  LabelPositions[L] = static_cast<int64_t>(Code.size());
}

size_t ProgramBuilder::emit(Inst I) {
  Code.push_back(I);
  return Code.size() - 1;
}

size_t ProgramBuilder::emitBranch(Opcode Op, uint8_t Rs1, uint8_t Rs2,
                                  LabelId Target) {
  size_t Index = emit(Inst::branch(Op, Rs1, Rs2, 0));
  Fixups.push_back({Index, Target});
  return Index;
}

size_t ProgramBuilder::emitJmp(LabelId Target) {
  size_t Index = emit(Inst::jmp(0));
  Fixups.push_back({Index, Target});
  return Index;
}

size_t ProgramBuilder::emitJal(uint8_t Rd, LabelId Target) {
  size_t Index = emit(Inst::jal(Rd, 0));
  Fixups.push_back({Index, Target});
  return Index;
}

size_t ProgramBuilder::emitBrr(FreqCode Freq, LabelId Target) {
  size_t Index = emit(Inst::brr(Freq, 0));
  Fixups.push_back({Index, Target});
  return Index;
}

void ProgramBuilder::emitLoadConst(uint8_t Rd, uint64_t Value) {
  // Small signed immediates fit a single li.
  int64_t Signed = static_cast<int64_t>(Value);
  if (Signed >= -32768 && Signed <= 32767) {
    emit(Inst::li(Rd, static_cast<int32_t>(Signed)));
    return;
  }
  // Build from 15-bit chunks, most significant first, so every ori operand
  // is a nonnegative 16-bit immediate.
  bool Started = false;
  for (int Shift = 60; Shift >= 0; Shift -= 15) {
    uint32_t Chunk = static_cast<uint32_t>((Value >> Shift) & 0x7fff);
    if (!Started) {
      if (Chunk == 0)
        continue;
      emit(Inst::li(Rd, static_cast<int32_t>(Chunk)));
      Started = true;
      continue;
    }
    emit(Inst::alui(Opcode::Slli, Rd, Rd, 15));
    if (Chunk != 0)
      emit(Inst::alui(Opcode::Ori, Rd, Rd, static_cast<int32_t>(Chunk)));
  }
  if (!Started)
    emit(Inst::li(Rd, 0));
}

uint64_t ProgramBuilder::allocData(size_t Size, size_t Align) {
  assert(Align != 0 && (Align & (Align - 1)) == 0 &&
         "alignment must be a power of two");
  size_t Offset = Data.size();
  Offset = (Offset + Align - 1) & ~(Align - 1);
  Data.resize(Offset + Size, 0);
  return DataBase + Offset;
}

void ProgramBuilder::initDataU64(uint64_t Addr, uint64_t Value) {
  assert(Addr >= DataBase && Addr + 8 <= DataBase + Data.size() &&
         "u64 init outside allocated data");
  size_t Offset = Addr - DataBase;
  for (unsigned I = 0; I != 8; ++I)
    Data[Offset + I] = static_cast<uint8_t>(Value >> (8 * I));
}

void ProgramBuilder::initDataBytes(uint64_t Addr,
                                   const std::vector<uint8_t> &Bytes) {
  assert(Addr >= DataBase && Addr + Bytes.size() <= DataBase + Data.size() &&
         "byte init outside allocated data");
  std::copy(Bytes.begin(), Bytes.end(), Data.begin() + (Addr - DataBase));
}

void ProgramBuilder::nameData(const std::string &Name, uint64_t Addr) {
  DataSymbols.emplace_back(Name, Addr);
}

void ProgramBuilder::nameLabel(const std::string &Name, LabelId L) {
  LabelSymbols.emplace_back(Name, L);
}

Program ProgramBuilder::finish() {
  for (const Fixup &F : Fixups) {
    assert(F.Target < LabelPositions.size() && "unknown label in fixup");
    int64_t Pos = LabelPositions[F.Target];
    assert(Pos >= 0 && "branch to a label that was never bound");
    Inst &I = Code[F.InstIndex];
    int64_t Offset = Pos - static_cast<int64_t>(F.InstIndex);
    I.Imm = static_cast<int32_t>(Offset);
    assert(immediateFits(I) && "branch offset exceeds encoding range");
  }

  Program P(std::move(Code), DataBase, std::move(Data));
  for (const auto &[Name, Addr] : DataSymbols)
    P.setSymbol(Name, Addr);
  for (const auto &[Name, L] : LabelSymbols) {
    assert(LabelPositions[L] >= 0 && "named label was never bound");
    P.setSymbol(Name,
                Program::pcForIndex(static_cast<size_t>(LabelPositions[L])));
  }
  return P;
}
