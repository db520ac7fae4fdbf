//===- isa/ProgramBuilder.h - Label-based BOR-RISC assembler -------------===//
//
// Part of the branch-on-random reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The ProgramBuilder plays the role of the paper's assembly post-processing
/// step (Section 5.3): workload generators construct a baseline program
/// once, and instrumentation transforms splice sampling frameworks into it
/// with label-based control flow, guaranteeing that the non-framework
/// instructions, register usage, and layout are identical across the
/// compared binaries.
///
//===----------------------------------------------------------------------===//

#ifndef BOR_ISA_PROGRAMBUILDER_H
#define BOR_ISA_PROGRAMBUILDER_H

#include "isa/Program.h"

#include <string>
#include <vector>

namespace bor {

/// Incrementally builds a Program with forward-referencable labels and an
/// initialized data segment.
class ProgramBuilder {
public:
  using LabelId = unsigned;

  explicit ProgramBuilder(uint64_t DataBase = DefaultDataBase)
      : DataBase(DataBase) {}

  // --- Code ------------------------------------------------------------

  /// Creates a fresh, unbound label.
  LabelId label();

  /// Binds \p L to the next emitted instruction.
  void bind(LabelId L);

  /// Current instruction index (== the index the next emit() will use).
  size_t here() const { return Code.size(); }

  /// Appends \p I verbatim; returns its index.
  size_t emit(Inst I);

  /// Control-flow emitters resolving label offsets at finish() time.
  size_t emitBranch(Opcode Op, uint8_t Rs1, uint8_t Rs2, LabelId Target);
  size_t emitJmp(LabelId Target);
  size_t emitJal(uint8_t Rd, LabelId Target);
  size_t emitBrr(FreqCode Freq, LabelId Target);

  /// Materializes an arbitrary 64-bit constant into \p Rd using li/slli/ori
  /// sequences (1..9 instructions depending on the value).
  void emitLoadConst(uint8_t Rd, uint64_t Value);

  // --- Data ------------------------------------------------------------

  /// Reserves \p Size zero-initialized bytes in the data segment with the
  /// given power-of-two alignment and returns their address.
  uint64_t allocData(size_t Size, size_t Align = 8);

  /// Writes a little-endian u64 into previously allocated data.
  void initDataU64(uint64_t Addr, uint64_t Value);
  void initDataBytes(uint64_t Addr, const std::vector<uint8_t> &Bytes);

  // --- Symbols ---------------------------------------------------------

  void nameData(const std::string &Name, uint64_t Addr);
  void nameLabel(const std::string &Name, LabelId L);

  /// Resolves all fixups and produces the final Program. Asserts that every
  /// referenced label was bound and every offset fits its encoding field.
  Program finish();

private:
  struct Fixup {
    size_t InstIndex;
    LabelId Target;
  };

  std::vector<Inst> Code;
  std::vector<int64_t> LabelPositions; ///< -1 while unbound.
  std::vector<Fixup> Fixups;
  uint64_t DataBase;
  std::vector<uint8_t> Data;
  std::vector<std::pair<std::string, uint64_t>> DataSymbols;
  std::vector<std::pair<std::string, LabelId>> LabelSymbols;
};

} // namespace bor

#endif // BOR_ISA_PROGRAMBUILDER_H
