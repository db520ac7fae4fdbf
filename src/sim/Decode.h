//===- sim/Decode.h - Pre-decoded program image --------------------------===//
//
// Part of the branch-on-random reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A DecodedProgram is the execution-ready form of a Program: every
/// instruction is rewritten into a DecodedInst with its immediate
/// pre-sign-extended (and shift amounts pre-masked), its PC-relative
/// control target pre-resolved to a byte address, and its timing-side
/// classification worked out once: its kind, its return bit, and its
/// source and destination registers as operand slots. Decoding happens
/// once per Program — the interpreter, the sampled-simulation runner, the
/// pipeline's correct-path oracle and the experiment harness all execute
/// over one shared immutable image, so neither the dispatch loop nor the
/// timing model re-derives anything from the opcode per instruction.
///
//===----------------------------------------------------------------------===//

#ifndef BOR_SIM_DECODE_H
#define BOR_SIM_DECODE_H

#include "isa/Program.h"

#include <vector>

namespace bor {

/// An instruction's class, as the timing model and functional warming
/// tell instructions apart.
enum class InstKind : uint8_t {
  Other, ///< single-cycle ALU, nop, rdlfsr
  Mul,
  Load,
  Store,
  CondBranch,
  Brr,
  DirectJump, ///< jmp, jal
  Indirect,   ///< jalr
  Halt,
  Marker,
};

/// Operand slots index a timing model's per-register ready table of
/// NumRegSlots entries: slots 0..31 are the registers and slot 32 is a
/// sink. A write to r0 goes to the sink, so r0's slot is never written and
/// a missing source, which reads slot 0, always sees 0; the sink is never
/// read.
constexpr uint8_t NoSrcSlot = RegZero;
constexpr uint8_t NoDstSlot = 32;
constexpr unsigned NumRegSlots = 33;

/// The opcode of the sentinel entry that ends every decoded image, one past
/// its last instruction. It is no architectural opcode: only run()'s
/// dispatch table has an entry for it.
constexpr Opcode EndOfImage = static_cast<Opcode>(NumOpcodes);

/// One execution-ready instruction. Immediates are pre-sign-extended to 64
/// bits (shift immediates pre-masked to 0..63); for PC-relative control
/// instructions Target holds the resolved byte target.
struct DecodedInst {
  Opcode Op = Opcode::Nop;
  uint8_t Rd = 0;
  uint8_t Rs1 = 0;
  uint8_t Rs2 = 0;
  uint8_t Freq = 0; ///< brr only: raw 4-bit frequency field.
  InstKind Kind = InstKind::Other;
  /// A return by convention (jalr r0, lr): predicted through the RAS.
  bool Return = false;
  /// Source registers as operand slots (NoSrcSlot when absent).
  uint8_t Src[2] = {NoSrcSlot, NoSrcSlot};
  /// Destination register as an operand slot (NoDstSlot when the
  /// instruction writes no register, including rd = r0).
  uint8_t Dst = NoDstSlot;
  /// Pre-extended ALU/memory immediate or marker id.
  int64_t Imm = 0;
  /// Pre-resolved byte target of PC-relative control (branches, jmp/jal,
  /// brr). Zero for everything else, including jalr (register target).
  uint64_t Target = 0;
};

/// The immutable decoded image of one Program. Construction is the only
/// mutation; afterwards the image is safe to share read-only across
/// ThreadPool workers. ExecRecords point into this image; the source
/// Program must outlive it (the data segment, the raw instructions that
/// disassembly and pipeline observers read, and the symbols stay there).
class DecodedProgram {
public:
  explicit DecodedProgram(const Program &P);

  const Program &program() const { return Prog; }
  /// Number of instructions, not counting the end sentinel.
  size_t numInsts() const { return Insts.size() - 1; }

  const DecodedInst &at(size_t Index) const {
    assert(Index < numInsts() && "instruction index out of range");
    return Insts[Index];
  }

  /// Raw instruction array for the dispatch loop: numInsts() instructions,
  /// then one sentinel whose Op is EndOfImage. The sentinel sits at the
  /// one-past-the-end PC, so execution that falls or branches there reaches
  /// it without a range check.
  const DecodedInst *insts() const { return Insts.data(); }

  /// Instruction index for a byte PC (asserts alignment and range).
  size_t indexForPc(uint64_t Pc) const { return Prog.indexForPc(Pc); }

private:
  const Program &Prog;
  std::vector<DecodedInst> Insts;
};

} // namespace bor

#endif // BOR_SIM_DECODE_H
