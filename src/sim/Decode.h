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
/// control target pre-resolved to a byte address, and classification
/// flags folded into one byte. Decoding happens once per Program — the
/// interpreter, the sampled-simulation runner, the pipeline's correct-path
/// oracle and the experiment harness all execute over one shared immutable
/// image, so the per-instruction dispatch loop never re-derives operands.
///
/// The image's static basic-block structure is no longer re-derived here:
/// decoding builds the program's cfg::Module (cfg/Cfg.h) and consumes its
/// block metadata — run lengths to the end of the enclosing CFG block and
/// the module's block count. One IR answers every "what block is this?"
/// question (decode, profile mapping) identically.
///
//===----------------------------------------------------------------------===//

#ifndef BOR_SIM_DECODE_H
#define BOR_SIM_DECODE_H

#include "isa/Program.h"

#include <vector>

namespace bor {

/// Classification flags of a DecodedInst.
enum DecodedInstFlags : uint8_t {
  DIF_None = 0,
  DIF_Load = 1u << 0,
  DIF_Store = 1u << 1,
  /// Can redirect fetch (cond branch, jump, brr, halt).
  DIF_Control = 1u << 2,
  /// Last instruction of its static basic block (control, halt or marker).
  DIF_EndsBlock = 1u << 3,
  /// Indirect jump that is a return by convention (jalr r0, lr).
  DIF_Return = 1u << 4,
};

/// One execution-ready instruction. Immediates are pre-sign-extended to 64
/// bits (shift immediates pre-masked to 0..63); for PC-relative control
/// instructions Target holds the resolved byte target.
struct DecodedInst {
  Opcode Op = Opcode::Nop;
  uint8_t Rd = 0;
  uint8_t Rs1 = 0;
  uint8_t Rs2 = 0;
  uint8_t Freq = 0;  ///< brr only: raw 4-bit frequency field.
  uint8_t Flags = 0; ///< DecodedInstFlags.
  /// Instructions from this one to the end of its CFG basic block,
  /// inclusive (>= 1; saturates at 0xffff). CFG blocks also break at
  /// branch targets (leaders), not just after terminators.
  uint16_t RunLen = 1;
  /// Pre-extended ALU/memory immediate or marker id.
  int64_t Imm = 0;
  /// Pre-resolved byte target of PC-relative control (branches, jmp/jal,
  /// brr). Zero for everything else, including jalr (register target).
  uint64_t Target = 0;

  bool endsBlock() const { return Flags & DIF_EndsBlock; }
  bool isReturn() const { return Flags & DIF_Return; }
};

/// The immutable decoded image of one Program. Construction is the only
/// mutation; afterwards the image is safe to share read-only across
/// ThreadPool workers. The source Program must outlive the decoded image
/// (ExecRecords and the data segment still refer into it).
class DecodedProgram {
public:
  explicit DecodedProgram(const Program &P);

  const Program &program() const { return Prog; }
  size_t numInsts() const { return Insts.size(); }
  /// Static basic blocks in the image — the cfg::Module's block count
  /// (leader-split runs count individually; a branch-to-end sentinel
  /// block counts too).
  size_t numBlocks() const { return NumBlocks; }

  const DecodedInst &at(size_t Index) const {
    assert(Index < Insts.size() && "instruction index out of range");
    return Insts[Index];
  }

  /// Raw instruction array for the dispatch loop.
  const DecodedInst *insts() const { return Insts.data(); }

  /// Instruction index for a byte PC (asserts alignment and range).
  size_t indexForPc(uint64_t Pc) const { return Prog.indexForPc(Pc); }

private:
  const Program &Prog;
  std::vector<DecodedInst> Insts;
  size_t NumBlocks = 0;
};

} // namespace bor

#endif // BOR_SIM_DECODE_H
