//===- cfg/Cfg.h - First-class CFG/Module IR over BOR-RISC ---------------===//
//
// Part of the branch-on-random reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An explicit control-flow-graph representation of a BOR-RISC program:
/// a Module owns BasicBlocks (straight-line instruction runs with typed
/// successor edges, including brr's two-target form), a linearization
/// order (the Layout), the data segment, and symbol annotations.
///
/// The two conversions are lossless in the direction that matters:
///
///  * buildModule(Program) performs leader analysis (index 0, every
///    control/marker successor, every branch/jump/brr target) and edge
///    discovery, preserving the program's linear order as the Layout.
///  * emitProgram(Module) re-linearizes the Layout deterministically:
///    branch targets are re-resolved, conditional branches are inverted
///    when their taken successor became the fall-through neighbour,
///    unconditional jumps are inserted where a fall-through edge no
///    longer lands on the next block, and branches whose offsets outgrow
///    their encoding field are relaxed to a branch-around-jump form
///    (fixed-point, decisions latched so the loop terminates).
///
/// For a program that is already linear — every fall-through edge
/// adjacent, as buildModule produces — emitProgram is byte-identical to
/// the source program: `emitProgram(buildModule(P)) == P`. Reordering the
/// Layout (the profile-guided passes in src/opt/ do exactly this) keeps
/// execution equivalent: BOR-RISC code never materializes code addresses
/// into data, jal return addresses are computed from the dynamic PC, and
/// brr decisions depend only on the decider stream, not on code placement.
///
/// Everything structure-related that used to be re-derived independently
/// (sim/Decode run lengths, instr/Transform region shapes) now consumes
/// this one IR.
///
//===----------------------------------------------------------------------===//

#ifndef BOR_CFG_CFG_H
#define BOR_CFG_CFG_H

#include "isa/Program.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace bor {
namespace cfg {

/// Dense block identifier: an index into Module's block table. Ids are
/// stable across layout edits (the Layout permutes ids, never renames
/// them), which is what lets profiles stay keyed to blocks while the
/// optimizer moves code.
using BlockId = uint32_t;
constexpr BlockId NoBlock = 0xffffffffu;

/// Edge classification. A conditional branch has Taken + Fall; a brr has
/// BrrTaken + Fall (kept distinct because its taken probability is an
/// encoding property, and the optimizer must never invert it); jmp has
/// Taken; jal has Call + Fall (the fall-through block is where the callee
/// returns to); jalr and halt have no static successors.
enum class EdgeKind : uint8_t {
  Fall,     ///< Sequential successor.
  Taken,    ///< Conditional-branch taken target, or jmp target.
  BrrTaken, ///< brr taken target (probability (1/2)^(freq+1)).
  Call,     ///< jal target (control returns to the Fall successor).
};

const char *edgeKindName(EdgeKind K);

struct Edge {
  BlockId Dst = NoBlock;
  EdgeKind Kind = EdgeKind::Fall;
};

/// A maximal straight-line instruction run. The last instruction is the
/// terminator when it is a control instruction; marker and leader-split
/// blocks end with a plain instruction and a Fall edge. Control
/// instructions keep their original Imm field, but it is dead weight: the
/// authoritative target is the corresponding edge, and emitProgram
/// recomputes every offset.
struct BasicBlock {
  std::vector<Inst> Insts;
  std::vector<Edge> Succs;
  /// Source-program index of the first instruction (buildModule only;
  /// ~0 for blocks synthesized afterwards).
  size_t OrigIndex = ~static_cast<size_t>(0);

  /// The terminating control instruction, or nullptr for fall-through-only
  /// blocks (plain tail, marker tail, or empty).
  const Inst *terminator() const {
    return (!Insts.empty() && Insts.back().isControl()) ? &Insts.back()
                                                        : nullptr;
  }

  /// First successor of kind \p K, or NoBlock.
  BlockId succ(EdgeKind K) const {
    for (const Edge &E : Succs)
      if (E.Kind == K)
        return E.Dst;
    return NoBlock;
  }
  BlockId fallThrough() const { return succ(EdgeKind::Fall); }

  /// Replaces the first edge of kind \p K (or appends one).
  void setSucc(EdgeKind K, BlockId Dst) {
    for (Edge &E : Succs)
      if (E.Kind == K) {
        E.Dst = Dst;
        return;
      }
    Succs.push_back({Dst, K});
  }
  void dropSucc(EdgeKind K) {
    for (size_t I = 0; I != Succs.size(); ++I)
      if (Succs[I].Kind == K) {
        Succs.erase(Succs.begin() + I);
        return;
      }
  }
};

constexpr uint32_t NoFunction = 0xffffffffu;

/// Function membership metadata: an entry block (block 0 of the module,
/// plus every jal target) and the blocks reachable from it along
/// non-Call edges. Purely descriptive — emission works from the Layout —
/// but the hot/cold splitting pass groups its decisions per function.
struct Function {
  std::string Name;
  BlockId Entry = NoBlock;
  std::vector<BlockId> Blocks; ///< discovery (BFS) order, Entry first.
};

/// A code label that survives relinearization: emitProgram recomputes its
/// address from its block's final position.
struct CodeSymbol {
  std::string Name;
  BlockId Block = NoBlock;
  uint32_t Offset = 0; ///< instruction offset within the block.
};

/// The CFG form of one program. Copyable by value (the optimizer copies
/// the baseline module per pass pipeline).
class Module {
public:
  // --- Blocks ----------------------------------------------------------
  BlockId addBlock() {
    Blocks.emplace_back();
    return static_cast<BlockId>(Blocks.size() - 1);
  }
  size_t numBlocks() const { return Blocks.size(); }
  /// Splits block \p Id before instruction offset \p At: a fresh block
  /// receives the instructions [At, end) and all of \p Id's successor
  /// edges, \p Id keeps [0, At) and a Fall edge to the new block (a
  /// semantic no-op until the caller rewrites it). The new block is
  /// inserted into the layout immediately after \p Id; code symbols and
  /// index provenance at or past the split point are remapped. Incoming
  /// edges still target \p Id — that is the point: a check inserted at
  /// \p Id's tail guards everything that used to start at \p At.
  BlockId splitBlock(BlockId Id, uint32_t At);
  /// Inserts instructions before offset \p At of block \p Id, shifting
  /// the block's code-symbol offsets at or past the insertion point so
  /// they keep naming the same instruction.
  void insertInsts(BlockId Id, uint32_t At, const std::vector<Inst> &Ins);
  BasicBlock &block(BlockId Id) {
    assert(Id < Blocks.size() && "block id out of range");
    return Blocks[Id];
  }
  const BasicBlock &block(BlockId Id) const {
    assert(Id < Blocks.size() && "block id out of range");
    return Blocks[Id];
  }

  // --- Layout ----------------------------------------------------------
  /// Linearization order. Every block appears exactly once; the first
  /// block in the layout is the execution entry (address 0).
  const std::vector<BlockId> &layout() const { return Layout; }
  /// Replaces the layout; asserts \p L is a permutation of all blocks.
  void setLayout(std::vector<BlockId> L);
  /// Appends a freshly added block to the layout end.
  void appendToLayout(BlockId Id) { Layout.push_back(Id); }

  // --- Data segment ----------------------------------------------------
  uint64_t dataBase() const { return DataBase; }
  void setDataBase(uint64_t Base) { DataBase = Base; }
  const std::vector<uint8_t> &data() const { return Data; }
  /// Reserves \p Size zeroed bytes with power-of-two alignment, returning
  /// their address (mirrors ProgramBuilder::allocData so CFG-path
  /// transforms can allocate instrumentation state).
  uint64_t allocData(size_t Size, size_t Align = 8);
  void initDataU64(uint64_t Addr, uint64_t Value);
  /// Replaces the whole data segment (used when lifting a Program).
  void setData(std::vector<uint8_t> Bytes) { Data = std::move(Bytes); }

  // --- Symbols ---------------------------------------------------------
  void nameData(const std::string &Name, uint64_t Addr) {
    DataSymbols[Name] = Addr;
  }
  const std::map<std::string, uint64_t> &dataSymbols() const {
    return DataSymbols;
  }
  void addCodeSymbol(std::string Name, BlockId Block, uint32_t Offset) {
    CodeSymbols.push_back({std::move(Name), Block, Offset});
  }
  const std::vector<CodeSymbol> &codeSymbols() const { return CodeSymbols; }

  // --- Build provenance ------------------------------------------------
  /// Block containing source-program instruction \p Index (buildModule
  /// populates this; empty for hand-assembled modules).
  const std::vector<BlockId> &indexToBlock() const { return IndexToBlock; }
  BlockId blockForIndex(size_t Index) const {
    assert(Index < IndexToBlock.size() && "index outside built program");
    return IndexToBlock[Index];
  }
  void setIndexToBlock(std::vector<BlockId> Map) {
    IndexToBlock = std::move(Map);
  }

  // --- Functions -------------------------------------------------------
  /// (Re)derives function membership: entries are the layout head plus
  /// every Call-edge target; blocks are claimed breadth-first along
  /// non-Call edges, first entry wins. Names come from offset-0 code
  /// symbols when present.
  void computeFunctions();
  const std::vector<Function> &functions() const { return Funcs; }
  /// Function index owning \p Id, or NoFunction (unreachable block).
  uint32_t functionOf(BlockId Id) const {
    return Id < FuncOf.size() ? FuncOf[Id] : NoFunction;
  }

private:
  std::vector<BasicBlock> Blocks;
  std::vector<BlockId> Layout;
  uint64_t DataBase = DefaultDataBase;
  std::vector<uint8_t> Data;
  std::map<std::string, uint64_t> DataSymbols;
  std::vector<CodeSymbol> CodeSymbols;
  std::vector<BlockId> IndexToBlock;
  std::vector<Function> Funcs;
  std::vector<uint32_t> FuncOf;
};

/// Lifts \p P into CFG form. Leaders: index 0, every PC-relative control
/// target, and every instruction after a control or marker. A control
/// target of "one past the end" materializes an empty sentinel block.
/// Publishes cfg.build.* counters.
Module buildModule(const Program &P);

struct EmitOptions {
  /// Drop jmp terminators whose target became the next block in the
  /// layout. Off by default: round-trip fidelity requires keeping a
  /// source program's explicit jumps; the optimizer turns it on.
  bool ElideJumpToNext = false;
};

struct EmitStats {
  size_t Insts = 0;            ///< total emitted instructions
  size_t InvertedBranches = 0; ///< cond branches flipped for adjacency
  size_t InsertedJumps = 0;    ///< jmps added for displaced fall-throughs
  size_t ElidedJumps = 0;      ///< jmp-to-next dropped (opt-in)
  size_t RelaxedBranches = 0;  ///< branches rewritten branch-around-jump
};

/// Linearizes \p M in layout order. Deterministic; asserts every offset
/// fits its encoding field after relaxation. Publishes cfg.emit.*
/// counters.
Program emitProgram(const Module &M, const EmitOptions &Opts = {},
                    EmitStats *Stats = nullptr);

/// The opcode computing the complementary condition (beq<->bne,
/// blt<->bge). Asserts on non-conditional opcodes.
Opcode invertedBranchOpcode(Opcode Op);

} // namespace cfg
} // namespace bor

#endif // BOR_CFG_CFG_H
