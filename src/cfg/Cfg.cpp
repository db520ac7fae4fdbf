//===- cfg/Cfg.cpp - First-class CFG/Module IR over BOR-RISC -------------===//

#include "cfg/Cfg.h"

#include "isa/Encoding.h"
#include "telemetry/Counters.h"

#include <algorithm>

using namespace bor;
using namespace bor::cfg;

const char *cfg::edgeKindName(EdgeKind K) {
  switch (K) {
  case EdgeKind::Fall:
    return "fall";
  case EdgeKind::Taken:
    return "taken";
  case EdgeKind::BrrTaken:
    return "brr";
  case EdgeKind::Call:
    return "call";
  }
  assert(false && "unknown edge kind");
  return "?";
}

Opcode cfg::invertedBranchOpcode(Opcode Op) {
  switch (Op) {
  case Opcode::Beq:
    return Opcode::Bne;
  case Opcode::Bne:
    return Opcode::Beq;
  case Opcode::Blt:
    return Opcode::Bge;
  case Opcode::Bge:
    return Opcode::Blt;
  default:
    assert(false && "not an invertible conditional branch");
    return Op;
  }
}

void Module::setLayout(std::vector<BlockId> L) {
  assert(L.size() == Blocks.size() && "layout must place every block");
#ifndef NDEBUG
  std::vector<bool> Seen(Blocks.size(), false);
  for (BlockId Id : L) {
    assert(Id < Blocks.size() && "layout references unknown block");
    assert(!Seen[Id] && "layout places a block twice");
    Seen[Id] = true;
  }
#endif
  Layout = std::move(L);
}

uint64_t Module::allocData(size_t Size, size_t Align) {
  assert(Align != 0 && (Align & (Align - 1)) == 0 &&
         "alignment must be a power of two");
  size_t Offset = Data.size();
  Offset = (Offset + Align - 1) & ~(Align - 1);
  Data.resize(Offset + Size, 0);
  return DataBase + Offset;
}

void Module::initDataU64(uint64_t Addr, uint64_t Value) {
  assert(Addr >= DataBase && Addr + 8 <= DataBase + Data.size() &&
         "u64 init outside allocated data");
  size_t Offset = Addr - DataBase;
  for (unsigned I = 0; I != 8; ++I)
    Data[Offset + I] = static_cast<uint8_t>(Value >> (8 * I));
}

BlockId Module::splitBlock(BlockId Id, uint32_t At) {
  assert(Id < Blocks.size() && "block id out of range");
  assert(At <= Blocks[Id].Insts.size() && "split point outside block");
  size_t OldSize = Blocks[Id].Insts.size();
  BlockId Cont = addBlock(); // may reallocate Blocks; take refs after
  BasicBlock &B = Blocks[Id];
  BasicBlock &C = Blocks[Cont];
  C.Insts.assign(B.Insts.begin() + At, B.Insts.end());
  B.Insts.resize(At);
  C.Succs = std::move(B.Succs);
  B.Succs.clear();
  B.Succs.push_back({Cont, EdgeKind::Fall});
  if (B.OrigIndex != ~static_cast<size_t>(0)) {
    C.OrigIndex = B.OrigIndex + At;
    for (size_t I = C.OrigIndex;
         I != B.OrigIndex + OldSize && I < IndexToBlock.size(); ++I)
      if (IndexToBlock[I] == Id)
        IndexToBlock[I] = Cont;
  }
  auto It = std::find(Layout.begin(), Layout.end(), Id);
  assert(It != Layout.end() && "split block missing from layout");
  Layout.insert(It + 1, Cont);
  for (CodeSymbol &S : CodeSymbols)
    if (S.Block == Id && S.Offset >= At) {
      S.Block = Cont;
      S.Offset -= At;
    }
  return Cont;
}

void Module::insertInsts(BlockId Id, uint32_t At,
                         const std::vector<Inst> &Ins) {
  BasicBlock &B = block(Id);
  assert(At <= B.Insts.size() && "insertion point outside block");
  B.Insts.insert(B.Insts.begin() + At, Ins.begin(), Ins.end());
  for (CodeSymbol &S : CodeSymbols)
    if (S.Block == Id && S.Offset >= At)
      S.Offset += static_cast<uint32_t>(Ins.size());
}

void Module::computeFunctions() {
  Funcs.clear();
  FuncOf.assign(Blocks.size(), NoFunction);
  if (Layout.empty())
    return;

  // Entry order: the module entry first, then Call targets in block-id
  // order (deterministic regardless of edge-vector ordering).
  std::vector<BlockId> Entries;
  Entries.push_back(Layout.front());
  std::vector<bool> IsEntry(Blocks.size(), false);
  IsEntry[Layout.front()] = true;
  std::vector<BlockId> CallTargets;
  for (const BasicBlock &B : Blocks)
    for (const Edge &E : B.Succs)
      if (E.Kind == EdgeKind::Call && E.Dst != NoBlock)
        CallTargets.push_back(E.Dst);
  std::sort(CallTargets.begin(), CallTargets.end());
  CallTargets.erase(std::unique(CallTargets.begin(), CallTargets.end()),
                    CallTargets.end());
  for (BlockId T : CallTargets)
    if (!IsEntry[T]) {
      IsEntry[T] = true;
      Entries.push_back(T);
    }

  for (BlockId Entry : Entries) {
    if (FuncOf[Entry] != NoFunction)
      continue; // already claimed by an earlier function's body
    Function F;
    F.Entry = Entry;
    uint32_t FuncId = static_cast<uint32_t>(Funcs.size());
    // BFS along non-Call edges; first claim wins.
    std::vector<BlockId> Queue{Entry};
    FuncOf[Entry] = FuncId;
    for (size_t Head = 0; Head != Queue.size(); ++Head) {
      BlockId Id = Queue[Head];
      F.Blocks.push_back(Id);
      for (const Edge &E : Blocks[Id].Succs) {
        if (E.Kind == EdgeKind::Call || E.Dst == NoBlock)
          continue;
        // Entries start their own function even when also reachable by a
        // fall/taken edge (a callee fallen into remains its own function).
        if (IsEntry[E.Dst] && E.Dst != Entry)
          continue;
        if (FuncOf[E.Dst] == NoFunction) {
          FuncOf[E.Dst] = FuncId;
          Queue.push_back(E.Dst);
        }
      }
    }
    // Name from an offset-0 code symbol on the entry block, if any.
    for (const CodeSymbol &S : CodeSymbols)
      if (S.Block == Entry && S.Offset == 0) {
        F.Name = S.Name;
        break;
      }
    if (F.Name.empty())
      F.Name = "fn_b" + std::to_string(Entry);
    Funcs.push_back(std::move(F));
  }
}

//===----------------------------------------------------------------------===//
// buildModule
//===----------------------------------------------------------------------===//

namespace {

/// True if \p I ends a static basic block in the source linearization:
/// any control instruction, plus marker (mirroring sim/Decode's
/// DIF_EndsBlock).
bool endsBlock(const Inst &I) {
  return I.isControl() || I.Op == Opcode::Marker;
}

/// Target instruction index of a PC-relative control instruction.
size_t targetIndex(size_t Index, const Inst &I) {
  int64_t T = static_cast<int64_t>(Index) + static_cast<int64_t>(I.Imm);
  assert(T >= 0 && "control target before code start");
  return static_cast<size_t>(T);
}

} // namespace

Module cfg::buildModule(const Program &P) {
  const std::vector<Inst> &Code = P.code();
  const size_t N = Code.size();

  // --- Leader analysis --------------------------------------------------
  std::vector<bool> Leader(N + 1, false);
  if (N)
    Leader[0] = true;
  bool NeedsSentinel = false;
  for (size_t I = 0; I != N; ++I) {
    const Inst &In = Code[I];
    if (endsBlock(In))
      Leader[I + 1] = true;
    if (In.isCondBranch() || In.isDirectJump() || In.isBrr()) {
      size_t T = targetIndex(I, In);
      assert(T <= N && "control target past end of code");
      Leader[T] = true;
      if (T == N)
        NeedsSentinel = true;
    }
  }

  // --- Block formation --------------------------------------------------
  Module M;
  // Data segment and symbols carry over; code symbols become
  // position-independent (block, offset) pairs.
  M.setDataBase(P.dataBase());
  M.setData(P.data());

  std::vector<BlockId> IndexToBlock(N, NoBlock);
  std::vector<size_t> BlockStart; // source index of each block's head
  for (size_t I = 0; I != N;) {
    size_t End = I + 1;
    while (End != N && !Leader[End])
      ++End;
    BlockId Id = M.addBlock();
    BasicBlock &B = M.block(Id);
    B.OrigIndex = I;
    B.Insts.assign(Code.begin() + I, Code.begin() + End);
    for (size_t J = I; J != End; ++J)
      IndexToBlock[J] = Id;
    BlockStart.push_back(I);
    M.appendToLayout(Id);
    I = End;
  }
  BlockId Sentinel = NoBlock;
  if (NeedsSentinel) {
    Sentinel = M.addBlock();
    M.block(Sentinel).OrigIndex = N;
    M.appendToLayout(Sentinel);
  }

  auto BlockAt = [&](size_t Index) -> BlockId {
    if (Index == N) {
      assert(Sentinel != NoBlock && "fall-through past end without sentinel");
      return Sentinel;
    }
    BlockId Id = IndexToBlock[Index];
    assert(Id != NoBlock);
    assert(M.block(Id).OrigIndex == Index && "edge target is not a leader");
    return Id;
  };

  // --- Edge discovery ---------------------------------------------------
  size_t NumEdges = 0;
  for (BlockId Id = 0; Id != M.numBlocks(); ++Id) {
    BasicBlock &B = M.block(Id);
    if (B.Insts.empty())
      continue; // sentinel
    size_t LastIndex = B.OrigIndex + B.Insts.size() - 1;
    const Inst &Last = B.Insts.back();
    size_t Next = LastIndex + 1;
    if (Last.isCondBranch()) {
      B.Succs.push_back({BlockAt(targetIndex(LastIndex, Last)),
                         EdgeKind::Taken});
      B.Succs.push_back({BlockAt(Next), EdgeKind::Fall});
    } else if (Last.isBrr()) {
      B.Succs.push_back({BlockAt(targetIndex(LastIndex, Last)),
                         EdgeKind::BrrTaken});
      B.Succs.push_back({BlockAt(Next), EdgeKind::Fall});
    } else if (Last.Op == Opcode::Jmp) {
      B.Succs.push_back({BlockAt(targetIndex(LastIndex, Last)),
                         EdgeKind::Taken});
    } else if (Last.Op == Opcode::Jal) {
      B.Succs.push_back({BlockAt(targetIndex(LastIndex, Last)),
                         EdgeKind::Call});
      B.Succs.push_back({BlockAt(Next), EdgeKind::Fall});
    } else if (Last.Op == Opcode::Jalr || Last.Op == Opcode::Halt) {
      // No static successors.
    } else {
      // Plain or marker tail: sequential successor, when one exists.
      if (Next < N || (Next == N && Sentinel != NoBlock))
        B.Succs.push_back({BlockAt(Next), EdgeKind::Fall});
    }
    NumEdges += B.Succs.size();
  }

  // --- Symbols ----------------------------------------------------------
  for (const auto &[Name, Addr] : P.symbols()) {
    bool IsCode = Addr < P.dataBase() && Addr % 4 == 0 && Addr / 4 < N;
    if (!IsCode) {
      M.nameData(Name, Addr);
      continue;
    }
    size_t Index = Addr / 4;
    BlockId Id = IndexToBlock[Index];
    M.addCodeSymbol(Name, Id,
                    static_cast<uint32_t>(Index - M.block(Id).OrigIndex));
  }

  M.setIndexToBlock(std::move(IndexToBlock));
  M.computeFunctions();

  if (telemetry::CounterRegistry::enabled()) {
    static const telemetry::Counter Modules("cfg.build.modules");
    static const telemetry::Counter Blocks("cfg.build.blocks");
    static const telemetry::Counter Edges("cfg.build.edges");
    static const telemetry::Counter Functions("cfg.build.functions");
    Modules.add();
    Blocks.add(M.numBlocks());
    Edges.add(NumEdges);
    Functions.add(M.functions().size());
  }
  return M;
}

//===----------------------------------------------------------------------===//
// emitProgram
//===----------------------------------------------------------------------===//

namespace {

/// Per-block linearization decision. Sizes depend on addresses (for
/// relaxation) and addresses on sizes, so emission iterates to a fixed
/// point; Relaxed latches to guarantee monotone growth and termination.
struct TailPlan {
  bool Invert = false;   ///< cond branch emitted with complementary opcode
  bool Relaxed = false;  ///< cond branch as invert-around + jmp to target
  bool TrailJmp = false; ///< jmp appended for a displaced fall-through
  bool Elide = false;    ///< jmp terminator dropped (target adjacent)
  uint32_t Size = 0;     ///< emitted instructions for the whole block
};

bool fitsBranchOffset(Opcode Op, uint8_t Rs1, uint8_t Rs2, int64_t Offset) {
  if (Offset < INT32_MIN || Offset > INT32_MAX)
    return false;
  Inst Probe = Inst::branch(Op, Rs1, Rs2, static_cast<int32_t>(Offset));
  return immediateFits(Probe);
}

} // namespace

Program cfg::emitProgram(const Module &M, const EmitOptions &Opts,
                         EmitStats *StatsOut) {
  const std::vector<BlockId> &Layout = M.layout();
  assert(Layout.size() == M.numBlocks() && "layout must place every block");

  const size_t NumBlocks = M.numBlocks();
  std::vector<uint32_t> Addr(NumBlocks, 0); // instruction-index address
  std::vector<TailPlan> Plans(NumBlocks);
  std::vector<bool> LatchRelax(NumBlocks, false);
  std::vector<uint32_t> Sizes(NumBlocks);
  for (BlockId Id = 0; Id != NumBlocks; ++Id)
    Sizes[Id] = static_cast<uint32_t>(M.block(Id).Insts.size());

  auto NextInLayout = [&](size_t Pos) -> BlockId {
    return Pos + 1 < Layout.size() ? Layout[Pos + 1] : NoBlock;
  };

  // Fixed-point size/address assignment. Only conditional-branch
  // relaxation can change a plan between rounds, and it is latched, so
  // the loop terminates in at most NumBlocks + 2 rounds.
  for (size_t Round = 0;; ++Round) {
    assert(Round <= NumBlocks + 2 && "relaxation failed to converge");
    uint32_t Cursor = 0;
    for (BlockId Id : Layout) {
      Addr[Id] = Cursor;
      Cursor += Sizes[Id];
    }

    bool Changed = false;
    for (size_t Pos = 0; Pos != Layout.size(); ++Pos) {
      BlockId Id = Layout[Pos];
      const BasicBlock &B = M.block(Id);
      BlockId Next = NextInLayout(Pos);
      TailPlan Plan;
      uint32_t Body = static_cast<uint32_t>(B.Insts.size());

      const Inst *Term = B.terminator();
      if (!Term) {
        // Plain / marker / empty block: only a displaced fall-through
        // needs glue.
        BlockId F = B.fallThrough();
        if (F != NoBlock && F != Next)
          Plan.TrailJmp = true;
        Plan.Size = Body + (Plan.TrailJmp ? 1 : 0);
      } else if (Term->isCondBranch()) {
        BlockId T = B.succ(EdgeKind::Taken);
        BlockId F = B.fallThrough();
        assert(T != NoBlock && F != NoBlock &&
               "cond branch needs taken + fall successors");
        uint32_t BranchPos = Addr[Id] + Body - 1;
        auto Fits = [&](BlockId Dst) {
          return fitsBranchOffset(Term->Op, Term->Rs1, Term->Rs2,
                                  static_cast<int64_t>(Addr[Dst]) -
                                      static_cast<int64_t>(BranchPos));
        };
        if (LatchRelax[Id]) {
          Plan.Relaxed = true;
        } else if (F == Next) {
          if (!Fits(T)) {
            LatchRelax[Id] = true;
            Plan.Relaxed = true;
          }
        } else if (T == Next) {
          if (Fits(F)) {
            Plan.Invert = true;
          } else {
            LatchRelax[Id] = true;
            Plan.Relaxed = true;
          }
        } else {
          if (Fits(T)) {
            Plan.TrailJmp = true;
          } else {
            LatchRelax[Id] = true;
            Plan.Relaxed = true;
          }
        }
        if (Plan.Relaxed) {
          // inverted-branch-over + jmp T (+ jmp F unless adjacent):
          //   b!cc +2 ; jmp T ; [jmp F]
          Plan.TrailJmp = (F != Next);
          Plan.Size = Body + 1 + (Plan.TrailJmp ? 1 : 0);
        } else {
          Plan.Size = Body + (Plan.TrailJmp ? 1 : 0);
        }
      } else if (Term->isBrr()) {
        BlockId F = B.fallThrough();
        assert(B.succ(EdgeKind::BrrTaken) != NoBlock && F != NoBlock &&
               "brr needs taken + fall successors");
        Plan.TrailJmp = (F != Next);
        Plan.Size = Body + (Plan.TrailJmp ? 1 : 0);
      } else if (Term->Op == Opcode::Jmp) {
        BlockId T = B.succ(EdgeKind::Taken);
        assert(T != NoBlock && "jmp needs a taken successor");
        Plan.Elide = Opts.ElideJumpToNext && T == Next;
        Plan.Size = Body - (Plan.Elide ? 1 : 0);
      } else if (Term->Op == Opcode::Jal) {
        BlockId F = B.fallThrough();
        assert(B.succ(EdgeKind::Call) != NoBlock &&
               "jal needs a call successor");
        Plan.TrailJmp = (F != NoBlock && F != Next);
        Plan.Size = Body + (Plan.TrailJmp ? 1 : 0);
      } else {
        // jalr / halt: emitted verbatim, no glue.
        Plan.Size = Body;
      }

      Plans[Id] = Plan;
      if (Plan.Size != Sizes[Id]) {
        Sizes[Id] = Plan.Size;
        Changed = true;
      }
    }
    if (!Changed)
      break;
  }

  // --- Materialize ------------------------------------------------------
  EmitStats Stats;
  std::vector<Inst> Code;
  {
    uint32_t Total = 0;
    for (BlockId Id : Layout)
      Total += Sizes[Id];
    Code.reserve(Total);
  }

  auto EmitControl = [&](Inst I, uint32_t TargetAddr) {
    int64_t Offset = static_cast<int64_t>(TargetAddr) -
                     static_cast<int64_t>(Code.size());
    assert(Offset >= INT32_MIN && Offset <= INT32_MAX &&
           "relaxed offset still out of int32 range");
    I.Imm = static_cast<int32_t>(Offset);
    assert(immediateFits(I) && "emitted offset exceeds encoding field");
    Code.push_back(I);
  };

  for (size_t Pos = 0; Pos != Layout.size(); ++Pos) {
    BlockId Id = Layout[Pos];
    const BasicBlock &B = M.block(Id);
    const TailPlan &Plan = Plans[Id];
    assert(Code.size() == Addr[Id] && "address assignment out of sync");

    const Inst *Term = B.terminator();
    size_t BodyCount = B.Insts.size();
    bool TermIsControl = Term != nullptr;
    if (TermIsControl)
      --BodyCount;
    for (size_t I = 0; I != BodyCount; ++I)
      Code.push_back(B.Insts[I]);

    if (!TermIsControl) {
      if (Plan.TrailJmp) {
        EmitControl(Inst::jmp(0), Addr[B.fallThrough()]);
        ++Stats.InsertedJumps;
      }
      continue;
    }

    Inst T = *Term;
    if (T.isCondBranch()) {
      BlockId Taken = B.succ(EdgeKind::Taken);
      BlockId Fall = B.fallThrough();
      if (Plan.Relaxed) {
        // b!cc over the jmp; then jmp to the taken target.
        Inst Inv = T;
        Inv.Op = invertedBranchOpcode(T.Op);
        Inv.Imm = 2;
        Code.push_back(Inv);
        EmitControl(Inst::jmp(0), Addr[Taken]);
        ++Stats.RelaxedBranches;
      } else if (Plan.Invert) {
        Inst Inv = T;
        Inv.Op = invertedBranchOpcode(T.Op);
        EmitControl(Inv, Addr[Fall]);
        ++Stats.InvertedBranches;
      } else {
        EmitControl(T, Addr[Taken]);
      }
      if (Plan.TrailJmp) {
        EmitControl(Inst::jmp(0), Addr[Fall]);
        ++Stats.InsertedJumps;
      }
    } else if (T.isBrr()) {
      EmitControl(T, Addr[B.succ(EdgeKind::BrrTaken)]);
      if (Plan.TrailJmp) {
        EmitControl(Inst::jmp(0), Addr[B.fallThrough()]);
        ++Stats.InsertedJumps;
      }
    } else if (T.Op == Opcode::Jmp) {
      if (Plan.Elide) {
        ++Stats.ElidedJumps;
      } else {
        EmitControl(T, Addr[B.succ(EdgeKind::Taken)]);
      }
    } else if (T.Op == Opcode::Jal) {
      EmitControl(T, Addr[B.succ(EdgeKind::Call)]);
      if (Plan.TrailJmp) {
        EmitControl(Inst::jmp(0), Addr[B.fallThrough()]);
        ++Stats.InsertedJumps;
      }
    } else {
      // jalr / halt carry no PC-relative field.
      Code.push_back(T);
    }
  }
  Stats.Insts = Code.size();

  Program P(std::move(Code), M.dataBase(), M.data());
  for (const auto &[Name, AddrV] : M.dataSymbols())
    P.setSymbol(Name, AddrV);
  for (const CodeSymbol &S : M.codeSymbols())
    P.setSymbol(S.Name, Program::pcForIndex(Addr[S.Block] + S.Offset));

  if (telemetry::CounterRegistry::enabled()) {
    static const telemetry::Counter Programs("cfg.emit.programs");
    static const telemetry::Counter Insts("cfg.emit.insts");
    static const telemetry::Counter Inverted("cfg.emit.inverted_branches");
    static const telemetry::Counter Inserted("cfg.emit.inserted_jumps");
    static const telemetry::Counter Elided("cfg.emit.elided_jumps");
    static const telemetry::Counter Relaxed("cfg.emit.relaxed_branches");
    Programs.add();
    Insts.add(Stats.Insts);
    Inverted.add(Stats.InvertedBranches);
    Inserted.add(Stats.InsertedJumps);
    Elided.add(Stats.ElidedJumps);
    Relaxed.add(Stats.RelaxedBranches);
  }
  if (StatsOut)
    *StatsOut = Stats;
  return P;
}
