//===- sim/Interpreter.cpp - Functional BOR-RISC execution ---------------===//
//
// step() is the record-producing oracle path; run() is the block-chained
// threaded-dispatch path used for functional fast-forward. Both execute
// the shared pre-decoded image and are architecturally identical: same
// machine state, same statistics, same BrrDecider call sequence, same
// marker-hook observations (the differential test in
// tests/test_decode.cpp holds them to that).
//
//===----------------------------------------------------------------------===//

#include "sim/Interpreter.h"

#include "telemetry/Counters.h"

using namespace bor;

Interpreter::Interpreter(const DecodedProgram &DP, Machine &M,
                         BrrDecider &Decider, bool LoadImage)
    : Dec(DP), Prog(DP.program()), Mach(M), Decider(Decider) {
  // Establish the program image (data segment, PC) so a fresh machine is
  // immediately runnable. Attach mode (LoadImage == false) leaves the
  // machine exactly as handed in, mid-execution state included.
  if (LoadImage)
    Mach.loadProgram(Prog);
}

Interpreter::~Interpreter() {
  if (!telemetry::CounterRegistry::enabled())
    return;
  static const telemetry::Counter Runs("interp.runs");
  static const telemetry::Counter Insts("interp.insts");
  static const telemetry::Counter CondBranches("interp.cond_branches");
  static const telemetry::Counter CondTaken("interp.cond_taken");
  static const telemetry::Counter BrrExecuted("interp.brr.executed");
  static const telemetry::Counter BrrTaken("interp.brr.taken");
  static const telemetry::Counter Loads("interp.loads");
  static const telemetry::Counter Stores("interp.stores");
  static const telemetry::HistogramCounter RunInsts("interp.run.insts");
  static const telemetry::Counter BlockChains("interp.block.chains");
  static const telemetry::Counter BlockInsts("interp.block.insts");
  static const telemetry::Counter BlockBlocks("interp.block.blocks");
  Runs.add();
  Insts.add(Stats.Insts);
  CondBranches.add(Stats.CondBranches);
  CondTaken.add(Stats.CondTaken);
  BrrExecuted.add(Stats.BrrExecuted);
  BrrTaken.add(Stats.BrrTaken);
  Loads.add(Stats.Loads);
  Stores.add(Stats.Stores);
  RunInsts.observe(Stats.Insts);
  BlockChains.add(Chains);
  BlockInsts.add(ChainedInsts);
  BlockBlocks.add(ChainedBlocks);
}

// step() and runChained() are the engine's two hot loops: the timing
// model's oracle and fast-forward. Each starts on a 64-byte boundary so its
// speed does not depend on how much code the linker places before it. Their
// code unchanged, deleting unrelated library code moved step() from offset
// 48 to 16 in a cache line and runChained() from 0 to 32, and perfbench
// lost ~6% of fig13_full's and ~10% of fig13_sampled's cpu_s (0/5 pairs
// won each, 4-vCPU Xeon); aligned, both read flat.
__attribute__((aligned(64))) ExecRecord Interpreter::step() {
  assert(!Mach.halted() && "stepping a halted machine");

  ExecRecord R;
  R.Pc = Mach.pc();
  const DecodedInst &D = Dec.at(Prog.indexForPc(R.Pc));
  R.D = &D;
  R.NextPc = R.Pc + 4;

  auto Reg = [this](unsigned Idx) { return Mach.readReg(Idx); };

  switch (D.Op) {
  case Opcode::Nop:
    break;
  case Opcode::Halt:
    Mach.setHalted();
    R.NextPc = R.Pc;
    break;

  case Opcode::Add:
    Mach.writeReg(D.Rd, Reg(D.Rs1) + Reg(D.Rs2));
    break;
  case Opcode::Sub:
    Mach.writeReg(D.Rd, Reg(D.Rs1) - Reg(D.Rs2));
    break;
  case Opcode::And:
    Mach.writeReg(D.Rd, Reg(D.Rs1) & Reg(D.Rs2));
    break;
  case Opcode::Or:
    Mach.writeReg(D.Rd, Reg(D.Rs1) | Reg(D.Rs2));
    break;
  case Opcode::Xor:
    Mach.writeReg(D.Rd, Reg(D.Rs1) ^ Reg(D.Rs2));
    break;
  case Opcode::Sll:
    Mach.writeReg(D.Rd, Reg(D.Rs1) << (Reg(D.Rs2) & 63));
    break;
  case Opcode::Srl:
    Mach.writeReg(D.Rd, Reg(D.Rs1) >> (Reg(D.Rs2) & 63));
    break;
  case Opcode::Mul:
    Mach.writeReg(D.Rd, Reg(D.Rs1) * Reg(D.Rs2));
    break;
  case Opcode::Slt:
    Mach.writeReg(D.Rd, static_cast<int64_t>(Reg(D.Rs1)) <
                                static_cast<int64_t>(Reg(D.Rs2))
                            ? 1
                            : 0);
    break;
  case Opcode::Sltu:
    Mach.writeReg(D.Rd, Reg(D.Rs1) < Reg(D.Rs2) ? 1 : 0);
    break;

  case Opcode::Addi:
    Mach.writeReg(D.Rd, Reg(D.Rs1) + static_cast<uint64_t>(D.Imm));
    break;
  case Opcode::Andi:
    Mach.writeReg(D.Rd, Reg(D.Rs1) & static_cast<uint64_t>(D.Imm));
    break;
  case Opcode::Ori:
    Mach.writeReg(D.Rd, Reg(D.Rs1) | static_cast<uint64_t>(D.Imm));
    break;
  case Opcode::Xori:
    Mach.writeReg(D.Rd, Reg(D.Rs1) ^ static_cast<uint64_t>(D.Imm));
    break;
  case Opcode::Slli:
    Mach.writeReg(D.Rd, Reg(D.Rs1) << D.Imm);
    break;
  case Opcode::Srli:
    Mach.writeReg(D.Rd, Reg(D.Rs1) >> D.Imm);
    break;
  case Opcode::Slti:
    Mach.writeReg(D.Rd,
                  static_cast<int64_t>(Reg(D.Rs1)) < D.Imm ? 1 : 0);
    break;

  case Opcode::Ld:
    R.MemAddr = Reg(D.Rs1) + static_cast<uint64_t>(D.Imm);
    Mach.writeReg(D.Rd, Mach.memory().readU64(R.MemAddr));
    ++Stats.Loads;
    break;
  case Opcode::Ldb:
    R.MemAddr = Reg(D.Rs1) + static_cast<uint64_t>(D.Imm);
    Mach.writeReg(D.Rd, Mach.memory().readU8(R.MemAddr));
    ++Stats.Loads;
    break;
  case Opcode::St:
    R.MemAddr = Reg(D.Rs1) + static_cast<uint64_t>(D.Imm);
    Mach.memory().writeU64(R.MemAddr, Reg(D.Rs2));
    ++Stats.Stores;
    break;
  case Opcode::Stb:
    R.MemAddr = Reg(D.Rs1) + static_cast<uint64_t>(D.Imm);
    Mach.memory().writeU8(R.MemAddr, static_cast<uint8_t>(Reg(D.Rs2)));
    ++Stats.Stores;
    break;

  case Opcode::Beq:
    R.Taken = Reg(D.Rs1) == Reg(D.Rs2);
    goto condBranch;
  case Opcode::Bne:
    R.Taken = Reg(D.Rs1) != Reg(D.Rs2);
    goto condBranch;
  case Opcode::Blt:
    R.Taken = static_cast<int64_t>(Reg(D.Rs1)) <
              static_cast<int64_t>(Reg(D.Rs2));
    goto condBranch;
  case Opcode::Bge:
    R.Taken = static_cast<int64_t>(Reg(D.Rs1)) >=
              static_cast<int64_t>(Reg(D.Rs2));
  condBranch:
    ++Stats.CondBranches;
    if (R.Taken) {
      ++Stats.CondTaken;
      R.NextPc = D.Target;
    }
    break;

  case Opcode::Jmp:
    R.Taken = true;
    R.NextPc = D.Target;
    break;
  case Opcode::Jal:
    Mach.writeReg(D.Rd, R.Pc + 4);
    R.Taken = true;
    R.NextPc = D.Target;
    break;
  case Opcode::Jalr: {
    uint64_t Target = Reg(D.Rs1);
    Mach.writeReg(D.Rd, R.Pc + 4);
    R.Taken = true;
    R.NextPc = Target;
    break;
  }

  case Opcode::Brr:
    ++Stats.BrrExecuted;
    R.Taken = Decider.decide(FreqCode(D.Freq));
    if (R.Taken) {
      ++Stats.BrrTaken;
      R.NextPc = D.Target;
    }
    break;

  case Opcode::Marker:
    if (MarkerHook)
      MarkerHook(static_cast<int32_t>(D.Imm));
    break;

  case Opcode::RdLfsr:
    Mach.writeReg(D.Rd, Decider.readAndStep());
    break;
  }

  Mach.setPc(R.NextPc);
  ++Stats.Insts;
  return R;
}

/// Block-chained, direct-threaded dispatch: decoded instructions execute
/// back to back, across taken control flow whose target stays inside the
/// image too, without touching the Machine's PC. Each handler ends in its
/// own indirect jump to the next instruction's handler. The budget is a
/// countdown and the position a pointer into the image, which ends in a
/// sentinel (DecodedProgram::insts), so execution that falls or branches
/// to the one-past-the-end PC needs no per-instruction range check.
/// Destinations are written through DecodedInst::Dst, whose sink slot takes
/// the writes to r0 (Machine::rawRegs). The PC and the instruction count
/// are synchronized only at marker hooks and at the exit (halt, budget, or
/// the PC leaving the image), and the hot statistics accumulate in locals
/// until the exit. So the per-instruction work is the handler body, one
/// countdown test and one indirect jump. Cache-line aligned, as step() is
/// (see there).
__attribute__((aligned(64))) void Interpreter::runChained(uint64_t MaxSteps) {
  static_assert(NumOpcodes == 33, "dispatch table must cover every opcode");
  static_assert(static_cast<unsigned>(EndOfImage) == NumOpcodes,
                "the sentinel's handler follows the opcodes'");

  if (Mach.halted() || MaxSteps == 0)
    return;
  const DecodedInst *const Base = Dec.insts();
  // Asserts alignment and range exactly as step() would on a wild PC.
  const DecodedInst *D = Base + Prog.indexForPc(Mach.pc());
  ++Chains;

  // The sentinel's PC: a taken PC-relative branch beyond it leaves the
  // image. (Such targets are always aligned.)
  const uint64_t EndPc = Program::pcForIndex(Dec.numInsts());
  uint64_t *const Regs = Mach.rawRegs();
  Memory &Mem = Mach.memory();

  // The budget counts down in Left. Stats.Insts and ChainedInsts advance
  // only at syncs (marker hooks and the exit), by what retired since the
  // last one.
  uint64_t Left = MaxSteps;
  const uint64_t InstsAtZero = Stats.Insts + MaxSteps;
  auto SyncInsts = [&] {
    uint64_t Now = InstsAtZero - Left;
    ChainedInsts += Now - Stats.Insts;
    Stats.Insts = Now;
  };
  // The hot counts. The rarer brr and block-terminator counts go straight
  // to their members, which keeps these four in registers.
  uint64_t NCond = 0, NCondTaken = 0;
  uint64_t NLoads = 0, NStores = 0;

  auto PcOf = [Base](const DecodedInst *At) {
    return Program::pcForIndex(static_cast<size_t>(At - Base));
  };

  static const void *const Tbl[NumOpcodes + 1] = {
      &&H_Nop,  &&H_Halt, &&H_Add,  &&H_Sub,  &&H_And,    &&H_Or,
      &&H_Xor,  &&H_Sll,  &&H_Srl,  &&H_Mul,  &&H_Slt,    &&H_Sltu,
      &&H_Addi, &&H_Andi, &&H_Ori,  &&H_Xori, &&H_Slli,   &&H_Srli,
      &&H_Slti, &&H_Ld,   &&H_Ldb,  &&H_St,   &&H_Stb,    &&H_Beq,
      &&H_Bne,  &&H_Blt,  &&H_Bge,  &&H_Jmp,  &&H_Jal,    &&H_Jalr,
      &&H_Brr,  &&H_Marker, &&H_RdLfsr, &&H_End};

// Retires the instruction just executed and dispatches to D, the next one.
#define BOR_DISPATCH()                                                       \
  do {                                                                       \
    if (--Left == 0)                                                         \
      goto budgetExit;                                                       \
    goto *Tbl[static_cast<unsigned>(D->Op)];                                 \
  } while (0)
// Falls through to the next instruction (the sentinel after the last).
#define BOR_NEXT()                                                           \
  do {                                                                       \
    ++D;                                                                     \
    BOR_DISPATCH();                                                          \
  } while (0)
// Takes D's PC-relative target: chained when it is in the image or is the
// sentinel, otherwise published as the PC as execution leaves the image.
#define BOR_TAKE()                                                           \
  do {                                                                       \
    uint64_t Target = D->Target;                                             \
    if (Target > EndPc) [[unlikely]] {                                       \
      --Left;                                                                \
      Mach.setPc(Target);                                                    \
      goto leftImage;                                                        \
    }                                                                        \
    D = Base + Target / 4;                                                   \
    BOR_DISPATCH();                                                          \
  } while (0)

  goto *Tbl[static_cast<unsigned>(D->Op)]; // enter the chain

H_Nop:
  BOR_NEXT();
H_Halt:
  Mach.setHalted();
  Mach.setPc(PcOf(D));
  --Left;
  ++ChainedBlocks;
  goto done;
H_Add:
  Regs[D->Dst] = Regs[D->Rs1] + Regs[D->Rs2];
  BOR_NEXT();
H_Sub:
  Regs[D->Dst] = Regs[D->Rs1] - Regs[D->Rs2];
  BOR_NEXT();
H_And:
  Regs[D->Dst] = Regs[D->Rs1] & Regs[D->Rs2];
  BOR_NEXT();
H_Or:
  Regs[D->Dst] = Regs[D->Rs1] | Regs[D->Rs2];
  BOR_NEXT();
H_Xor:
  Regs[D->Dst] = Regs[D->Rs1] ^ Regs[D->Rs2];
  BOR_NEXT();
H_Sll:
  Regs[D->Dst] = Regs[D->Rs1] << (Regs[D->Rs2] & 63);
  BOR_NEXT();
H_Srl:
  Regs[D->Dst] = Regs[D->Rs1] >> (Regs[D->Rs2] & 63);
  BOR_NEXT();
H_Mul:
  Regs[D->Dst] = Regs[D->Rs1] * Regs[D->Rs2];
  BOR_NEXT();
H_Slt:
  Regs[D->Dst] = static_cast<int64_t>(Regs[D->Rs1]) <
                         static_cast<int64_t>(Regs[D->Rs2])
                     ? 1
                     : 0;
  BOR_NEXT();
H_Sltu:
  Regs[D->Dst] = Regs[D->Rs1] < Regs[D->Rs2] ? 1 : 0;
  BOR_NEXT();
H_Addi:
  Regs[D->Dst] = Regs[D->Rs1] + static_cast<uint64_t>(D->Imm);
  BOR_NEXT();
H_Andi:
  Regs[D->Dst] = Regs[D->Rs1] & static_cast<uint64_t>(D->Imm);
  BOR_NEXT();
H_Ori:
  Regs[D->Dst] = Regs[D->Rs1] | static_cast<uint64_t>(D->Imm);
  BOR_NEXT();
H_Xori:
  Regs[D->Dst] = Regs[D->Rs1] ^ static_cast<uint64_t>(D->Imm);
  BOR_NEXT();
H_Slli:
  Regs[D->Dst] = Regs[D->Rs1] << D->Imm;
  BOR_NEXT();
H_Srli:
  Regs[D->Dst] = Regs[D->Rs1] >> D->Imm;
  BOR_NEXT();
H_Slti:
  Regs[D->Dst] = static_cast<int64_t>(Regs[D->Rs1]) < D->Imm ? 1 : 0;
  BOR_NEXT();
H_Ld:
  Regs[D->Dst] =
      Mem.readU64(Regs[D->Rs1] + static_cast<uint64_t>(D->Imm));
  ++NLoads;
  BOR_NEXT();
H_Ldb:
  Regs[D->Dst] = Mem.readU8(Regs[D->Rs1] + static_cast<uint64_t>(D->Imm));
  ++NLoads;
  BOR_NEXT();
H_St:
  Mem.writeU64(Regs[D->Rs1] + static_cast<uint64_t>(D->Imm), Regs[D->Rs2]);
  ++NStores;
  BOR_NEXT();
H_Stb:
  Mem.writeU8(Regs[D->Rs1] + static_cast<uint64_t>(D->Imm),
              static_cast<uint8_t>(Regs[D->Rs2]));
  ++NStores;
  BOR_NEXT();
H_Beq:
  ++NCond;
  if (Regs[D->Rs1] == Regs[D->Rs2]) {
    ++NCondTaken;
    BOR_TAKE();
  }
  BOR_NEXT();
H_Bne:
  ++NCond;
  if (Regs[D->Rs1] != Regs[D->Rs2]) {
    ++NCondTaken;
    BOR_TAKE();
  }
  BOR_NEXT();
H_Blt:
  ++NCond;
  if (static_cast<int64_t>(Regs[D->Rs1]) <
      static_cast<int64_t>(Regs[D->Rs2])) {
    ++NCondTaken;
    BOR_TAKE();
  }
  BOR_NEXT();
H_Bge:
  ++NCond;
  if (static_cast<int64_t>(Regs[D->Rs1]) >=
      static_cast<int64_t>(Regs[D->Rs2])) {
    ++NCondTaken;
    BOR_TAKE();
  }
  BOR_NEXT();
H_Jmp:
  ++ChainedBlocks;
  BOR_TAKE();
H_Jal:
  Regs[D->Dst] = PcOf(D) + 4;
  ++ChainedBlocks;
  BOR_TAKE();
H_Jalr: {
  uint64_t Target = Regs[D->Rs1]; // read before the link write (rd = rs1)
  Regs[D->Dst] = PcOf(D) + 4;
  ++ChainedBlocks;
  if (Target % 4 == 0 && Target < EndPc) {
    D = Base + Target / 4;
    BOR_DISPATCH();
  }
  --Left;
  Mach.setPc(Target);
  goto leftImage;
}
H_Brr:
  ++Stats.BrrExecuted;
  ++ChainedBlocks;
  if (Decider.decide(FreqCode(D->Freq))) {
    ++Stats.BrrTaken;
    BOR_TAKE();
  }
  BOR_NEXT();
H_Marker:
  ++ChainedBlocks;
  if (MarkerHook) {
    // Hooks observe the same state step() would publish: the marker's own
    // PC and the pre-marker instruction count.
    Mach.setPc(PcOf(D));
    SyncInsts();
    MarkerHook(static_cast<int32_t>(D->Imm));
  }
  BOR_NEXT();
H_RdLfsr:
  Regs[D->Dst] = Decider.readAndStep();
  BOR_NEXT();
H_End:
  // The sentinel: execution reached the one-past-the-end PC with budget
  // left.
  Mach.setPc(EndPc);
  goto leftImage;

#undef BOR_DISPATCH
#undef BOR_NEXT
#undef BOR_TAKE

budgetExit:
  Mach.setPc(PcOf(D));
  goto done;

leftImage:
  // The published PC is outside the image (or unaligned). With budget to
  // spare, the next fetch raises the assert a step() would.
  if (Left != 0)
    (void)Prog.indexForPc(Mach.pc());

done:
  SyncInsts();
  Stats.CondBranches += NCond;
  Stats.CondTaken += NCondTaken;
  Stats.Loads += NLoads;
  Stats.Stores += NStores;
  ChainedBlocks += NCond; // conditional branches end blocks too
}

RunStats Interpreter::run(uint64_t MaxSteps, bool RequireHalt) {
  runChained(MaxSteps);
  assert((!RequireHalt || Mach.halted()) &&
         "program did not halt within the step budget");
  (void)RequireHalt;
  Stats.Halted = Mach.halted();
  return Stats;
}
