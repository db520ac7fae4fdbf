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

// Threaded dispatch uses the GNU address-of-label extension; other
// compilers fall back to an equivalent switch in the same chain structure.
#if defined(__GNUC__) || defined(__clang__)
#define BOR_THREADED_DISPATCH 1
#else
#define BOR_THREADED_DISPATCH 0
#endif

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

/// Block-chained dispatch: decoded instructions execute back to back —
/// including across taken control flow whose target stays inside the
/// image — without touching the Machine's PC. The PC is synchronized
/// only at marker hooks and chain exits (halt, budget, an indirect
/// target that cannot be chained, or the PC leaving the image). Hot
/// statistics accumulate in locals and fold into Stats at the same
/// points, so the per-instruction work is the handler body plus one
/// indirect jump. Cache-line aligned, as step() is (see there).
__attribute__((aligned(64))) void Interpreter::runChained(uint64_t MaxSteps) {
  static_assert(NumOpcodes == 33, "dispatch table must cover every opcode");

  const DecodedInst *const IBase = Dec.insts();
  const size_t NumI = Dec.numInsts();
  uint64_t *const Regs = Mach.rawRegs();
  const uint64_t EntryInsts = Stats.Insts;

  uint64_t Executed = 0;
  uint64_t NCond = 0, NCondTaken = 0;
  uint64_t NBrr = 0, NBrrTaken = 0;
  uint64_t NLoads = 0, NStores = 0;
  uint64_t NBlocks = 0;

  size_t Idx = 0;
  const DecodedInst *D = nullptr;

  while (!Mach.halted() && Executed != MaxSteps) {
    // Asserts alignment and range exactly as step() would on a wild PC.
    Idx = Prog.indexForPc(Mach.pc());
    ++Chains;

#if BOR_THREADED_DISPATCH
    static const void *const Tbl[NumOpcodes] = {
        &&H_Nop,  &&H_Halt, &&H_Add,  &&H_Sub,  &&H_And,    &&H_Or,
        &&H_Xor,  &&H_Sll,  &&H_Srl,  &&H_Mul,  &&H_Slt,    &&H_Sltu,
        &&H_Addi, &&H_Andi, &&H_Ori,  &&H_Xori, &&H_Slli,   &&H_Srli,
        &&H_Slti, &&H_Ld,   &&H_Ldb,  &&H_St,   &&H_Stb,    &&H_Beq,
        &&H_Bne,  &&H_Blt,  &&H_Bge,  &&H_Jmp,  &&H_Jal,    &&H_Jalr,
        &&H_Brr,  &&H_Marker, &&H_RdLfsr};

#define BOR_CASE(name) H_##name:
#define BOR_NEXT()                                                           \
  do {                                                                       \
    if (Executed == MaxSteps)                                                \
      goto budgetExit;                                                       \
    if (Idx >= NumI)                                                         \
      goto rangeExit;                                                        \
    D = &IBase[Idx];                                                         \
    goto *Tbl[static_cast<unsigned>(D->Op)];                                 \
  } while (0)

    BOR_NEXT(); // enter the chain
#else
    for (;;) {
      if (Executed == MaxSteps)
        goto budgetExit;
      if (Idx >= NumI)
        goto rangeExit;
      D = &IBase[Idx];
      switch (D->Op) {

#define BOR_CASE(name) case Opcode::name:
#define BOR_NEXT() break
#endif

    BOR_CASE(Nop) {
      ++Executed;
      ++Idx;
      BOR_NEXT();
    }
    BOR_CASE(Halt) {
      Mach.setHalted();
      Mach.setPc(Program::pcForIndex(Idx));
      ++Executed;
      ++NBlocks;
      goto chainExit;
    }
    BOR_CASE(Add) {
      Regs[D->Rd] = Regs[D->Rs1] + Regs[D->Rs2];
      Regs[RegZero] = 0;
      ++Executed;
      ++Idx;
      BOR_NEXT();
    }
    BOR_CASE(Sub) {
      Regs[D->Rd] = Regs[D->Rs1] - Regs[D->Rs2];
      Regs[RegZero] = 0;
      ++Executed;
      ++Idx;
      BOR_NEXT();
    }
    BOR_CASE(And) {
      Regs[D->Rd] = Regs[D->Rs1] & Regs[D->Rs2];
      Regs[RegZero] = 0;
      ++Executed;
      ++Idx;
      BOR_NEXT();
    }
    BOR_CASE(Or) {
      Regs[D->Rd] = Regs[D->Rs1] | Regs[D->Rs2];
      Regs[RegZero] = 0;
      ++Executed;
      ++Idx;
      BOR_NEXT();
    }
    BOR_CASE(Xor) {
      Regs[D->Rd] = Regs[D->Rs1] ^ Regs[D->Rs2];
      Regs[RegZero] = 0;
      ++Executed;
      ++Idx;
      BOR_NEXT();
    }
    BOR_CASE(Sll) {
      Regs[D->Rd] = Regs[D->Rs1] << (Regs[D->Rs2] & 63);
      Regs[RegZero] = 0;
      ++Executed;
      ++Idx;
      BOR_NEXT();
    }
    BOR_CASE(Srl) {
      Regs[D->Rd] = Regs[D->Rs1] >> (Regs[D->Rs2] & 63);
      Regs[RegZero] = 0;
      ++Executed;
      ++Idx;
      BOR_NEXT();
    }
    BOR_CASE(Mul) {
      Regs[D->Rd] = Regs[D->Rs1] * Regs[D->Rs2];
      Regs[RegZero] = 0;
      ++Executed;
      ++Idx;
      BOR_NEXT();
    }
    BOR_CASE(Slt) {
      Regs[D->Rd] = static_cast<int64_t>(Regs[D->Rs1]) <
                            static_cast<int64_t>(Regs[D->Rs2])
                        ? 1
                        : 0;
      Regs[RegZero] = 0;
      ++Executed;
      ++Idx;
      BOR_NEXT();
    }
    BOR_CASE(Sltu) {
      Regs[D->Rd] = Regs[D->Rs1] < Regs[D->Rs2] ? 1 : 0;
      Regs[RegZero] = 0;
      ++Executed;
      ++Idx;
      BOR_NEXT();
    }
    BOR_CASE(Addi) {
      Regs[D->Rd] = Regs[D->Rs1] + static_cast<uint64_t>(D->Imm);
      Regs[RegZero] = 0;
      ++Executed;
      ++Idx;
      BOR_NEXT();
    }
    BOR_CASE(Andi) {
      Regs[D->Rd] = Regs[D->Rs1] & static_cast<uint64_t>(D->Imm);
      Regs[RegZero] = 0;
      ++Executed;
      ++Idx;
      BOR_NEXT();
    }
    BOR_CASE(Ori) {
      Regs[D->Rd] = Regs[D->Rs1] | static_cast<uint64_t>(D->Imm);
      Regs[RegZero] = 0;
      ++Executed;
      ++Idx;
      BOR_NEXT();
    }
    BOR_CASE(Xori) {
      Regs[D->Rd] = Regs[D->Rs1] ^ static_cast<uint64_t>(D->Imm);
      Regs[RegZero] = 0;
      ++Executed;
      ++Idx;
      BOR_NEXT();
    }
    BOR_CASE(Slli) {
      Regs[D->Rd] = Regs[D->Rs1] << D->Imm;
      Regs[RegZero] = 0;
      ++Executed;
      ++Idx;
      BOR_NEXT();
    }
    BOR_CASE(Srli) {
      Regs[D->Rd] = Regs[D->Rs1] >> D->Imm;
      Regs[RegZero] = 0;
      ++Executed;
      ++Idx;
      BOR_NEXT();
    }
    BOR_CASE(Slti) {
      Regs[D->Rd] =
          static_cast<int64_t>(Regs[D->Rs1]) < D->Imm ? 1 : 0;
      Regs[RegZero] = 0;
      ++Executed;
      ++Idx;
      BOR_NEXT();
    }
    BOR_CASE(Ld) {
      uint64_t Addr = Regs[D->Rs1] + static_cast<uint64_t>(D->Imm);
      Regs[D->Rd] = Mach.memory().readU64(Addr);
      Regs[RegZero] = 0;
      ++NLoads;
      ++Executed;
      ++Idx;
      BOR_NEXT();
    }
    BOR_CASE(Ldb) {
      uint64_t Addr = Regs[D->Rs1] + static_cast<uint64_t>(D->Imm);
      Regs[D->Rd] = Mach.memory().readU8(Addr);
      Regs[RegZero] = 0;
      ++NLoads;
      ++Executed;
      ++Idx;
      BOR_NEXT();
    }
    BOR_CASE(St) {
      uint64_t Addr = Regs[D->Rs1] + static_cast<uint64_t>(D->Imm);
      Mach.memory().writeU64(Addr, Regs[D->Rs2]);
      ++NStores;
      ++Executed;
      ++Idx;
      BOR_NEXT();
    }
    BOR_CASE(Stb) {
      uint64_t Addr = Regs[D->Rs1] + static_cast<uint64_t>(D->Imm);
      Mach.memory().writeU8(Addr, static_cast<uint8_t>(Regs[D->Rs2]));
      ++NStores;
      ++Executed;
      ++Idx;
      BOR_NEXT();
    }
    BOR_CASE(Beq) {
      bool Taken = Regs[D->Rs1] == Regs[D->Rs2];
      ++NCond;
      ++NBlocks;
      ++Executed;
      if (Taken) {
        ++NCondTaken;
        Idx = static_cast<size_t>(D->Target / 4);
      } else {
        ++Idx;
      }
      BOR_NEXT();
    }
    BOR_CASE(Bne) {
      bool Taken = Regs[D->Rs1] != Regs[D->Rs2];
      ++NCond;
      ++NBlocks;
      ++Executed;
      if (Taken) {
        ++NCondTaken;
        Idx = static_cast<size_t>(D->Target / 4);
      } else {
        ++Idx;
      }
      BOR_NEXT();
    }
    BOR_CASE(Blt) {
      bool Taken = static_cast<int64_t>(Regs[D->Rs1]) <
                   static_cast<int64_t>(Regs[D->Rs2]);
      ++NCond;
      ++NBlocks;
      ++Executed;
      if (Taken) {
        ++NCondTaken;
        Idx = static_cast<size_t>(D->Target / 4);
      } else {
        ++Idx;
      }
      BOR_NEXT();
    }
    BOR_CASE(Bge) {
      bool Taken = static_cast<int64_t>(Regs[D->Rs1]) >=
                   static_cast<int64_t>(Regs[D->Rs2]);
      ++NCond;
      ++NBlocks;
      ++Executed;
      if (Taken) {
        ++NCondTaken;
        Idx = static_cast<size_t>(D->Target / 4);
      } else {
        ++Idx;
      }
      BOR_NEXT();
    }
    BOR_CASE(Jmp) {
      ++NBlocks;
      ++Executed;
      Idx = static_cast<size_t>(D->Target / 4);
      BOR_NEXT();
    }
    BOR_CASE(Jal) {
      Regs[D->Rd] = Program::pcForIndex(Idx) + 4;
      Regs[RegZero] = 0;
      ++NBlocks;
      ++Executed;
      Idx = static_cast<size_t>(D->Target / 4);
      BOR_NEXT();
    }
    BOR_CASE(Jalr) {
      uint64_t Target = Regs[D->Rs1];
      Regs[D->Rd] = Program::pcForIndex(Idx) + 4;
      Regs[RegZero] = 0;
      ++NBlocks;
      ++Executed;
      if (Target % 4 == 0 && Target / 4 < NumI) {
        Idx = static_cast<size_t>(Target / 4);
        BOR_NEXT();
      }
      // Unaligned or out-of-image target: publish it and leave the chain;
      // the outer indexForPc raises the same assert a step() would.
      Mach.setPc(Target);
      goto chainExit;
    }
    BOR_CASE(Brr) {
      ++NBrr;
      bool Taken = Decider.decide(FreqCode(D->Freq));
      ++NBlocks;
      ++Executed;
      if (Taken) {
        ++NBrrTaken;
        Idx = static_cast<size_t>(D->Target / 4);
      } else {
        ++Idx;
      }
      BOR_NEXT();
    }
    BOR_CASE(Marker) {
      ++NBlocks;
      if (MarkerHook) {
        // Hooks observe the same state step() would publish: the marker's
        // own PC and the pre-marker instruction count.
        Mach.setPc(Program::pcForIndex(Idx));
        Stats.Insts = EntryInsts + Executed;
        MarkerHook(static_cast<int32_t>(D->Imm));
      }
      ++Executed;
      ++Idx;
      BOR_NEXT();
    }
    BOR_CASE(RdLfsr) {
      Regs[D->Rd] = Decider.readAndStep();
      Regs[RegZero] = 0;
      ++Executed;
      ++Idx;
      BOR_NEXT();
    }

#if !BOR_THREADED_DISPATCH
      }
    }
#endif
#undef BOR_CASE
#undef BOR_NEXT

  budgetExit:
    Mach.setPc(Program::pcForIndex(Idx));
    break;

  rangeExit:
    // The PC left the decoded image; restore it so the outer indexForPc
    // raises "PC outside code segment" exactly as a step() would.
    Mach.setPc(Program::pcForIndex(Idx));
    continue;

  chainExit:
    // Machine PC already current (halt, or an unchainable indirect).
    continue;
  }

  Stats.Insts = EntryInsts + Executed;
  Stats.CondBranches += NCond;
  Stats.CondTaken += NCondTaken;
  Stats.BrrExecuted += NBrr;
  Stats.BrrTaken += NBrrTaken;
  Stats.Loads += NLoads;
  Stats.Stores += NStores;
  ChainedInsts += Executed;
  ChainedBlocks += NBlocks;
}

RunStats Interpreter::run(uint64_t MaxSteps, bool RequireHalt) {
  runChained(MaxSteps);
  assert((!RequireHalt || Mach.halted()) &&
         "program did not halt within the step budget");
  (void)RequireHalt;
  Stats.Halted = Mach.halted();
  return Stats;
}
