//===- workloads/PgoGen.cpp - Pessimal-layout PGO workload ----------------===//

#include "workloads/PgoGen.h"

#include "instr/Sites.h"
#include "isa/ProgramBuilder.h"
#include "workloads/Microbench.h"

using namespace bor;

namespace {

// Register plan (RegScratch/RegCounter/RegGlobals/RegProfBase stay free
// for the instrumentation transform, exactly as in the other workloads).
constexpr uint8_t RegLcg = 1;      ///< LCG state x
constexpr uint8_t RegIter = 2;     ///< remaining iterations
constexpr uint8_t RegChecksum = 3; ///< self-check accumulator
constexpr uint8_t RegT1 = 4;       ///< arm decision bits
constexpr uint8_t RegT2 = 5;       ///< function decision bits
constexpr uint8_t RegLcgMul = 10;  ///< LCG multiplier constant

constexpr uint64_t LcgMultiplier = 6364136223846793005ULL;

/// Emits the workload with \p IC's framework wrapped around each of the
/// 2*Arms + 2*Functions profile sites. Framework None gives the baseline;
/// \p SlotPos, when given, receives each site's instruction index. The
/// emitter is constructed after the profile table and the checksum, so
/// every variant lays out those two at the same addresses.
Program emitPgoProgram(const PgoGenConfig &C, const InstrumentationConfig &IC,
                       PgoWorkload &W, std::vector<size_t> *SlotPos) {
  ProgramBuilder B;
  ProfileTable Table(B, "pgo.profile", W.NumSites);
  W.ProfileBase = Table.baseAddr();
  W.ChecksumAddr = B.allocData(8, 8);
  B.nameData("pgo.checksum", W.ChecksumAddr);
  SamplingFrameworkEmitter Emitter(B, IC, DefaultDataBase);

  // Every site is a block leader (branch target or fall-through of a
  // conditional branch), so slot counts are block-entry counts. A label
  // bound at a site is bound before its check, so the check guards every
  // way in.
  auto Site = [&](size_t Slot) {
    if (SlotPos)
      (*SlotPos)[Slot] = B.here();
    Emitter.emitSite([&Table, Slot](ProgramBuilder &PB) {
      Table.emitIncrement(PB, Slot, RegProfBase, Table.baseAddr(),
                          RegScratch);
    });
  };

  // Prologue (outside the ROI; identical across layout variants because
  // the optimizer pins the entry block first).
  B.emitLoadConst(RegGlobals, DefaultDataBase);
  B.emitLoadConst(RegProfBase, Table.baseAddr());
  B.emitLoadConst(RegLcgMul, LcgMultiplier);
  B.emitLoadConst(RegLcg, C.Seed * 0x9E3779B97F4A7C15ULL + 0x1234567ULL);
  B.emitLoadConst(RegIter, C.Iters);
  B.emit(Inst::li(RegChecksum, 0));
  Emitter.emitSetup();
  B.emit(Inst::marker(MarkerRoiBegin));

  auto LoopHead = B.label();
  B.bind(LoopHead);
  B.nameLabel("pgo.loop", LoopHead);

  std::vector<ProgramBuilder::LabelId> FnLabels;
  for (unsigned F = 0; F != C.Functions; ++F)
    FnLabels.push_back(B.label());

  // The arms: each steps the LCG, extracts 6 bias bits, and branches to
  // its hot path — TAKEN with probability 63/64, hopping over the inline
  // cold chunk. This is the pessimal shape branch-direction layout fixes.
  for (unsigned A = 0; A != C.Arms; ++A) {
    unsigned Shift = 8 + static_cast<unsigned>((C.Seed * 7 + 11 * A) % 40);
    B.emit(Inst::alu(Opcode::Mul, RegLcg, RegLcg, RegLcgMul));
    B.emit(Inst::addi(RegLcg, RegLcg,
                      static_cast<int32_t>((C.Seed * 2 + 2 * A + 1) & 0x3ff)));
    B.emit(Inst::alui(Opcode::Srli, RegT1, RegLcg, static_cast<int32_t>(Shift)));
    B.emit(Inst::alui(Opcode::Andi, RegT1, RegT1, 63));
    auto Hot = B.label();
    auto Join = B.label();
    B.emitBranch(Opcode::Bne, RegT1, RegZero, Hot);
    // Inline cold chunk on the fall-through path.
    Site(2 * A + 1);
    for (unsigned I = 0; I != C.ColdChunk; ++I)
      B.emit(Inst::alui(Opcode::Xori, RegChecksum, RegChecksum,
                        static_cast<int32_t>((A * 131 + I * 7 + 3) & 0x7fff)));
    B.emit(Inst::addi(RegChecksum, RegChecksum, 1));
    B.emitJmp(Join);
    B.bind(Hot);
    Site(2 * A);
    B.emit(Inst::add(RegChecksum, RegChecksum, RegT1));
    B.emit(Inst::alu(Opcode::Xor, RegChecksum, RegChecksum, RegLcg));
    B.bind(Join);
  }

  for (unsigned F = 0; F != C.Functions; ++F)
    B.emitJal(RegLr, FnLabels[F]);

  B.emit(Inst::addi(RegIter, RegIter, -1));
  B.emitBranch(Opcode::Bne, RegIter, RegZero, LoopHead);
  B.emit(Inst::marker(MarkerRoiEnd));
  B.emit(Inst::st(RegChecksum, RegGlobals,
                  static_cast<int32_t>(W.ChecksumAddr - DefaultDataBase)));
  B.emit(Inst::halt());

  // Helper functions, each with its cold tail inline before the shared
  // return — the shape hot/cold splitting moves out of the body.
  for (unsigned F = 0; F != C.Functions; ++F) {
    B.bind(FnLabels[F]);
    B.nameLabel("pgo.fn" + std::to_string(F), FnLabels[F]);
    Site(2 * C.Arms + 2 * F);
    unsigned Shift = 8 + static_cast<unsigned>((C.Seed * 5 + 13 * F + 19) % 40);
    B.emit(Inst::alui(Opcode::Xori, RegChecksum, RegChecksum,
                      static_cast<int32_t>(0x40 + F)));
    B.emit(Inst::alui(Opcode::Srli, RegT2, RegLcg, static_cast<int32_t>(Shift)));
    B.emit(Inst::alui(Opcode::Andi, RegT2, RegT2, 15));
    auto Ret = B.label();
    B.emitBranch(Opcode::Bne, RegT2, RegZero, Ret);
    Site(2 * C.Arms + 2 * F + 1);
    for (unsigned I = 0; I != C.ColdChunk; ++I)
      B.emit(Inst::alui(Opcode::Xori, RegChecksum, RegChecksum,
                        static_cast<int32_t>((F * 257 + I * 11 + 5) & 0x7fff)));
    B.bind(Ret);
    B.emit(Inst::add(RegChecksum, RegChecksum, RegT2));
    B.emit(Inst::ret());
  }

  // The sample blocks of every site go after the last helper (the
  // Figure 8 placement).
  Emitter.flushOutOfLine();
  return B.finish();
}

} // namespace

PgoWorkload bor::buildPgoWorkload(const PgoGenConfig &C) {
  PgoWorkload W;
  W.NumSites = 2 * C.Arms + 2 * C.Functions;

  std::vector<size_t> SlotPos(W.NumSites, 0);
  W.Baseline = emitPgoProgram(C, InstrumentationConfig(), W, &SlotPos);

  // Slot -> block map, valid for every buildModule(Baseline) lift (block
  // ids are a deterministic function of the program).
  cfg::Module M = cfg::buildModule(W.Baseline);
  W.SiteBlocks.resize(W.NumSites);
  for (size_t S = 0; S != W.NumSites; ++S)
    W.SiteBlocks[S] = M.blockForIndex(SlotPos[S]);

  // The profiling variant: the same program with the sampling framework
  // and one counter increment around each site. With no framework a site
  // emits nothing, so that variant is the baseline itself.
  if (C.Instr.Framework == SamplingFramework::None) {
    W.Instrumented = W.Baseline;
    return W;
  }
  InstrumentationConfig IC = C.Instr;
  IC.Dup = DuplicationMode::NoDuplication;
  IC.IncludeBody = true;
  W.Instrumented = emitPgoProgram(C, IC, W, nullptr);
  return W;
}
