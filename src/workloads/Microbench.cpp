//===- workloads/Microbench.cpp - The Section 5.3 microbenchmark ---------===//

#include "workloads/Microbench.h"

#include "instr/Sites.h"

using namespace bor;

namespace {

/// Registers used by the microbenchmark (RegScratch/r15 stays reserved for
/// the sampling framework, r14 for instrumentation bodies).
enum : uint8_t {
  RText = 1,
  RTextEnd = 2,
  RSumUpper = 3,
  RSumLower = 4,
  RSumOther = 5,
  RChar = 6,
  RTmp1 = 7,
  RTmp2 = 8,
  RBodyScratch = 14,
  RUpperA = 20,  ///< 'A'
  RUpperEnd = 21, ///< 'Z'+1
  RLowerA = 22,  ///< 'a'
  RLowerEnd = 23, ///< 'z'+1
  RDist = 26,
};

/// How sites are materialized inside one copy of the loop body.
enum class SiteMode {
  PerSiteFramework, ///< No-Duplication (or Full/None): wrap each site.
  CleanCopy,        ///< Full-Duplication clean version: no sites at all.
  InstrumentedCopy, ///< Full-Duplication dup version: unconditional sites.
};

void emitLoopBody(ProgramBuilder &B, SamplingFrameworkEmitter &Emitter,
                  const ProfileTable &Edges, uint64_t ProfileBase,
                  SiteMode Mode, ProgramBuilder::LabelId LoopHead,
                  ProgramBuilder::LabelId Exit) {
  auto SiteBody = [&](size_t Site) {
    return [&Edges, ProfileBase, Site](ProgramBuilder &PB) {
      Edges.emitIncrement(PB, Site, RegProfBase, ProfileBase, RBodyScratch);
    };
  };
  auto EmitSite = [&](size_t Site) {
    switch (Mode) {
    case SiteMode::PerSiteFramework:
      Emitter.emitSite(SiteBody(Site));
      return;
    case SiteMode::CleanCopy:
      return;
    case SiteMode::InstrumentedCopy:
      Emitter.emitUnconditionalSite(SiteBody(Site));
      return;
    }
  };

  ProgramBuilder::LabelId Upper = B.label();
  ProgramBuilder::LabelId Lower = B.label();
  ProgramBuilder::LabelId Other = B.label();
  ProgramBuilder::LabelId Next = B.label();

  // Edge profile of the loop: the entry edge (site 0) and rejoin edge
  // (site 4) execute every iteration; exactly one class edge (sites 1-3)
  // executes per character. Three site visits per character in total, so
  // Full-Duplication's single per-iteration check amortizes three
  // No-Duplication checks — the effect Figure 11 is after.
  EmitSite(0);
  B.emit(Inst::ldb(RChar, RText, 0));
  B.emit(Inst::addi(RText, RText, 1));
  // Character classification: the data-dependent branches whose ~84.5%
  // prediction accuracy characterizes the baseline (Section 5.3).
  B.emitBranch(Opcode::Blt, RChar, RUpperA, Other);   // c < 'A'  -> other
  B.emitBranch(Opcode::Blt, RChar, RUpperEnd, Upper); // c <= 'Z' -> upper
  B.emitBranch(Opcode::Blt, RChar, RLowerA, Other);   // c < 'a'  -> other
  B.emitBranch(Opcode::Blt, RChar, RLowerEnd, Lower); // c <= 'z' -> lower

  B.bind(Other);
  EmitSite(3);
  B.emit(Inst::add(RSumOther, RSumOther, RChar));
  B.emitJmp(Next);

  B.bind(Upper);
  EmitSite(1);
  B.emit(Inst::add(RSumUpper, RSumUpper, RChar));
  B.emitJmp(Next);

  B.bind(Lower);
  EmitSite(2);
  B.emit(Inst::add(RSumLower, RSumLower, RChar));

  B.bind(Next);
  EmitSite(4);
  // Character-distribution update: dist[c]++.
  B.emit(Inst::alui(Opcode::Slli, RTmp1, RChar, 3));
  B.emit(Inst::add(RTmp1, RTmp1, RDist));
  B.emit(Inst::ld(RTmp2, RTmp1, 0));
  B.emit(Inst::addi(RTmp2, RTmp2, 1));
  B.emit(Inst::st(RTmp2, RTmp1, 0));

  B.emitBranch(Opcode::Bne, RText, RTextEnd, LoopHead);
  if (Mode == SiteMode::CleanCopy || Mode == SiteMode::PerSiteFramework)
    B.emitJmp(Exit);
  // The instrumented copy falls through to Exit, which the caller binds
  // immediately after it.
}

} // namespace

MicrobenchProgram bor::buildMicrobench(const MicrobenchConfig &Config) {
  ProgramBuilder B;
  MicrobenchProgram Out;

  // Framework globals and small tables first so 16-bit displacements off
  // RegGlobals/RegProfBase reach them; the big text buffer goes last.
  SamplingFrameworkEmitter Emitter(B, Config.Instr, DefaultDataBase);
  ProfileTable Edges(B, "edges", 5);
  uint64_t ResultBase = B.allocData(3 * 8, 8);
  B.nameData("results", ResultBase);
  uint64_t DistBase = B.allocData(256 * 8, 8);
  B.nameData("dist", DistBase);

  const std::vector<uint8_t> &Text = generateText(Config.Text);
  uint64_t TextBase = B.allocData(Text.size(), 8);
  B.initDataBytes(TextBase, Text);
  B.nameData("text", TextBase);

  Out.ProfileBase = Edges.baseAddr();
  Out.ResultBase = ResultBase;
  Out.DynamicSiteVisits = 3 * Text.size();

  // --- Prologue (outside the timed region). -----------------------------
  B.emitLoadConst(RegGlobals, DefaultDataBase);
  B.emitLoadConst(RegProfBase, Edges.baseAddr());
  B.emitLoadConst(RDist, DistBase);
  B.emitLoadConst(RText, TextBase);
  B.emitLoadConst(RTextEnd, TextBase + Text.size());
  B.emit(Inst::li(RSumUpper, 0));
  B.emit(Inst::li(RSumLower, 0));
  B.emit(Inst::li(RSumOther, 0));
  B.emit(Inst::li(RUpperA, 'A'));
  B.emit(Inst::li(RUpperEnd, 'Z' + 1));
  B.emit(Inst::li(RLowerA, 'a'));
  B.emit(Inst::li(RLowerEnd, 'z' + 1));
  Emitter.emitSetup();
  B.emit(Inst::marker(MarkerRoiBegin));

  // --- The character-processing loop. -----------------------------------
  ProgramBuilder::LabelId LoopHead = B.label();
  ProgramBuilder::LabelId Exit = B.label();
  bool FullDup = Config.Instr.Dup == DuplicationMode::FullDuplication &&
                 (Config.Instr.Framework == SamplingFramework::CounterBased ||
                  Config.Instr.Framework == SamplingFramework::BrrBased);

  B.bind(LoopHead);
  if (FullDup) {
    ProgramBuilder::LabelId DupBody = B.label();
    Emitter.emitDuplicationCheck(DupBody);
    emitLoopBody(B, Emitter, Edges, Edges.baseAddr(), SiteMode::CleanCopy,
                 LoopHead, Exit);
    B.bind(DupBody);
    Emitter.emitDupPrologue();
    emitLoopBody(B, Emitter, Edges, Edges.baseAddr(),
                 SiteMode::InstrumentedCopy, LoopHead, Exit);
  } else {
    emitLoopBody(B, Emitter, Edges, Edges.baseAddr(),
                 SiteMode::PerSiteFramework, LoopHead, Exit);
  }
  B.bind(Exit);

  // --- Epilogue (outside the timed region). -----------------------------
  B.emit(Inst::marker(MarkerRoiEnd));
  auto StoreResult = [&](uint8_t Reg, unsigned Slot) {
    int64_t Disp = static_cast<int64_t>(ResultBase + 8 * Slot) -
                   static_cast<int64_t>(DefaultDataBase);
    B.emit(Inst::st(Reg, RegGlobals, static_cast<int32_t>(Disp)));
  };
  StoreResult(RSumUpper, 0);
  StoreResult(RSumLower, 1);
  StoreResult(RSumOther, 2);
  B.emit(Inst::halt());

  // Out-of-line uncommon blocks live past the halt, reachable only from
  // their sampling checks (the Figure-8 layout).
  Emitter.flushOutOfLine();

  Out.CheckBranchPcs = Emitter.checkBranchPcs();
  Out.Prog = B.finish();
  return Out;
}
