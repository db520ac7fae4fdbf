//===- workloads/Kernels.cpp - A small suite of instrumentable kernels ---===//

#include "workloads/Kernels.h"

#include "instr/Sites.h"
#include "support/Rng.h"
#include "workloads/Microbench.h" // marker ids
#include "workloads/TextGen.h"

#include <algorithm>

using namespace bor;

namespace {

/// Registers left to kernels: r1..r13, r16..r26. r14/r15 belong to the
/// instrumentation body/framework, r27/r28 to the framework conventions.

/// Common build scaffolding: emitter + result slot + site-counter table,
/// allocated before any bulk data so displacements stay small.
struct KernelBuild {
  ProgramBuilder B;
  SamplingFrameworkEmitter Emitter;
  uint64_t ResultAddr;
  ProfileTable Sites;

  KernelBuild(const InstrumentationConfig &Instr, unsigned NumSites)
      : Emitter(B, Instr, DefaultDataBase), ResultAddr(B.allocData(8, 8)),
        Sites(B, "sites", NumSites) {
    B.nameData("result", ResultAddr);
  }

  /// Globals base, framework setup, ROI start.
  void prologue() {
    B.emitLoadConst(RegGlobals, DefaultDataBase);
    Emitter.emitSetup();
    B.emit(Inst::marker(MarkerRoiBegin));
  }

  /// One instrumentation site: the body bumps the site counter.
  void site(unsigned Index) {
    Emitter.emitSite([this, Index](ProgramBuilder &PB) {
      Sites.emitIncrement(PB, Index, RegGlobals, DefaultDataBase, 14);
    });
  }

  /// ROI end, result store, halt, out-of-line blocks.
  Program finish(uint8_t ResultReg) {
    B.emit(Inst::marker(MarkerRoiEnd));
    B.emit(Inst::st(ResultReg, RegGlobals,
                    static_cast<int32_t>(ResultAddr - DefaultDataBase)));
    B.emit(Inst::halt());
    Emitter.flushOutOfLine();
    return B.finish();
  }
};

// --- crc32: bit-serial CRC-32 over a byte buffer. -----------------------

KernelProgram buildCrc32(const KernelConfig &Config) {
  uint64_t Size = Config.Size ? Config.Size : 12000;
  constexpr uint64_t Poly = 0xEDB88320;

  KernelBuild K(Config.Instr, 1);
  ProgramBuilder &B = K.B;

  Xoshiro256 Rng(Config.Seed);
  std::vector<uint8_t> Buf(Size);
  for (uint8_t &Byte : Buf)
    Byte = static_cast<uint8_t>(Rng.nextBelow(256));
  uint64_t BufAddr = B.allocData(Size, 8);
  B.initDataBytes(BufAddr, Buf);

  B.emitLoadConst(1, BufAddr);
  B.emitLoadConst(2, BufAddr + Size);
  B.emitLoadConst(3, 0xFFFFFFFF);
  B.emitLoadConst(6, Poly);
  K.prologue();

  auto ByteLoop = B.label();
  B.bind(ByteLoop);
  B.emit(Inst::ldb(4, 1, 0));
  B.emit(Inst::addi(1, 1, 1));
  B.emit(Inst::alu(Opcode::Xor, 3, 3, 4));
  // Fully unrolled bit loop (as a tuned CRC would be): eight genuinely
  // data-dependent ~50/50 branches per byte, nothing for history luck.
  for (int Bit = 0; Bit != 8; ++Bit) {
    auto SkipXor = B.label();
    B.emit(Inst::alui(Opcode::Andi, 7, 3, 1));
    B.emit(Inst::alui(Opcode::Srli, 3, 3, 1));
    B.emitBranch(Opcode::Beq, 7, 0, SkipXor);
    B.emit(Inst::alu(Opcode::Xor, 3, 3, 6));
    B.bind(SkipXor);
  }
  K.site(0); // one edge profile visit per byte
  B.emitBranch(Opcode::Bne, 1, 2, ByteLoop);

  KernelProgram Out;
  Out.Name = "crc32";
  Out.NumStaticSites = 1;
  Out.DynamicSiteVisits = Size;
  uint64_t Crc = 0xFFFFFFFF;
  for (uint8_t Byte : Buf) {
    Crc ^= Byte;
    for (int Bit = 0; Bit != 8; ++Bit)
      Crc = (Crc & 1) ? (Crc >> 1) ^ Poly : Crc >> 1;
  }
  Out.ExpectedResult = Crc;
  Out.Prog = K.finish(3);
  return Out;
}

// --- sort: insertion sort + weighted checksum. ---------------------------

KernelProgram buildSort(const KernelConfig &Config) {
  uint64_t N = Config.Size ? Config.Size : 400;

  KernelBuild K(Config.Instr, 2);
  ProgramBuilder &B = K.B;

  Xoshiro256 Rng(Config.Seed);
  std::vector<uint64_t> Values(N);
  for (uint64_t &V : Values)
    V = Rng.next() >> 2; // keep below 2^62: signed compares stay valid
  uint64_t Arr = B.allocData(8 * N, 8);
  for (uint64_t I = 0; I != N; ++I)
    B.initDataU64(Arr + 8 * I, Values[I]);

  B.emitLoadConst(1, Arr);
  B.emitLoadConst(2, N);
  B.emit(Inst::li(3, 1)); // i
  K.prologue();

  auto Outer = B.label();
  auto Inner = B.label();
  auto Insert = B.label();
  B.bind(Outer);
  B.emit(Inst::alui(Opcode::Slli, 8, 3, 3));
  B.emit(Inst::add(8, 8, 1));  // &arr[i]
  B.emit(Inst::ld(4, 8, 0));   // key
  B.emit(Inst::addi(8, 8, -8)); // &arr[j], j = i-1
  B.bind(Inner);
  B.emitBranch(Opcode::Blt, 8, 1, Insert); // j < 0
  B.emit(Inst::ld(9, 8, 0));
  B.emitBranch(Opcode::Bge, 4, 9, Insert); // key >= arr[j]
  B.emit(Inst::st(9, 8, 8));               // arr[j+1] = arr[j]
  K.site(1);                               // inner-shift edge
  B.emit(Inst::addi(8, 8, -8));
  B.emitJmp(Inner);
  B.bind(Insert);
  B.emit(Inst::st(4, 8, 8)); // arr[j+1] = key
  K.site(0);                 // per-element insertion edge
  B.emit(Inst::addi(3, 3, 1));
  B.emitBranch(Opcode::Blt, 3, 2, Outer);

  // Weighted checksum of the sorted array: sum of arr[i]*(i+1).
  auto CsLoop = B.label();
  B.emit(Inst::mv(8, 1));
  B.emitLoadConst(5, Arr + 8 * N);
  B.emit(Inst::li(11, 0));
  B.emit(Inst::li(12, 0));
  B.bind(CsLoop);
  B.emit(Inst::ld(9, 8, 0));
  B.emit(Inst::addi(12, 12, 1));
  B.emit(Inst::alu(Opcode::Mul, 10, 9, 12));
  B.emit(Inst::add(11, 11, 10));
  B.emit(Inst::addi(8, 8, 8));
  B.emitBranch(Opcode::Bne, 8, 5, CsLoop);

  KernelProgram Out;
  Out.Name = "sort";
  Out.NumStaticSites = 2;
  // Reference: count shifts while insertion-sorting a copy.
  std::vector<uint64_t> Ref = Values;
  uint64_t Shifts = 0;
  for (size_t I = 1; I < Ref.size(); ++I) {
    uint64_t Key = Ref[I];
    size_t J = I;
    while (J > 0 && Ref[J - 1] > Key) {
      Ref[J] = Ref[J - 1];
      --J;
      ++Shifts;
    }
    Ref[J] = Key;
  }
  Out.DynamicSiteVisits = (N - 1) + Shifts;
  uint64_t Checksum = 0;
  for (size_t I = 0; I != Ref.size(); ++I)
    Checksum += Ref[I] * static_cast<uint64_t>(I + 1);
  Out.ExpectedResult = Checksum;
  Out.Prog = K.finish(11);
  return Out;
}

// --- strsearch: naive substring search. ----------------------------------

KernelProgram buildStrSearch(const KernelConfig &Config) {
  uint64_t M = Config.Size ? Config.Size : 12000;
  constexpr uint64_t PatLen = 6;

  KernelBuild K(Config.Instr, 2);
  ProgramBuilder &B = K.B;

  TextConfig TC;
  TC.NumChars = M;
  TC.Seed = Config.Seed;
  const std::vector<uint8_t> &Text = generateText(TC);
  std::vector<uint8_t> Pattern(Text.begin() + M / 3,
                               Text.begin() + M / 3 + PatLen);
  uint64_t TextAddr = B.allocData(M, 8);
  B.initDataBytes(TextAddr, Text);
  uint64_t PatAddr = B.allocData(PatLen, 8);
  B.initDataBytes(PatAddr, Pattern);

  B.emitLoadConst(1, TextAddr);
  B.emitLoadConst(2, TextAddr + (M - PatLen) + 1); // one past last start
  B.emitLoadConst(3, PatAddr);
  B.emit(Inst::li(7, 0)); // match count
  B.emit(Inst::li(10, PatLen));
  K.prologue();

  auto Outer = B.label();
  auto Inner = B.label();
  auto NoMatch = B.label();
  B.bind(Outer);
  B.emit(Inst::li(4, 0));
  B.bind(Inner);
  B.emit(Inst::add(8, 1, 4));
  B.emit(Inst::ldb(5, 8, 0));
  B.emit(Inst::add(9, 3, 4));
  B.emit(Inst::ldb(6, 9, 0));
  B.emitBranch(Opcode::Bne, 5, 6, NoMatch);
  B.emit(Inst::addi(4, 4, 1));
  B.emitBranch(Opcode::Blt, 4, 10, Inner);
  B.emit(Inst::addi(7, 7, 1));
  K.site(1); // match edge
  B.bind(NoMatch);
  K.site(0); // per-position edge
  B.emit(Inst::addi(1, 1, 1));
  B.emitBranch(Opcode::Bne, 1, 2, Outer);

  KernelProgram Out;
  Out.Name = "strsearch";
  Out.NumStaticSites = 2;
  uint64_t Matches = 0;
  for (size_t Pos = 0; Pos + PatLen <= Text.size(); ++Pos)
    if (std::equal(Pattern.begin(), Pattern.end(), Text.begin() + Pos))
      ++Matches;
  Out.ExpectedResult = Matches;
  Out.DynamicSiteVisits = (M - PatLen + 1) + Matches;
  Out.Prog = K.finish(7);
  return Out;
}

// --- matmul: dense u64 matrix multiply, checksum of C. --------------------

KernelProgram buildMatMul(const KernelConfig &Config) {
  uint64_t N = Config.Size ? Config.Size : 20;

  KernelBuild K(Config.Instr, 1);
  ProgramBuilder &B = K.B;

  Xoshiro256 Rng(Config.Seed);
  std::vector<uint64_t> A(N * N), Bm(N * N);
  for (uint64_t &V : A)
    V = Rng.nextBelow(1 << 20);
  for (uint64_t &V : Bm)
    V = Rng.nextBelow(1 << 20);
  uint64_t AAddr = B.allocData(8 * N * N, 8);
  uint64_t BAddr = B.allocData(8 * N * N, 8);
  uint64_t CAddr = B.allocData(8 * N * N, 8);
  for (uint64_t I = 0; I != N * N; ++I) {
    B.initDataU64(AAddr + 8 * I, A[I]);
    B.initDataU64(BAddr + 8 * I, Bm[I]);
  }

  B.emitLoadConst(1, AAddr);
  B.emitLoadConst(2, BAddr);
  B.emitLoadConst(20, CAddr);
  B.emitLoadConst(13, 8 * N); // row stride in bytes
  B.emitLoadConst(16, N);
  B.emit(Inst::li(4, 0));    // i
  B.emit(Inst::mv(18, 1));   // row pointer into A
  B.emit(Inst::li(19, 0));   // checksum
  K.prologue();

  auto ILoop = B.label();
  auto JLoop = B.label();
  auto KLoop = B.label();
  B.bind(ILoop);
  B.emit(Inst::li(5, 0)); // j
  B.bind(JLoop);
  B.emit(Inst::li(7, 0));  // acc
  B.emit(Inst::mv(8, 18)); // pA = &A[i][0]
  B.emit(Inst::alui(Opcode::Slli, 9, 5, 3));
  B.emit(Inst::add(9, 9, 2)); // pB = &B[0][j]
  B.emit(Inst::mv(6, 16));    // k = N
  B.bind(KLoop);
  B.emit(Inst::ld(10, 8, 0));
  B.emit(Inst::ld(11, 9, 0));
  B.emit(Inst::alu(Opcode::Mul, 12, 10, 11));
  B.emit(Inst::add(7, 7, 12));
  B.emit(Inst::addi(8, 8, 8));
  B.emit(Inst::add(9, 9, 13));
  B.emit(Inst::addi(6, 6, -1));
  B.emitBranch(Opcode::Bne, 6, 0, KLoop);
  B.emit(Inst::st(7, 20, 0)); // C[i][j]
  B.emit(Inst::addi(20, 20, 8));
  B.emit(Inst::add(19, 19, 7)); // checksum += dot
  K.site(0);                    // per-(i,j) edge
  B.emit(Inst::addi(5, 5, 1));
  B.emitBranch(Opcode::Blt, 5, 16, JLoop);
  B.emit(Inst::add(18, 18, 13));
  B.emit(Inst::addi(4, 4, 1));
  B.emitBranch(Opcode::Blt, 4, 16, ILoop);

  KernelProgram Out;
  Out.Name = "matmul";
  Out.NumStaticSites = 1;
  uint64_t Checksum = 0;
  for (uint64_t I = 0; I != N; ++I)
    for (uint64_t J = 0; J != N; ++J) {
      uint64_t Acc = 0;
      for (uint64_t Kk = 0; Kk != N; ++Kk)
        Acc += A[I * N + Kk] * Bm[Kk * N + J];
      Checksum += Acc;
    }
  Out.ExpectedResult = Checksum;
  Out.DynamicSiteVisits = N * N;
  Out.Prog = K.finish(19);
  return Out;
}

// --- listsum: pointer-chasing linked-list sum. ----------------------------

KernelProgram buildListSum(const KernelConfig &Config) {
  uint64_t N = Config.Size ? Config.Size : 4000;

  KernelBuild K(Config.Instr, 1);
  ProgramBuilder &B = K.B;

  Xoshiro256 Rng(Config.Seed);
  // Nodes are {value, next} pairs; the chain visits a random permutation
  // so consecutive loads hit scattered lines (latency bound).
  uint64_t Nodes = B.allocData(16 * N, 8);
  std::vector<uint64_t> Order(N);
  for (uint64_t I = 0; I != N; ++I)
    Order[I] = I;
  for (uint64_t I = N - 1; I > 0; --I)
    std::swap(Order[I], Order[Rng.nextBelow(I + 1)]);

  uint64_t Sum = 0;
  for (uint64_t I = 0; I != N; ++I) {
    uint64_t Node = Nodes + 16 * Order[I];
    uint64_t Value = Rng.nextBelow(1 << 30);
    Sum += Value;
    B.initDataU64(Node, Value);
    B.initDataU64(Node + 8,
                  I + 1 == N ? 0 : Nodes + 16 * Order[I + 1]);
  }

  B.emitLoadConst(1, Nodes + 16 * Order[0]); // head
  B.emit(Inst::li(3, 0));
  K.prologue();

  auto Loop = B.label();
  B.bind(Loop);
  B.emit(Inst::ld(2, 1, 0));
  B.emit(Inst::add(3, 3, 2));
  B.emit(Inst::ld(1, 1, 8));
  K.site(0); // per-node edge
  B.emitBranch(Opcode::Bne, 1, 0, Loop);

  KernelProgram Out;
  Out.Name = "listsum";
  Out.NumStaticSites = 1;
  Out.ExpectedResult = Sum;
  Out.DynamicSiteVisits = N;
  Out.Prog = K.finish(3);
  return Out;
}

} // namespace

const char *bor::kernelName(KernelKind Kind) {
  switch (Kind) {
  case KernelKind::Crc32:
    return "crc32";
  case KernelKind::Sort:
    return "sort";
  case KernelKind::StrSearch:
    return "strsearch";
  case KernelKind::MatMul:
    return "matmul";
  case KernelKind::ListSum:
    return "listsum";
  }
  assert(false && "unknown kernel");
  return "?";
}

KernelProgram bor::buildKernel(const KernelConfig &Config) {
  switch (Config.Kind) {
  case KernelKind::Crc32:
    return buildCrc32(Config);
  case KernelKind::Sort:
    return buildSort(Config);
  case KernelKind::StrSearch:
    return buildStrSearch(Config);
  case KernelKind::MatMul:
    return buildMatMul(Config);
  case KernelKind::ListSum:
    return buildListSum(Config);
  }
  assert(false && "unknown kernel");
  return KernelProgram();
}

std::vector<KernelProgram>
bor::buildKernelSuite(const InstrumentationConfig &Instr) {
  std::vector<KernelProgram> Suite;
  for (KernelKind Kind :
       {KernelKind::Crc32, KernelKind::Sort, KernelKind::StrSearch,
        KernelKind::MatMul, KernelKind::ListSum}) {
    KernelConfig Config;
    Config.Kind = Kind;
    Config.Instr = Instr;
    Suite.push_back(buildKernel(Config));
  }
  return Suite;
}
