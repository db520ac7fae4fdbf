//===- tests/test_machine.cpp - Machine state tests -----------------------===//

#include "sim/Machine.h"

#include "isa/ProgramBuilder.h"

#include <gtest/gtest.h>

using namespace bor;

TEST(Memory, ByteReadWriteRoundTrip) {
  Memory M;
  M.writeU8(100, 0xab);
  EXPECT_EQ(M.readU8(100), 0xab);
  EXPECT_EQ(M.readU8(101), 0); // untouched memory reads zero
}

TEST(Memory, U64ReadWriteRoundTrip) {
  Memory M;
  M.writeU64(0x1000, 0x0123456789abcdefULL);
  EXPECT_EQ(M.readU64(0x1000), 0x0123456789abcdefULL);
}

TEST(Memory, U64IsLittleEndianOverBytes) {
  Memory M;
  M.writeU64(0x2000, 0x1122334455667788ULL);
  EXPECT_EQ(M.readU8(0x2000), 0x88);
  EXPECT_EQ(M.readU8(0x2007), 0x11);
}

TEST(Memory, BytesComposeIntoU64) {
  Memory M;
  for (unsigned I = 0; I != 8; ++I)
    M.writeU8(0x3000 + I, static_cast<uint8_t>(I + 1));
  EXPECT_EQ(M.readU64(0x3000), 0x0807060504030201ULL);
}

TEST(Memory, SparsePagesAllocateOnWrite) {
  Memory M;
  EXPECT_EQ(M.numPages(), 0u);
  (void)M.readU64(0x10000); // reads do not allocate
  EXPECT_EQ(M.numPages(), 0u);
  M.writeU8(0x10000, 1);
  M.writeU8(0x10000 + 4096, 1);
  EXPECT_EQ(M.numPages(), 2u);
}

TEST(Memory, DistantAddressesDoNotInterfere) {
  Memory M;
  M.writeU64(0x0, 1);
  M.writeU64(0x40000000, 2);
  EXPECT_EQ(M.readU64(0x0), 1u);
  EXPECT_EQ(M.readU64(0x40000000), 2u);
}

TEST(MemoryDeath, MisalignedU64Asserts) {
  Memory M;
  EXPECT_DEATH(M.writeU64(3, 1), "aligned");
  EXPECT_DEATH((void)M.readU64(9), "aligned");
}

// The last-page caches must never serve a page the mapping no longer
// holds. Each case first reads (and where relevant writes) the page so it
// is cached, then changes the mapping under the cache.

namespace {

Memory::PageRef filledPage(uint8_t Byte) {
  auto P = std::make_shared<Memory::Page>();
  P->fill(Byte);
  return P;
}

Program programWithWord(uint64_t Value, uint64_t &Addr) {
  ProgramBuilder B;
  Addr = B.allocData(8, 8);
  B.initDataU64(Addr, Value);
  B.emit(Inst::halt());
  return B.finish();
}

} // namespace

TEST(MemoryCache, PrivatizingWriteReadsNewBytesAndSiblingKeepsOld) {
  Memory::PageRef Shared = filledPage(0x11);
  Machine A, B;
  A.memory().attachShared(0x4000, Shared);
  B.memory().attachShared(0x4000, Shared);
  EXPECT_EQ(A.memory().readU64(0x4008), 0x1111111111111111ULL);
  EXPECT_EQ(B.memory().readU64(0x4008), 0x1111111111111111ULL);

  A.memory().writeU64(0x4008, 0xfeedULL); // privatizes A's copy
  EXPECT_EQ(A.memory().cowCounts().Copied, 1u);
  EXPECT_EQ(A.memory().readU64(0x4008), 0xfeedULL);
  EXPECT_EQ(A.memory().readU8(0x4000), 0x11); // rest of the copy intact
  EXPECT_EQ(B.memory().readU64(0x4008), 0x1111111111111111ULL);
  EXPECT_EQ((*Shared)[8], 0x11);

  A.memory().writeU8(0x4010, 0x22); // the write cache holds the copy
  EXPECT_EQ(A.memory().readU8(0x4010), 0x22);
  EXPECT_EQ(B.memory().readU8(0x4010), 0x11);
}

TEST(MemoryCache, ResetReadsZeroAndWritesAllocateAfresh) {
  Memory M;
  M.writeU64(0x1000, 42);
  EXPECT_EQ(M.readU64(0x1000), 42u);
  M.reset();
  EXPECT_EQ(M.readU64(0x1000), 0u);
  EXPECT_EQ(M.numPages(), 0u);
  M.writeU8(0x1001, 7); // must not land in the dropped page
  EXPECT_EQ(M.numPages(), 1u);
  EXPECT_EQ(M.readU64(0x1000), 0x700u);
}

TEST(MemoryCache, LoadProgramReadsTheNewImage) {
  uint64_t AddrA = 0, AddrB = 0;
  Program PA = programWithWord(0xaaaa, AddrA);
  Program PB = programWithWord(0xbbbb, AddrB);
  Program PZ = programWithWord(0, AddrB);
  ASSERT_EQ(AddrA, AddrB);
  Machine M;
  M.loadProgram(PA);
  EXPECT_EQ(M.memory().readU64(AddrA), 0xaaaaULL);
  M.loadProgram(PB);
  EXPECT_EQ(M.memory().readU64(AddrA), 0xbbbbULL);
  M.loadProgram(PZ);
  EXPECT_EQ(M.memory().readU64(AddrA), 0u);
}

TEST(MemoryCache, RestorePageOverCachedPageReadsNewContents) {
  Memory M;
  M.writeU64(0x2000, 1);
  EXPECT_EQ(M.readU64(0x2000), 1u);
  Memory::PageRef Fresh = filledPage(0x33);
  M.restorePage(0x2000, Fresh->data());
  EXPECT_EQ(M.readU64(0x2000), 0x3333333333333333ULL);

  // Over a cached COW share, restore installs an owned page in its place.
  M.attachShared(0x3000, filledPage(0x44));
  EXPECT_EQ(M.readU8(0x3000), 0x44);
  M.restorePage(0x3000, Fresh->data());
  EXPECT_EQ(M.readU8(0x3000), 0x33);
  M.writeU8(0x3000, 0x55);
  EXPECT_EQ(M.readU8(0x3000), 0x55);
  EXPECT_EQ(M.cowCounts().Copied, 0u);
}

TEST(MemoryCache, AttachSharedOverCachedPageReadsNewContents) {
  Memory M;
  M.writeU64(0x5000, 9); // owned page, now in both caches
  EXPECT_EQ(M.readU64(0x5000), 9u);
  Memory::PageRef Shared = filledPage(0x66);
  M.attachShared(0x5000, Shared);
  EXPECT_EQ(M.readU64(0x5000), 0x6666666666666666ULL);
  // The dropped owned page must not take this store: it copies the share.
  M.writeU8(0x5000, 0x77);
  EXPECT_EQ(M.readU8(0x5000), 0x77);
  EXPECT_EQ((*Shared)[0], 0x66);
  EXPECT_EQ(M.cowCounts().Copied, 1u);
}

TEST(MemoryCache, UnmappedReadIsNotCachedPastTheFirstWrite) {
  Memory M;
  EXPECT_EQ(M.readU64(0x6000), 0u);
  M.writeU64(0x6000, 5);
  EXPECT_EQ(M.readU64(0x6000), 5u);
}

TEST(Machine, RegistersStartZero) {
  Machine M;
  for (unsigned R = 0; R != 32; ++R)
    EXPECT_EQ(M.readReg(R), 0u);
}

TEST(Machine, R0IsHardwiredZero) {
  Machine M;
  M.writeReg(RegZero, 12345);
  EXPECT_EQ(M.readReg(RegZero), 0u);
  M.writeReg(1, 12345);
  EXPECT_EQ(M.readReg(1), 12345u);
}

TEST(Machine, LoadProgramCopiesDataSegment) {
  ProgramBuilder B;
  uint64_t Addr = B.allocData(16, 8);
  B.initDataU64(Addr, 0xfeedface);
  B.initDataU64(Addr + 8, 42);
  B.emit(Inst::halt());
  Program P = B.finish();

  Machine M;
  M.loadProgram(P);
  EXPECT_EQ(M.memory().readU64(Addr), 0xfeedfaceULL);
  EXPECT_EQ(M.memory().readU64(Addr + 8), 42u);
  EXPECT_EQ(M.pc(), 0u);
  EXPECT_FALSE(M.halted());
}

TEST(BrrDeciders, TrivialDeciders) {
  NeverTakenDecider Never;
  AlwaysTakenDecider Always;
  for (unsigned Raw = 0; Raw != FreqCode::NumValues; ++Raw) {
    EXPECT_FALSE(Never.decide(FreqCode(Raw)));
    EXPECT_TRUE(Always.decide(FreqCode(Raw)));
  }
}

TEST(BrrDeciders, UnitDeciderMatchesUnitRate) {
  BrrUnitConfig C;
  BrrUnitDecider D(C);
  uint64_t Taken = 0;
  const int N = 100000;
  for (int I = 0; I != N; ++I)
    Taken += D.decide(FreqCode(3)); // 1/16
  EXPECT_NEAR(static_cast<double>(Taken) / N, 1.0 / 16, 0.005);
}

TEST(BrrDeciders, HwCounterDeciderIsPeriodic) {
  HwCounterDecider D;
  int FirstFire = -1;
  for (int I = 0; I != 8; ++I)
    if (D.decide(FreqCode(1)) && FirstFire < 0)
      FirstFire = I;
  EXPECT_EQ(FirstFire, 3); // every 4th evaluation
}
