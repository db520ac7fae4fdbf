//===- tests/test_machine.cpp - Machine state tests -----------------------===//

#include "sim/Machine.h"

#include "isa/ProgramBuilder.h"
#include "telemetry/Counters.h"

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <random>
#include <vector>

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

// The translation cache must never serve a page the mapping no longer
// holds. Each case first reads (and where relevant writes) the page so it
// is cached, then changes the mapping under the cache. Under ASan a stale
// entry is a use-after-free of the page it still points at.

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

// Page numbers 64 apart share one direct-mapped entry.
constexpr uint64_t AliasStride = 64 * 4096;

TEST(MemoryCache, AliasingPagesKeepTheirOwnBytes) {
  Memory M;
  const uint64_t A = 0x5000, B = A + AliasStride;
  for (uint64_t I = 0; I != 512; ++I) {
    M.writeU64(A + 8 * I, I);
    M.writeU64(B + 8 * I, ~I);
    EXPECT_EQ(M.readU64(A + 8 * I), I);
    M.writeU8(B + 8 * I, 0x5a);
    EXPECT_EQ(M.readU64(B + 8 * I), (~I & ~0xffULL) | 0x5a);
    EXPECT_EQ(M.readU8(A + 8 * I), static_cast<uint8_t>(I));
  }
  EXPECT_EQ(M.numPages(), 2u);
}

TEST(MemoryCache, RemapLeavesOtherCachedPagesCorrect) {
  Memory M;
  // Eight owned pages: four adjacent, four aliasing the first.
  std::vector<uint64_t> Bases;
  for (uint64_t I = 0; I != 4; ++I) {
    Bases.push_back(0x10000 + I * 4096);
    Bases.push_back(0x10000 + I * 4096 + 3 * AliasStride);
  }
  for (uint64_t Base : Bases)
    M.writeU64(Base, Base);
  for (uint64_t Base : Bases)
    EXPECT_EQ(M.readU64(Base), Base);

  // Remap two pages, each while its entry holds it.
  EXPECT_EQ(M.readU64(Bases[2]), Bases[2]);
  Memory::PageRef Shared = filledPage(0x21);
  M.attachShared(Bases[2], Shared);
  EXPECT_EQ(M.readU64(Bases[5]), Bases[5]);
  Memory::PageRef Other = filledPage(0x43);
  M.attachShared(Bases[5], Other);
  for (size_t I = 0; I != Bases.size(); ++I) {
    uint64_t Want = I == 2   ? 0x2121212121212121ULL
                    : I == 5 ? 0x4343434343434343ULL
                             : Bases[I];
    EXPECT_EQ(M.readU64(Bases[I]), Want) << "page " << I;
    M.writeU8(Bases[I] + 8, static_cast<uint8_t>(I));
  }
  for (size_t I = 0; I != Bases.size(); ++I)
    EXPECT_EQ(M.readU8(Bases[I] + 8), static_cast<uint8_t>(I))
        << "page " << I;
  EXPECT_EQ(M.cowCounts().Copied, 2u);
  EXPECT_EQ((*Shared)[8], 0x21);
  EXPECT_EQ((*Other)[8], 0x43);
}

TEST(MemoryCache, CachedShareIsPrivatizedExactlyOnce) {
  Memory::PageRef Shared = filledPage(0x11);
  Machine A, B;
  A.memory().attachShared(0x8000, Shared);
  B.memory().attachShared(0x8000, Shared);
  Shared.reset(); // the two Machines now hold the only references
  // Reads fill the entry with the share and a null write pointer.
  EXPECT_EQ(A.memory().readU64(0x8000), 0x1111111111111111ULL);
  EXPECT_EQ(A.memory().readU8(0x8fff), 0x11);

  for (uint64_t I = 0; I != 64; ++I)
    A.memory().writeU64(0x8000 + 8 * I, I + 1);
  A.memory().writeU8(0x8fff, 0x99);
  EXPECT_EQ(A.memory().cowCounts().Copied, 1u);
  for (uint64_t I = 0; I != 64; ++I)
    EXPECT_EQ(A.memory().readU64(0x8000 + 8 * I), I + 1);
  EXPECT_EQ(A.memory().readU8(0x8fff), 0x99);
  EXPECT_EQ(A.memory().readU8(0x8200), 0x11);

  EXPECT_EQ(B.memory().readU64(0x8000), 0x1111111111111111ULL);
  EXPECT_EQ(B.memory().readU8(0x8fff), 0x11);
  EXPECT_EQ(B.memory().cowCounts().Copied, 0u);
}

TEST(MemoryCache, PublishesSlowPathLookups) {
  telemetry::CounterRegistry &Registry =
      telemetry::CounterRegistry::instance();
  telemetry::CounterRegistry::setEnabled(true);
  Registry.reset();
  {
    Memory M;
    M.writeU64(0x1000, 1); // miss: allocates the page
    for (int I = 0; I != 100; ++I)
      M.writeU64(0x1000, M.readU64(0x1000) + 1); // hits
    (void)M.readU8(0x9000); // unmapped: a miss that fills nothing
    (void)M.readU8(0x9000);
    for (int I = 0; I != 10; ++I) // aliases evict each other
      M.writeU8(I % 2 ? 0x1000 : 0x1000 + AliasStride, 1);
  }
  uint64_t Misses = 0;
  for (const auto &[Name, Value] : Registry.snapshot().Counters)
    if (Name == "memory.translation_misses")
      Misses = Value;
  telemetry::CounterRegistry::setEnabled(false);
  Registry.reset();
  EXPECT_EQ(Misses, 1u + 2u + 10u);
}

namespace {

/// The uncached model the randomized test checks Memory against: a page
/// per number, flagged while it is still an unwritten COW share.
struct RefPage {
  Memory::Page Bytes;
  bool Shared = false;
};

struct RefMemory {
  std::map<uint64_t, RefPage> Pages;
  uint64_t Attached = 0, Copied = 0;

  uint8_t readU8(uint64_t Addr) const {
    auto It = Pages.find(Addr / 4096);
    return It == Pages.end() ? 0 : It->second.Bytes[Addr % 4096];
  }
  uint64_t readU64(uint64_t Addr) const {
    uint64_t V = 0;
    for (unsigned I = 0; I != 8; ++I)
      V |= static_cast<uint64_t>(readU8(Addr + I)) << (8 * I);
    return V;
  }
  RefPage &writable(uint64_t Addr) {
    auto [It, Fresh] = Pages.try_emplace(Addr / 4096);
    if (Fresh)
      It->second.Bytes.fill(0);
    if (It->second.Shared) {
      It->second.Shared = false;
      ++Copied;
    }
    return It->second;
  }
  void writeU8(uint64_t Addr, uint8_t V) {
    writable(Addr).Bytes[Addr % 4096] = V;
  }
  void writeU64(uint64_t Addr, uint64_t V) {
    RefPage &P = writable(Addr);
    for (unsigned I = 0; I != 8; ++I)
      P.Bytes[Addr % 4096 + I] = static_cast<uint8_t>(V >> (8 * I));
  }
};

} // namespace

TEST(MemoryCache, RandomOpsMatchAnUncachedReference) {
  // 200 page numbers on 8 of the 64 entries, 25 pages per entry, some
  // far above the rest.
  std::vector<uint64_t> Keys;
  for (uint64_t Set = 0; Set != 8; ++Set)
    for (uint64_t Way = 0; Way != 25; ++Way)
      Keys.push_back(Set * 9 + Way * 64 + (Way % 5 == 4 ? 1ULL << 32 : 0));

  std::mt19937_64 Rng(0x7e57ab1e);
  auto Filled = [&Rng] {
    auto P = std::make_shared<Memory::Page>();
    const uint64_t Seed = Rng();
    for (size_t I = 0; I != P->size(); ++I)
      (*P)[I] = static_cast<uint8_t>((Seed >> (8 * (I % 8))) + I / 8);
    return P;
  };

  Memory M;
  RefMemory Ref;
  uint64_t Key = Keys[0];
  for (int Op = 0; Op != 1000000; ++Op) {
    // Mostly stay on the last page, so both hits and misses happen.
    if (Rng() % 4 == 0)
      Key = Keys[Rng() % Keys.size()];
    const uint64_t Base = Key * 4096;
    const uint64_t Addr = Base + Rng() % 4096;
    const uint64_t Word = Addr & ~7ULL;
    const unsigned Kind = Rng() % 1000;
    if (Kind < 300) {
      ASSERT_EQ(M.readU8(Addr), Ref.readU8(Addr)) << "op " << Op;
    } else if (Kind < 600) {
      ASSERT_EQ(M.readU64(Word), Ref.readU64(Word)) << "op " << Op;
    } else if (Kind < 750) {
      const uint8_t V = static_cast<uint8_t>(Rng());
      M.writeU8(Addr, V);
      Ref.writeU8(Addr, V);
    } else if (Kind < 980) {
      const uint64_t V = Rng();
      M.writeU64(Word, V);
      Ref.writeU64(Word, V);
    } else if (Kind < 999) {
      std::shared_ptr<Memory::Page> P = Filled();
      Ref.Pages[Key] = {*P, true};
      ++Ref.Attached;
      M.attachShared(Base, std::move(P));
    } else {
      M.reset();
      Ref.Pages.clear();
    }
    ASSERT_EQ(M.cowCounts().Copied, Ref.Copied) << "op " << Op;
  }
  EXPECT_EQ(M.cowCounts().Attached, Ref.Attached);
  EXPECT_GT(Ref.Copied, 0u);
  EXPECT_EQ(M.numPages(), Ref.Pages.size());
  for (const auto &[K, P] : Ref.Pages)
    for (uint64_t Off = 0; Off != 4096; Off += 8)
      ASSERT_EQ(M.readU64(K * 4096 + Off), Ref.readU64(K * 4096 + Off));
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
