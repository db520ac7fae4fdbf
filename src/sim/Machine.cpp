//===- sim/Machine.cpp - Architectural state of a BOR-RISC machine -------===//

#include "sim/Machine.h"

#include "telemetry/Counters.h"

#include <algorithm>

using namespace bor;

BrrDecider::~BrrDecider() = default;

BrrUnitDecider::~BrrUnitDecider() {
  if (!telemetry::CounterRegistry::enabled())
    return;
  static const telemetry::Counter Evals("brr_unit.evaluations");
  Evals.add(Unit.evaluationCount());
}

Memory::~Memory() {
  if (!telemetry::CounterRegistry::enabled())
    return;
  static const telemetry::Counter Misses("memory.translation_misses");
  Misses.add(TranslationMisses);
}

Memory::Page &Memory::lookupWrite(uint64_t Key) {
  ++TranslationMisses;
  Slot &S = Pages[Key];
  if (!S.Write)
    makeWritable(S);
  fillEntry(Key, S);
  return *S.Write;
}

/// Slow path of the store pipeline: privatizes a COW-shared page (copying
/// its bytes and dropping the share) or allocates a fresh zero page. The
/// caller refills the translation-cache entry, which may still point at
/// the dropped share.
void Memory::makeWritable(Slot &S) {
  S.Owned = std::make_unique<Page>();
  if (S.Shared) {
    *S.Owned = *S.Shared;
    S.Shared.reset();
    ++Cow.Copied;
  } else {
    S.Owned->fill(0);
  }
  S.Write = S.Owned.get();
  S.Read = S.Owned.get();
}

const Memory::Page *Memory::lookupRead(uint64_t Key) const {
  ++TranslationMisses;
  auto It = Pages.find(Key);
  if (It == Pages.end())
    return nullptr;
  fillEntry(Key, It->second);
  return It->second.Read;
}

void Memory::forEachPage(
    const std::function<void(uint64_t Base, const uint8_t *Data)> &Fn)
    const {
  std::vector<uint64_t> Bases;
  Bases.reserve(Pages.size());
  for (const auto &KV : Pages)
    Bases.push_back(KV.first);
  std::sort(Bases.begin(), Bases.end());
  for (uint64_t Base : Bases)
    Fn(Base * PageBytes, Pages.find(Base)->second.Read->data());
}

void Memory::attachShared(uint64_t Base, PageRef P) {
  assert(Base % PageBytes == 0 && "page base must be page-aligned");
  assert(P && "attaching a null shared page");
  clearEntry(Base / PageBytes);
  Slot &S = Pages[Base / PageBytes];
  S.Owned.reset();
  S.Write = nullptr;
  S.Read = P.get();
  S.Shared = std::move(P);
  ++Cow.Attached;
}

Machine::Machine() { Regs.fill(0); }

void Machine::loadProgram(const Program &P) {
  Mem.reset();
  // One copy per page-sized run of the data segment. A run of zeros is
  // skipped, so only pages that receive a non-zero byte are mapped (a
  // fresh page is all zero, and an unmapped one reads as zero).
  const std::vector<uint8_t> &Data = P.data();
  uint64_t Addr = P.dataBase();
  for (size_t Off = 0; Off != Data.size();) {
    size_t Len = std::min<size_t>(Data.size() - Off,
                                  Memory::pageBytes() -
                                      Addr % Memory::pageBytes());
    const uint8_t *Run = Data.data() + Off;
    if (std::any_of(Run, Run + Len, [](uint8_t B) { return B != 0; }))
      Mem.writeBytes(Addr, Run, Len);
    Off += Len;
    Addr += Len;
  }
  Pc = 0;
  Halted = false;
}
