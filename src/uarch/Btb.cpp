//===- uarch/Btb.cpp - Branch target buffer --------------------------------===//

#include "uarch/Btb.h"

#include <bit>
#include <cassert>

using namespace bor;

Btb::Btb(const BtbConfig &Config) : Config(Config) {
  assert(Config.Assoc >= 1 && Config.Entries % Config.Assoc == 0);
  NumSets = Config.Entries / Config.Assoc;
  assert(std::has_single_bit(NumSets) && "BTB sets must be a power of two");
  TagShift = static_cast<unsigned>(std::countr_zero(NumSets));
  Entries.resize(Config.Entries);
}

void Btb::insert(uint64_t Pc, uint64_t Target) {
  ++Stats.Inserts;
  ++UseClock;
  Entry *SetBase = setBase(Pc);
  uint64_t Tag = tagFor(Pc);
  Entry *Victim = SetBase;
  for (uint32_t W = 0; W != Config.Assoc; ++W) {
    Entry &E = SetBase[W];
    if (E.Valid && E.Tag == Tag) {
      E.Target = Target;
      E.LastUse = UseClock;
      return;
    }
    if (!E.Valid) {
      Victim = &E;
    } else if (Victim->Valid && E.LastUse < Victim->LastUse) {
      Victim = &E;
    }
  }
  Victim->Valid = true;
  Victim->Tag = Tag;
  Victim->Target = Target;
  Victim->LastUse = UseClock;
}
