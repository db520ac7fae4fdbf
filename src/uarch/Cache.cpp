//===- uarch/Cache.cpp - Set-associative LRU cache model ------------------===//

#include "uarch/Cache.h"

#include <bit>
#include <cstddef>

using namespace bor;

Cache::Cache(const CacheConfig &Config) : Config(Config) {
  assert(std::has_single_bit(Config.LineBytes) && "line size: power of two");
  assert(Config.Assoc >= 1 && "cache needs at least one way");
  uint32_t Lines = Config.SizeBytes / Config.LineBytes;
  assert(Lines % Config.Assoc == 0 && "size/assoc/line mismatch");
  NumSets = Lines / Config.Assoc;
  assert(std::has_single_bit(NumSets) && "set count must be a power of two");
  LineMask = Config.LineBytes - 1;
  LineShift = static_cast<unsigned>(std::countr_zero(Config.LineBytes));
  SetShift = static_cast<unsigned>(std::countr_zero(NumSets));
  Ways.resize(static_cast<size_t>(NumSets) * Config.Assoc);
}

// Cache-line aligned, as Interpreter::step() is (see sim/Interpreter.cpp).
__attribute__((aligned(64))) bool Cache::access(uint64_t Addr) {
  ++Stats.Accesses;
  ++UseClock;

  uint64_t Line = Addr >> LineShift;
  uint32_t Set = static_cast<uint32_t>(Line & (NumSets - 1));
  uint64_t Tag = Line >> SetShift;
  Way *SetBase = &Ways[static_cast<size_t>(Set) * Config.Assoc];

  Way *Victim = SetBase;
  for (uint32_t W = 0; W != Config.Assoc; ++W) {
    Way &Candidate = SetBase[W];
    if (Candidate.Valid && Candidate.Tag == Tag) {
      Candidate.LastUse = UseClock;
      return true;
    }
    if (!Candidate.Valid) {
      Victim = &Candidate;
    } else if (Victim->Valid && Candidate.LastUse < Victim->LastUse) {
      Victim = &Candidate;
    }
  }

  ++Stats.Misses;
  Victim->Valid = true;
  Victim->Tag = Tag;
  Victim->LastUse = UseClock;
  return false;
}

bool Cache::contains(uint64_t Addr) const {
  uint64_t Line = Addr >> LineShift;
  uint32_t Set = static_cast<uint32_t>(Line & (NumSets - 1));
  uint64_t Tag = Line >> SetShift;
  const Way *SetBase = &Ways[static_cast<size_t>(Set) * Config.Assoc];
  for (uint32_t W = 0; W != Config.Assoc; ++W)
    if (SetBase[W].Valid && SetBase[W].Tag == Tag)
      return true;
  return false;
}
