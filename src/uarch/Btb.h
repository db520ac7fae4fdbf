//===- uarch/Btb.h - Branch target buffer ---------------------------------===//
//
// Part of the branch-on-random reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A tagged, set-associative branch target buffer (1024 entries, Section
/// 5.1). Taken branches and jumps install their targets; branch-on-random
/// deliberately never does (Section 3.3 summary, item 7), so it cannot
/// evict program branches or trigger spurious taken predictions by
/// aliasing — one of the pollution effects the paper measures for the
/// counter-based framework.
///
//===----------------------------------------------------------------------===//

#ifndef BOR_UARCH_BTB_H
#define BOR_UARCH_BTB_H

#include <cstdint>
#include <optional>
#include <vector>

namespace bor {

struct BtbConfig {
  uint32_t Entries = 1024;
  uint32_t Assoc = 4;
};

struct BtbStats {
  uint64_t Lookups = 0;
  uint64_t Hits = 0;
  uint64_t Inserts = 0;
};

class Btb {
public:
  explicit Btb(const BtbConfig &Config = BtbConfig());

  /// Returns the stored target for the branch at \p Pc, if present.
  std::optional<uint64_t> lookup(uint64_t Pc) {
    ++Stats.Lookups;
    ++UseClock;
    Entry *SetBase = setBase(Pc);
    uint64_t Tag = tagFor(Pc);
    for (uint32_t W = 0; W != Config.Assoc; ++W) {
      Entry &E = SetBase[W];
      if (E.Valid && E.Tag == Tag) {
        E.LastUse = UseClock;
        ++Stats.Hits;
        return E.Target;
      }
    }
    return std::nullopt;
  }

  /// Installs (or refreshes) the mapping Pc -> Target, evicting LRU.
  void insert(uint64_t Pc, uint64_t Target);

  const BtbStats &stats() const { return Stats; }
  const BtbConfig &config() const { return Config; }

private:
  struct Entry {
    uint64_t Tag = 0;
    uint64_t Target = 0;
    uint64_t LastUse = 0;
    bool Valid = false;
  };

  Entry *setBase(uint64_t Pc) {
    return &Entries[static_cast<size_t>((Pc >> 2) & (NumSets - 1)) *
                    Config.Assoc];
  }
  uint64_t tagFor(uint64_t Pc) const { return (Pc >> 2) >> TagShift; }

  BtbConfig Config;
  uint32_t NumSets;
  unsigned TagShift; ///< log2(NumSets): the set-index bits above Pc[1:0].
  uint64_t UseClock = 0;
  std::vector<Entry> Entries;
  BtbStats Stats;
};

} // namespace bor

#endif // BOR_UARCH_BTB_H
