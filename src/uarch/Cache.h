//===- uarch/Cache.h - Set-associative LRU cache model --------------------===//
//
// Part of the branch-on-random reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A set-associative, LRU, write-allocate cache model used for the L1
/// instruction, L1 data, and shared L2 caches of the Section 5.1 machine
/// configuration. Only hit/miss behaviour is modelled (latencies are
/// assigned by the MemoryHierarchy); coherence and writeback traffic are
/// out of scope for the paper's single-core experiments.
///
//===----------------------------------------------------------------------===//

#ifndef BOR_UARCH_CACHE_H
#define BOR_UARCH_CACHE_H

#include <cassert>
#include <cstdint>
#include <vector>

namespace bor {

struct CacheConfig {
  uint32_t SizeBytes = 32 * 1024;
  uint32_t Assoc = 4;
  uint32_t LineBytes = 64;
};

struct CacheStats {
  uint64_t Accesses = 0;
  uint64_t Misses = 0;

  double hitRate() const {
    if (Accesses == 0)
      return 1.0;
    return 1.0 - static_cast<double>(Misses) / static_cast<double>(Accesses);
  }
};

/// One level of cache.
class Cache {
public:
  explicit Cache(const CacheConfig &Config);

  /// Looks up the line containing \p Addr; on a miss the line is filled
  /// (LRU victim evicted). Returns true on hit.
  bool access(uint64_t Addr);

  /// Hit/miss check without fill or LRU update (for tests).
  bool contains(uint64_t Addr) const;

  uint64_t lineAddr(uint64_t Addr) const { return Addr & ~LineMask; }

  const CacheConfig &config() const { return Config; }
  const CacheStats &stats() const { return Stats; }
  void resetStats() { Stats = CacheStats(); }

  uint32_t numSets() const { return NumSets; }

private:
  struct Way {
    uint64_t Tag = 0;
    uint64_t LastUse = 0;
    bool Valid = false;
  };

  CacheConfig Config;
  uint32_t NumSets;
  uint64_t LineMask;
  unsigned LineShift; ///< log2(LineBytes): address to line number.
  unsigned SetShift;  ///< log2(NumSets): line number to tag.
  uint64_t UseClock = 0;
  std::vector<Way> Ways; ///< NumSets * Assoc entries, set-major.
  CacheStats Stats;
};

} // namespace bor

#endif // BOR_UARCH_CACHE_H
