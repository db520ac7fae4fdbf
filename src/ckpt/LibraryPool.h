//===- ckpt/LibraryPool.h - Build-once cache of checkpoint libraries -----===//
//
// Part of the branch-on-random reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The sharing point of the checkpoint subsystem: one pool lives for an
/// experiment grid (or a bor-run invocation), and every cell asks it for
/// the library of its (program, decider config, period) triple. The first
/// request builds the library — exactly once, even when many ThreadPool
/// workers ask concurrently — and every later request returns the same
/// immutable, refcounted object; the build cost amortizes over the whole
/// sweep and the ckpt.* counters stay thread-count-invariant.
///
/// With a cache directory configured, built libraries persist as BORB v2
/// images ("CKPL" section next to the program), keyed by a content hash of
/// the program plus the decider configuration and period, so a re-run of
/// the same sweep skips the functional pass entirely
/// (ckpt.libraries.loaded counts those wins).
///
//===----------------------------------------------------------------------===//

#ifndef BOR_CKPT_LIBRARYPOOL_H
#define BOR_CKPT_LIBRARYPOOL_H

#include "ckpt/CheckpointLibrary.h"
#include "support/OncePerKey.h"

#include <memory>

namespace bor {
namespace ckpt {

/// Thread-safe cache of checkpoint libraries, keyed by (program bytes,
/// BrrUnitConfig, period).
class LibraryPool {
public:
  /// \p CacheDir: directory for cross-invocation persistence (created on
  /// first save if missing); empty keeps the pool memory-only.
  explicit LibraryPool(std::string CacheDir = "")
      : CacheDir(std::move(CacheDir)) {}

  LibraryPool(const LibraryPool &) = delete;
  LibraryPool &operator=(const LibraryPool &) = delete;

  /// Returns the library for \p DP under \p Brr with capture period \p
  /// PeriodInsts, building (or loading from the cache directory) on first
  /// request. Concurrent callers for the same key block until the one
  /// build finishes and then share the result. The returned pointer is
  /// never null and keeps the library alive independently of the pool.
  /// A cache file is loaded only when its embedded program is \p DP's
  /// program byte for byte; any other file under the key's name is
  /// corrupt, so the pool warns, rebuilds and overwrites it.
  ///
  /// \p MaxInsts bounds the build pass (BuildOptions::MaxInsts) of the
  /// first request for a key. A library that stops short of the halt is
  /// kept in memory but never written to the cache directory, so a cached
  /// library always covers the whole stream.
  std::shared_ptr<const CheckpointLibrary>
  getOrBuild(const DecodedProgram &DP, const BrrUnitConfig &Brr,
             uint64_t PeriodInsts,
             const telemetry::TelemetrySink *Telemetry = nullptr,
             uint64_t MaxInsts = ~0ULL);

  /// Content key for one (program, decider config, period) triple — the
  /// disk cache filename stem (exposed for tests).
  static uint64_t keyFor(const Program &P, const BrrUnitConfig &Brr,
                         uint64_t PeriodInsts);

  /// The cache file path for \p Key, or "" when the pool is memory-only.
  std::string cachePathFor(uint64_t Key) const;

  size_t numLibraries() const;

private:
  std::string CacheDir;
  OncePerKey<uint64_t, std::shared_ptr<const CheckpointLibrary>> Libraries;
};

} // namespace ckpt
} // namespace bor

#endif // BOR_CKPT_LIBRARYPOOL_H
