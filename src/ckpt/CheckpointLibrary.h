//===- ckpt/CheckpointLibrary.h - Shared COW checkpoint library ----------===//
//
// Part of the branch-on-random reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A CheckpointLibrary turns one functional pass over a workload into
/// shared, copy-on-write state for any number of later runs. build()
/// executes the stream once through the block-chained interpreter,
/// capturing a checkpoint at instruction 0, at every multiple of the
/// period, and at the halt point; page images are interned in a PageStore
/// so consecutive checkpoints share every untouched page. Because both
/// execution engines honor instruction budgets exactly, those capture
/// points are precisely where a sampled run's fast-forward spans end —
/// resume() COW-attaches a checkpoint's pages into a Machine and the run
/// continues bit-identically to one that executed the prefix itself.
///
/// The build pass also records every marker, so a resuming run can splice
/// the markers its skipped spans would have executed.
///
/// On disk a library travels as a "CKPL" section of the BORB v2 container
/// next to its program, so `bor-run --ckpt-dir` and `bor-bench
/// --ckpt-dir` reuse libraries across invocations. See docs/CHECKPOINTS.md.
///
/// Payload layout (little-endian, through support/ByteCodec.h), version 3
/// (images of any other version are rejected, so a stale cache file
/// rebuilds once):
///   u32 version | u64 periodInsts | u64 totalInsts | u8 streamHalted
///   | u32 deciderKindLen, kind bytes
///   | u64 numStorePages | numStorePages x 4096 page bytes
///   | u64 numCheckpoints | checkpoints:
///       (u64 instsRetired, u64 pc, u8 halted, 32 x u64 regs,
///        u32 numDeciderWords, u64 words,
///        u64 numPages, (u64 base, u64 storePageIndex)*)*
///   | u64 numMarkers | (u32 id, u64 globalInst)*
///
/// decode() accepts only what build() can produce: checkpoint 0 at
/// instruction 0, the last checkpoint at totalInsts with the stream's halt
/// state, no earlier checkpoint halted, the same number of decider words
/// in every checkpoint, and markers strictly ascending within [1,
/// totalInsts].
///
//===----------------------------------------------------------------------===//

#ifndef BOR_CKPT_CHECKPOINTLIBRARY_H
#define BOR_CKPT_CHECKPOINTLIBRARY_H

#include "ckpt/PageStore.h"
#include "sim/Decode.h"
#include "telemetry/Telemetry.h"

#include <string>
#include <utility>
#include <vector>

namespace bor {

struct ContainerSection;

namespace ckpt {

/// One snapshot in a library: architectural state plus the decider words
/// that reproduce the brr outcome stream from this point on. Its pages are
/// refcounted handles into the library's shared store, not private copies.
struct LibraryCheckpoint {
  uint64_t InstsRetired = 0;
  uint64_t Pc = 0;
  bool Halted = false;
  std::array<uint64_t, 32> Regs{};
  std::vector<uint64_t> DeciderWords;
  /// (page base address, shared page) sorted by base; all-zero pages
  /// omitted (a reset Machine reproduces them implicitly).
  std::vector<std::pair<uint64_t, PageStore::PageRef>> Pages;
};

/// A marker executed during the build pass, at its 1-based global
/// committed-instruction index — the library's copy of what a run's
/// skipped fast-forward spans would have observed.
struct LibraryMarker {
  int32_t Id = 0;
  uint64_t GlobalInst = 0;
};

/// One workload's checkpoint set plus the shared page store behind it.
/// Immutable after build()/decode; safe to share read-only across
/// ThreadPool workers (resume() only reads).
class CheckpointLibrary {
public:
  struct BuildOptions {
    /// Capture period in instructions (a sampled run resuming from this
    /// library must use the same SamplingPlan::PeriodInsts).
    uint64_t EveryInsts = 100000;
    /// Stream budget for the build pass (checkpoints beyond it are
    /// simply absent, and resumes there fall back to execution).
    uint64_t MaxInsts = ~0ULL;
  };

  /// Runs \p DP once under a fresh LFSR decider configured by \p Brr,
  /// capturing the library. Publishes ckpt.* build counters and one
  /// "ckpt-build" trace span through \p Telemetry.
  static CheckpointLibrary build(const DecodedProgram &DP,
                                 const BrrUnitConfig &Brr,
                                 const BuildOptions &Options,
                                 const telemetry::TelemetrySink *Telemetry);

  /// The checkpoint whose capture point is exactly \p Insts retired
  /// instructions, or nullptr.
  const LibraryCheckpoint *checkpointAt(uint64_t Insts) const;

  /// The latest checkpoint at or before \p Insts, or nullptr when the
  /// library is empty.
  const LibraryCheckpoint *nearestAtOrBefore(uint64_t Insts) const;

  /// Checkpoint 0: the freshly-loaded program with a fresh decider.
  const LibraryCheckpoint &front() const { return Checkpoints.front(); }
  /// The last capture point (the halt state when streamHalted()).
  const LibraryCheckpoint *finalCheckpoint() const {
    return Checkpoints.empty() ? nullptr : &Checkpoints.back();
  }

  /// Restores \p C into \p M (COW-attaching the shared pages) and \p
  /// Decider. Returns false with \p Error set when the decider kind does
  /// not match the library's.
  bool resume(const LibraryCheckpoint &C, Machine &M, BrrDecider &Decider,
              std::string &Error) const;

  /// Markers with global index in (\p Lo, \p Hi] — the ones a skipped
  /// fast-forward span from \p Lo to \p Hi would have executed.
  std::vector<LibraryMarker> markersIn(uint64_t Lo, uint64_t Hi) const;
  const std::vector<LibraryMarker> &markers() const { return Markers; }

  uint64_t periodInsts() const { return PeriodInsts; }
  uint64_t totalInsts() const { return TotalInsts; }
  bool streamHalted() const { return StreamHalted; }
  const std::string &deciderKind() const { return DeciderKind; }
  size_t numCheckpoints() const { return Checkpoints.size(); }
  const std::vector<LibraryCheckpoint> &checkpoints() const {
    return Checkpoints;
  }
  /// Distinct page images in the store (what the library actually holds).
  size_t numStoredPages() const { return StorePages.size(); }
  /// Page captures satisfied by an already-stored image (build only;
  /// zero after decode).
  uint64_t numDedupHits() const { return DedupHits; }

  /// Payload (de)serialization; decode returns false and sets \p Error
  /// on malformed bytes.
  std::vector<uint8_t> encode() const;
  static bool decode(const std::vector<uint8_t> &Bytes,
                     CheckpointLibrary &Lib, std::string &Error);

  /// The "CKPL" container section carrying this library.
  ContainerSection section() const;

private:
  uint64_t PeriodInsts = 0;
  uint64_t TotalInsts = 0;
  bool StreamHalted = false;
  std::string DeciderKind;
  /// Distinct stored pages in first-intern order (the serialization
  /// index space; checkpoints alias into this set).
  std::vector<PageStore::PageRef> StorePages;
  std::vector<LibraryCheckpoint> Checkpoints; ///< ascending InstsRetired
  std::vector<LibraryMarker> Markers;         ///< ascending GlobalInst
  uint64_t DedupHits = 0;
};

/// Writes \p P plus \p Lib as a BORB v2 image at \p Path.
bool saveLibraryFile(const Program &P, const CheckpointLibrary &Lib,
                     const std::string &Path);

/// Loads a library image: program into \p P, library into \p Lib.
/// Returns false with a diagnostic for I/O errors, format errors, or
/// images without a "CKPL" section.
bool loadLibraryFile(const std::string &Path, Program &P,
                     CheckpointLibrary &Lib, std::string &Error);

} // namespace ckpt
} // namespace bor

#endif // BOR_CKPT_CHECKPOINTLIBRARY_H
