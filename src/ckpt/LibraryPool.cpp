//===- ckpt/LibraryPool.cpp - Build-once cache of checkpoint libraries ---===//

#include "ckpt/LibraryPool.h"

#include "isa/Encoding.h"
#include "isa/Serialize.h"
#include "support/Path.h"
#include "telemetry/Counters.h"

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <system_error>

using namespace bor;
using namespace bor::ckpt;

namespace {

/// True when \p A and \p B serialize to the same bytes. Compares every
/// field serialization writes (instruction encodings, data base, data and
/// symbols) in place, so no serialized image is built.
bool sameImage(const Program &A, const Program &B) {
  if (A.numInsts() != B.numInsts() || A.dataBase() != B.dataBase() ||
      A.data() != B.data() || A.symbols() != B.symbols())
    return false;
  for (size_t I = 0; I != A.numInsts(); ++I)
    if (encode(A.at(I)) != encode(B.at(I)))
      return false;
  return true;
}

} // namespace

uint64_t LibraryPool::keyFor(const Program &P, const BrrUnitConfig &Brr,
                             uint64_t PeriodInsts) {
  // FNV-1a over the serialized program, then the decider configuration and
  // the period folded in word-wise. Purely content-derived, so the same
  // workload maps to the same cache file across processes. The serialized
  // image lives only as long as the loop that hashes it.
  uint64_t H = 0xcbf29ce484222325ULL;
  auto foldByte = [&H](uint8_t B) { H = (H ^ B) * 0x100000001b3ULL; };
  auto foldU64 = [&](uint64_t V) {
    for (int I = 0; I != 8; ++I)
      foldByte(static_cast<uint8_t>(V >> (8 * I)));
  };
  for (uint8_t B : serializeProgram(P))
    foldByte(B);
  foldU64(Brr.LfsrWidth);
  foldU64(Brr.TapMask);
  foldU64(Brr.Seed);
  foldU64(static_cast<uint64_t>(Brr.Policy));
  foldU64(PeriodInsts);
  return H;
}

std::string LibraryPool::cachePathFor(uint64_t Key) const {
  if (CacheDir.empty())
    return "";
  char Name[32];
  std::snprintf(Name, sizeof(Name), "ckpt_%016" PRIx64 ".borb", Key);
  return CacheDir + "/" + Name;
}

size_t LibraryPool::numLibraries() const { return Libraries.size(); }

std::shared_ptr<const CheckpointLibrary>
LibraryPool::getOrBuild(const DecodedProgram &DP, const BrrUnitConfig &Brr,
                        uint64_t PeriodInsts,
                        const telemetry::TelemetrySink *Telemetry,
                        uint64_t MaxInsts) {
  const uint64_t Key = keyFor(DP.program(), Brr, PeriodInsts);
  return Libraries.getOrBuild(Key, [&] {
    const std::string Path = cachePathFor(Key);
    if (!Path.empty()) {
      std::error_code Ec;
      const bool Exists = std::filesystem::exists(Path, Ec);
      Program Cached;
      CheckpointLibrary Lib;
      std::string Error;
      if (Exists && loadLibraryFile(Path, Cached, Lib, Error)) {
        if (!sameImage(Cached, DP.program()))
          Error = "it holds a different program";
        else if (Lib.periodInsts() != PeriodInsts ||
                 Lib.deciderKind() != "lfsr" ||
                 Lib.front().DeciderWords.size() !=
                     BrrUnitDecider::NumCheckpointWords)
          Error =
              "header mismatch (wrong period, decider or decider state size)";
        else {
          if (telemetry::CounterRegistry::enabled()) {
            static const telemetry::Counter Loaded("ckpt.libraries.loaded");
            Loaded.add();
          }
          return std::make_shared<CheckpointLibrary>(std::move(Lib));
        }
      }
      if (Exists) {
        // A cache file that exists but will not load, or holds another
        // program, is corruption (e.g. a torn write from a killed process,
        // bit rot, or a file copied over another's name) — never fatal:
        // warn, count it, and fall through to a clean rebuild that
        // overwrites it.
        std::fprintf(stderr,
                     "warning: checkpoint library cache '%s' is corrupt "
                     "(%s); rebuilding\n",
                     Path.c_str(), Error.c_str());
        if (telemetry::CounterRegistry::enabled()) {
          static const telemetry::Counter Corrupt("ckpt.libraries.corrupt");
          Corrupt.add();
        }
      }
    }

    CheckpointLibrary::BuildOptions Options;
    Options.EveryInsts = PeriodInsts;
    Options.MaxInsts = MaxInsts;
    auto Built = std::make_shared<CheckpointLibrary>(
        CheckpointLibrary::build(DP, Brr, Options, Telemetry));
    if (!Path.empty() && Built->streamHalted()) {
      std::error_code Ec;
      std::filesystem::create_directories(CacheDir, Ec);
      // Stage into the sibling temp name and rename so a concurrent sweep
      // process (or a kill mid-save) can never observe a half-written
      // library — at worst the corruption path above rebuilds once.
      const std::string Tmp = atomicTempPath(Path);
      bool Saved = saveLibraryFile(DP.program(), *Built, Tmp);
      if (Saved && std::rename(Tmp.c_str(), Path.c_str()) != 0)
        Saved = false;
      if (!Saved) {
        std::remove(Tmp.c_str());
        std::fprintf(stderr,
                     "warning: could not persist checkpoint library to '%s'\n",
                     Path.c_str());
      }
    }
    return Built;
  });
}
