//===- opt/ProfileMap.h - Block-keyed execution profiles ------------------===//
//
// Part of the branch-on-random reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The profile representation the layout optimizer consumes: execution
/// counts (and, when known, conditional-branch taken counts) keyed on
/// cfg::BlockId — the id space cfg::buildModule assigns — so every
/// profile source in the repo speaks one language.
///
/// Profiles come from three places:
///  * collectOracleProfile() steps the interpreter and counts every block
///    entry and branch outcome — exact, but costs a full functional run
///    (the reference a sampled profile is judged against);
///  * fromSites() ingests sampled site counts (a ProfileTable read back
///    after a brr- or counter-sampled run) through a site-to-block map —
///    statistical, cheap, the paper's proposal;
///  * fromJson()/toJson() round-trip the "bor-profile-v1" format that
///    bor-opt and bor-dis --profile exchange on disk.
///
/// A ProfileMap is deliberately partial: hasBlock() distinguishes "never
/// executed" from "not profiled", and the passes only treat a block as
/// cold on positive evidence.
///
//===----------------------------------------------------------------------===//

#ifndef BOR_OPT_PROFILEMAP_H
#define BOR_OPT_PROFILEMAP_H

#include "cfg/Cfg.h"
#include "sim/Machine.h"

#include <map>
#include <string>

namespace bor {
namespace opt {

/// Per-block execution profile, keyed on cfg::BlockId.
class ProfileMap {
public:
  /// Accumulates \p Exec block executions (and \p Taken taken outcomes of
  /// the block's terminating conditional branch) into block \p Id.
  void add(cfg::BlockId Id, uint64_t Exec, uint64_t Taken = 0);

  /// Whether block \p Id was profiled at all. In a partial profile an
  /// absent block is unknown, not cold; in a complete() profile absence
  /// means the block never executed.
  bool hasBlock(cfg::BlockId Id) const { return Counts.count(Id) != 0; }

  /// A complete profile observed every execution (the oracle collector):
  /// blocks it does not mention have a true count of zero. Sampled
  /// profiles are partial and leave this false.
  bool complete() const { return Complete; }
  void setComplete(bool C) { Complete = C; }
  /// Executions of block \p Id (0 when absent).
  uint64_t execCount(cfg::BlockId Id) const;
  /// Taken outcomes of \p Id's conditional terminator (0 when absent).
  uint64_t takenCount(cfg::BlockId Id) const;

  size_t numBlocks() const { return Counts.size(); }
  bool empty() const { return Counts.empty(); }
  uint64_t totalExec() const;
  /// The hottest single block count (0 for an empty profile).
  uint64_t maxExec() const;

  /// Blocks in ascending id order (deterministic iteration for passes).
  const std::map<cfg::BlockId, std::pair<uint64_t, uint64_t>> &
  blocks() const {
    return Counts;
  }

  /// Serializes as "bor-profile-v1" JSON.
  std::string toJson() const;
  /// Parses toJson() output. Returns false and sets \p Err on malformed
  /// or wrong-version input.
  static bool fromJson(const std::string &Text, ProfileMap &Out,
                       std::string &Err);

private:
  /// BlockId -> (exec count, taken count), ordered for determinism.
  std::map<cfg::BlockId, std::pair<uint64_t, uint64_t>> Counts;
  bool Complete = false;
};

/// Exact profile: steps \p P to completion (at most \p MaxSteps
/// instructions) under \p D and counts every block entry and every
/// conditional-branch taken outcome, keyed to buildModule(P)'s block ids.
/// Publishes opt.profile.* counters.
ProfileMap collectOracleProfile(const Program &P, BrrDecider &D,
                                uint64_t MaxSteps);

/// Sampled profile: \p SiteCounts[i] is the sampled count of site i (a
/// ProfileTable read back after an instrumented run) and \p SiteBlocks[i]
/// the block that site profiles (cfg::NoBlock entries are skipped).
/// Sampling scales all counts by 1/interval uniformly, so relative
/// hotness — all the passes use — is preserved in expectation.
ProfileMap profileFromSites(const std::vector<uint64_t> &SiteCounts,
                            const std::vector<cfg::BlockId> &SiteBlocks);

} // namespace opt
} // namespace bor

#endif // BOR_OPT_PROFILEMAP_H
