//===- opt/ProfileMap.cpp - Block-keyed execution profiles ----------------===//

#include "opt/ProfileMap.h"

#include "exp/Json.h"
#include "sim/Interpreter.h"
#include "telemetry/Counters.h"

#include <limits>

using namespace bor;
using namespace bor::opt;

void ProfileMap::add(cfg::BlockId Id, uint64_t Exec, uint64_t Taken) {
  auto &Slot = Counts[Id];
  Slot.first += Exec;
  Slot.second += Taken;
}

uint64_t ProfileMap::execCount(cfg::BlockId Id) const {
  auto It = Counts.find(Id);
  return It == Counts.end() ? 0 : It->second.first;
}

uint64_t ProfileMap::takenCount(cfg::BlockId Id) const {
  auto It = Counts.find(Id);
  return It == Counts.end() ? 0 : It->second.second;
}

uint64_t ProfileMap::totalExec() const {
  uint64_t Total = 0;
  for (const auto &[Id, C] : Counts)
    Total += C.first;
  return Total;
}

uint64_t ProfileMap::maxExec() const {
  uint64_t Max = 0;
  for (const auto &[Id, C] : Counts)
    Max = std::max(Max, C.first);
  return Max;
}

std::string ProfileMap::toJson() const {
  std::string Blocks = "[";
  bool First = true;
  for (const auto &[Id, C] : Counts) {
    if (!First)
      Blocks += ",";
    First = false;
    exp::JsonObjectWriter W;
    W.fieldRaw("id", exp::jsonNumber(static_cast<uint64_t>(Id)));
    W.fieldRaw("count", exp::jsonNumber(C.first));
    if (C.second != 0)
      W.fieldRaw("taken", exp::jsonNumber(C.second));
    Blocks += W.finish();
  }
  Blocks += "]";
  exp::JsonObjectWriter W;
  W.field("version", "bor-profile-v1");
  W.fieldRaw("complete", Complete ? "true" : "false");
  W.fieldRaw("blocks", Blocks);
  return W.finish();
}

/// Reads field \p Name of block entry \p Entry into \p Out, which must
/// hold it exactly.
template <typename T>
static bool readBlockField(const exp::JsonValue &V, size_t Entry,
                           const char *Name, T &Out, std::string &Err) {
  if (exp::jsonToInteger(V.Num, Out))
    return true;
  Err = "block entry " + std::to_string(Entry) + ": " + Name +
        " is not an integer in [0, " +
        std::to_string(std::numeric_limits<T>::max()) + "]";
  return false;
}

bool ProfileMap::fromJson(const std::string &Text, ProfileMap &Out,
                          std::string &Err) {
  exp::JsonValue V;
  if (!exp::jsonParse(Text, V, Err))
    return false;
  const exp::JsonValue *Version = V.find("version");
  if (!Version || !Version->isString() || Version->Str != "bor-profile-v1") {
    Err = "not a bor-profile-v1 document";
    return false;
  }
  const exp::JsonValue *Blocks = V.find("blocks");
  if (!Blocks || !Blocks->isArray()) {
    Err = "missing blocks array";
    return false;
  }
  ProfileMap P;
  for (size_t I = 0; I != Blocks->Elems.size(); ++I) {
    const exp::JsonValue &B = Blocks->Elems[I];
    const exp::JsonValue *Id = B.find("id");
    const exp::JsonValue *Count = B.find("count");
    if (!Id || !Id->isNumber() || !Count || !Count->isNumber()) {
      Err = "block entry missing id/count";
      return false;
    }
    const exp::JsonValue *Taken = B.find("taken");
    cfg::BlockId BlockId = 0;
    uint64_t Exec = 0, TakenCount = 0;
    if (!readBlockField(*Id, I, "id", BlockId, Err) ||
        !readBlockField(*Count, I, "count", Exec, Err) ||
        (Taken && Taken->isNumber() &&
         !readBlockField(*Taken, I, "taken", TakenCount, Err)))
      return false;
    P.add(BlockId, Exec, TakenCount);
  }
  const exp::JsonValue *Complete = V.find("complete");
  P.setComplete(Complete && Complete->isBool() && Complete->BoolVal);
  Out = std::move(P);
  return true;
}

ProfileMap opt::collectOracleProfile(const DecodedProgram &DP, BrrDecider &D,
                                     uint64_t MaxSteps) {
  const Program &P = DP.program();
  cfg::Module M = cfg::buildModule(P);
  Machine Mach;
  Interpreter I(DP, Mach, D);
  ProfileMap Prof;
  uint64_t Steps = 0;
  while (!I.halted() && Steps != MaxSteps) {
    size_t Idx = P.indexForPc(Mach.pc());
    cfg::BlockId Blk = M.blockForIndex(Idx);
    ExecRecord R = I.step();
    ++Steps;
    // A block is entered exactly when its head instruction executes
    // (every head is a leader, so control can reach it no other way).
    if (Idx == M.block(Blk).OrigIndex)
      Prof.add(Blk, 1);
    if (R.D->Kind == InstKind::CondBranch && R.Taken)
      Prof.add(Blk, 0, 1);
  }
  Prof.setComplete(true);
  if (telemetry::CounterRegistry::enabled()) {
    static const telemetry::Counter Profiles("opt.profile.oracle_runs");
    static const telemetry::Counter StepsC("opt.profile.oracle_steps");
    Profiles.add(1);
    StepsC.add(Steps);
  }
  return Prof;
}

ProfileMap opt::profileFromSites(const std::vector<uint64_t> &SiteCounts,
                                 const std::vector<cfg::BlockId> &SiteBlocks) {
  assert(SiteCounts.size() == SiteBlocks.size() &&
         "one block per profiled site");
  ProfileMap Prof;
  for (size_t I = 0; I != SiteCounts.size(); ++I)
    if (SiteBlocks[I] != cfg::NoBlock)
      Prof.add(SiteBlocks[I], SiteCounts[I]);
  if (telemetry::CounterRegistry::enabled()) {
    static const telemetry::Counter Ingests("opt.profile.site_ingests");
    Ingests.add(1);
  }
  return Prof;
}
