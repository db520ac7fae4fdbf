//===- core/BrrUnit.cpp - The decode-stage branch-on-random unit ---------===//

#include "core/BrrUnit.h"

#include "lfsr/TapCatalog.h"

using namespace bor;

static Lfsr makeRegister(const BrrUnitConfig &Config) {
  if (Config.TapMask != 0)
    return Lfsr(Config.LfsrWidth, Config.TapMask, Config.Seed);
  return defaultTapSet(Config.LfsrWidth).makeLfsr(Config.Seed);
}

BrrUnit::BrrUnit(const BrrUnitConfig &Config)
    : Config(Config), Register(makeRegister(Config)) {
  for (unsigned Raw = 0; Raw != FreqCode::NumValues; ++Raw)
    AndMasks[Raw] =
        selectAndMask(Config.Policy, Raw + 1, Config.LfsrWidth);
}

std::array<bool, FreqCode::NumValues> BrrUnit::andOutputs() const {
  std::array<bool, FreqCode::NumValues> Outputs;
  uint64_t State = Register.state();
  for (unsigned Raw = 0; Raw != FreqCode::NumValues; ++Raw)
    Outputs[Raw] = (State & AndMasks[Raw]) == AndMasks[Raw];
  return Outputs;
}

DeterministicBrrUnit::DeterministicBrrUnit(const BrrUnitConfig &Config,
                                           unsigned MaxInFlight)
    : BrrUnit(Config), MaxInFlight(MaxInFlight) {
  assert(MaxInFlight > 0 && "need room for at least one in-flight brr");
}

bool DeterministicBrrUnit::evaluate(FreqCode Freq) {
  uint64_t Mask = andMaskFor(Freq);
  bool Taken = (lfsr().state() & Mask) == Mask;
  assert(History.size() < MaxInFlight &&
         "more speculative brrs in flight than the recovery buffer holds; "
         "retire or squash first");
  History.push_back(clockLfsr());
  return Taken;
}

void DeterministicBrrUnit::squashYoungest(unsigned N) {
  assert(N <= History.size() && "squashing more brrs than are in flight");
  for (unsigned I = 0; I != N; ++I) {
    lfsr().stepBack(History.back());
    History.pop_back();
  }
}

void DeterministicBrrUnit::retireOldest(unsigned N) {
  assert(N <= History.size() && "retiring more brrs than are in flight");
  History.erase(History.begin(), History.begin() + N);
}
