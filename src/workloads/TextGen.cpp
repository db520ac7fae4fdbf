//===- workloads/TextGen.cpp - Synthetic character-stream generator ------===//

#include "workloads/TextGen.h"

#include "support/OncePerKey.h"
#include "support/Rng.h"
#include "telemetry/Counters.h"

#include <array>
#include <bit>

using namespace bor;

namespace {

std::vector<uint8_t> synthesize(const TextConfig &Config) {
  std::vector<uint8_t> Text;
  Text.reserve(Config.NumChars);
  Xoshiro256 Rng(Config.Seed);
  // Word lengths weighted toward short words, as in English prose.
  ZipfSampler LengthDist(10, 0.9);

  static const char Punct[] = {'.', ',', ';', '!', '?', '\'', '-',
                               '0', '1', '7', '9', '\n'};

  while (Text.size() < Config.NumChars) {
    bool Upper = Rng.nextBool(Config.UpperWordProb);
    size_t Len = 2 + LengthDist.sample(Rng);
    for (size_t I = 0; I != Len && Text.size() < Config.NumChars; ++I) {
      uint8_t Base = Upper ? 'A' : 'a';
      Text.push_back(static_cast<uint8_t>(Base + Rng.nextBelow(26)));
    }
    if (Text.size() >= Config.NumChars)
      break;
    if (Rng.nextBool(Config.OtherCharProb))
      Text.push_back(
          static_cast<uint8_t>(Punct[Rng.nextBelow(sizeof(Punct))]));
    else
      Text.push_back(' ');
  }
  return Text;
}

/// Every TextConfig field, the probabilities as their bit patterns.
using TextKey = std::array<uint64_t, 4>;
static_assert(sizeof(TextConfig) == sizeof(TextKey),
              "a new TextConfig field must join TextKey");

struct TextKeyHash {
  size_t operator()(const TextKey &K) const {
    uint64_t H = 0xcbf29ce484222325ULL;
    for (uint64_t W : K)
      H = (H ^ W) * 0x100000001b3ULL;
    return H;
  }
};

} // namespace

const std::vector<uint8_t> &bor::generateText(const TextConfig &Config) {
  // Never destroyed: a cell abandoned at --cell-timeout keeps running on a
  // detached thread and may still be using the memo as the process exits.
  static auto &Memo =
      *new OncePerKey<TextKey, std::vector<uint8_t>, TextKeyHash>();
  const TextKey Key = {Config.NumChars,
                       std::bit_cast<uint64_t>(Config.UpperWordProb),
                       std::bit_cast<uint64_t>(Config.OtherCharProb),
                       Config.Seed};
  bool Built = false;
  const std::vector<uint8_t> &Text = Memo.getOrBuild(Key, [&] {
    Built = true;
    return synthesize(Config);
  });
  if (telemetry::CounterRegistry::enabled()) {
    static const telemetry::Counter Generated("workloads.text.built");
    static const telemetry::Counter Reused("workloads.text.reused");
    (Built ? Generated : Reused).add();
  }
  return Text;
}

TextStats bor::classifyText(const std::vector<uint8_t> &Text) {
  TextStats S;
  for (uint8_t C : Text) {
    if (C >= 'A' && C <= 'Z')
      ++S.Upper;
    else if (C >= 'a' && C <= 'z')
      ++S.Lower;
    else
      ++S.Other;
  }
  return S;
}
