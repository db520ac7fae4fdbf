//===- workloads/TextGen.h - Synthetic character-stream generator --------===//
//
// Part of the branch-on-random reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The microbenchmark of Section 5.3 processes half a million characters of
/// Shakespearian plays, whose "words that are all upper-case or all
/// lower-case" give the character-class branches their ~84.5% baseline
/// prediction accuracy. This generator synthesizes text with the same
/// statistical structure: words of Zipf-ish length, each word uniformly
/// upper- or lower-case, with spaces, punctuation and digits mixed in.
///
//===----------------------------------------------------------------------===//

#ifndef BOR_WORKLOADS_TEXTGEN_H
#define BOR_WORKLOADS_TEXTGEN_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace bor {

struct TextConfig {
  size_t NumChars = 500000;
  /// Probability that a word is all upper-case (stage directions, speaker
  /// names and emphatic lines in the plays).
  double UpperWordProb = 0.22;
  /// Probability that a separator position carries punctuation or a digit
  /// instead of a space.
  double OtherCharProb = 0.25;
  uint64_t Seed = 0x5eaf00d;
};

/// Character-class statistics of a generated text.
struct TextStats {
  uint64_t Upper = 0;
  uint64_t Lower = 0;
  uint64_t Other = 0;
};

/// Returns the text for \p Config. The text is a pure function of its
/// config, so each distinct config is generated once per process: the
/// first call builds it, and every later call, from any thread, returns a
/// reference to the same bytes. The memo is keyed on every TextConfig
/// field (the two probabilities by their bit patterns), lives until the
/// process exits and is never evicted, so each distinct config keeps its
/// NumChars bytes for the rest of the run. The workloads.text.built and
/// workloads.text.reused counters count the two outcomes.
const std::vector<uint8_t> &generateText(const TextConfig &Config);

TextStats classifyText(const std::vector<uint8_t> &Text);

} // namespace bor

#endif // BOR_WORKLOADS_TEXTGEN_H
