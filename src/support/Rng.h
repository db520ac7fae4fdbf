//===- support/Rng.h - Deterministic RNG for workload synthesis ----------===//
//
// Part of the branch-on-random reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic pseudo-random number generators used to *synthesize
/// workloads* (text, call traces, program shapes). These are deliberately
/// separate from the LFSR in src/lfsr/: the LFSR models the proposed
/// hardware, whereas these generators model the environment the hardware is
/// evaluated in. Keeping them apart ensures experiments never accidentally
/// correlate the workload with the sampling hardware.
///
//===----------------------------------------------------------------------===//

#ifndef BOR_SUPPORT_RNG_H
#define BOR_SUPPORT_RNG_H

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace bor {

/// SplitMix64: tiny, fast generator mainly used to seed Xoshiro256 and to
/// derive independent sub-streams from a single experiment seed.
class SplitMix64 {
public:
  explicit SplitMix64(uint64_t Seed) : State(Seed) {}

  uint64_t next();

private:
  uint64_t State;
};

/// Xoshiro256**: the workhorse generator for workload synthesis. Seeded via
/// SplitMix64 so that any 64-bit seed yields a well-mixed state.
///
/// The draw functions are defined here so that they inline into the
/// generators; a constant bound passed to nextBelow() then turns its two
/// 64-bit divisions into multiplies.
class Xoshiro256 {
public:
  explicit Xoshiro256(uint64_t Seed);

  uint64_t next() {
    uint64_t Result = std::rotl(State[1] * 5, 7) * 9;
    uint64_t T = State[1] << 17;
    State[2] ^= State[0];
    State[3] ^= State[1];
    State[1] ^= State[2];
    State[0] ^= State[3];
    State[2] ^= T;
    State[3] = std::rotl(State[3], 45);
    return Result;
  }

  /// Returns a uniform double in [0, 1): the 53 high bits, scaled.
  double nextDouble() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Returns a uniform integer in [0, Bound). \p Bound must be nonzero.
  uint64_t nextBelow(uint64_t Bound) {
    assert(Bound != 0 && "nextBelow requires a nonzero bound");
    // Rejection sampling to avoid modulo bias; the retry probability is
    // negligible for the bounds used in workload synthesis.
    uint64_t Threshold = (0 - Bound) % Bound;
    for (;;) {
      uint64_t R = next();
      if (R >= Threshold)
        return R % Bound;
    }
  }

  /// Returns true with probability \p P (clamped to [0, 1]).
  bool nextBool(double P) {
    if (P <= 0.0)
      return false;
    if (P >= 1.0)
      return true;
    return nextDouble() < P;
  }

private:
  uint64_t State[4];
};

/// Samples from a Zipf distribution over ranks {0, ..., N-1} with skew
/// parameter S (probability of rank k proportional to 1/(k+1)^S). Used to
/// model hot-method distributions in synthetic managed-runtime workloads.
///
/// A draw U maps to the first rank whose CDF value is at least U, the rank
/// std::lower_bound would find, in expected O(1) time through a guide table
/// (Chen and Asau's indexed search). The table has M entries, M the
/// smallest power of two >= 4N, and entry j holds the rank for U = j/M.
/// For any U in [j/M, (j+1)/M), j = floor(U * M) is exact (M is a power of
/// two), and every rank below entry j has a CDF value < j/M <= U, so
/// scanning up from entry j while the CDF is below U stops at exactly the
/// lower_bound rank, usually without a step. An alias table would be O(1)
/// too, but it maps draws to different ranks.
class ZipfSampler {
public:
  ZipfSampler(size_t N, double S);

  size_t sample(Xoshiro256 &Rng) const { return rankFor(Rng.nextDouble()); }

  /// The rank a uniform draw \p U in [0, 1) maps to.
  size_t rankFor(double U) const {
    assert(U >= 0.0 && U < 1.0 && "Zipf draw outside [0, 1)");
    size_t K = Guide[static_cast<size_t>(U * GuideScale)];
    // The bound is lower_bound's clamp to the last rank; Cdf.back() is 1.0,
    // so a draw below 1 stops the scan there anyway.
    while (K != Last && Cdf[K] < U)
      ++K;
    return K;
  }

  /// Exact probability of rank \p K under this distribution.
  double probability(size_t K) const;

  size_t size() const { return Cdf.size(); }

private:
  std::vector<double> Cdf;
  std::vector<uint32_t> Guide; ///< Guide[j]: the rank for U = j / M.
  double GuideScale = 0.0;     ///< M, as a double.
  size_t Last = 0;             ///< N - 1.
};

} // namespace bor

#endif // BOR_SUPPORT_RNG_H
