//===- support/Rng.cpp - Deterministic RNG for workload synthesis --------===//

#include "support/Rng.h"

#include <cmath>

using namespace bor;

uint64_t SplitMix64::next() {
  uint64_t Z = (State += 0x9e3779b97f4a7c15ULL);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

Xoshiro256::Xoshiro256(uint64_t Seed) {
  SplitMix64 Seeder(Seed);
  for (uint64_t &Word : State)
    Word = Seeder.next();
}

ZipfSampler::ZipfSampler(size_t N, double S) {
  assert(N > 0 && "Zipf distribution needs at least one rank");
  Cdf.resize(N);
  double Sum = 0.0;
  for (size_t K = 0; K != N; ++K) {
    Sum += 1.0 / std::pow(static_cast<double>(K + 1), S);
    Cdf[K] = Sum;
  }
  for (double &V : Cdf)
    V /= Sum;
  Cdf.back() = 1.0;
  Last = N - 1;

  // Guide[j] = lower_bound(Cdf, j / M). j / M is exact and below 1.0, the
  // last CDF value, so the walk never runs off the end.
  assert(N <= UINT32_MAX && "Zipf guide table holds 32-bit ranks");
  size_t M = std::bit_ceil(4 * N);
  GuideScale = static_cast<double>(M);
  Guide.resize(M);
  size_t K = 0;
  for (size_t J = 0; J != M; ++J) {
    double Edge = static_cast<double>(J) / GuideScale;
    while (Cdf[K] < Edge)
      ++K;
    Guide[J] = static_cast<uint32_t>(K);
  }
}

double ZipfSampler::probability(size_t K) const {
  assert(K < Cdf.size() && "rank out of range");
  if (K == 0)
    return Cdf[0];
  return Cdf[K] - Cdf[K - 1];
}
