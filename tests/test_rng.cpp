//===- tests/test_rng.cpp - Workload-synthesis RNG tests ------------------===//

#include "support/Rng.h"

#include "profile/TraceGen.h"
#include "workloads/AppGen.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <set>
#include <utility>

using namespace bor;

TEST(SplitMix64, IsDeterministic) {
  SplitMix64 A(42), B(42);
  for (int I = 0; I != 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(SplitMix64, DifferentSeedsDiverge) {
  SplitMix64 A(1), B(2);
  EXPECT_NE(A.next(), B.next());
}

TEST(SplitMix64, ZeroSeedProducesNonzeroStream) {
  SplitMix64 G(0);
  bool SawNonzero = false;
  for (int I = 0; I != 10; ++I)
    SawNonzero |= G.next() != 0;
  EXPECT_TRUE(SawNonzero);
}

TEST(Xoshiro256, IsDeterministic) {
  Xoshiro256 A(7), B(7);
  for (int I = 0; I != 1000; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(Xoshiro256, DoubleInUnitInterval) {
  Xoshiro256 G(9);
  for (int I = 0; I != 10000; ++I) {
    double D = G.nextDouble();
    EXPECT_GE(D, 0.0);
    EXPECT_LT(D, 1.0);
  }
}

TEST(Xoshiro256, DoubleMeanIsNearHalf) {
  Xoshiro256 G(11);
  double Sum = 0;
  const int N = 100000;
  for (int I = 0; I != N; ++I)
    Sum += G.nextDouble();
  EXPECT_NEAR(Sum / N, 0.5, 0.01);
}

TEST(Xoshiro256, NextBelowRespectsBound) {
  Xoshiro256 G(13);
  for (uint64_t Bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int I = 0; I != 1000; ++I)
      EXPECT_LT(G.nextBelow(Bound), Bound);
  }
}

TEST(Xoshiro256, NextBelowCoversAllResidues) {
  Xoshiro256 G(17);
  std::set<uint64_t> Seen;
  for (int I = 0; I != 1000; ++I)
    Seen.insert(G.nextBelow(7));
  EXPECT_EQ(Seen.size(), 7u);
}

TEST(Xoshiro256, NextBoolEdgeProbabilities) {
  Xoshiro256 G(19);
  for (int I = 0; I != 100; ++I) {
    EXPECT_FALSE(G.nextBool(0.0));
    EXPECT_TRUE(G.nextBool(1.0));
    EXPECT_FALSE(G.nextBool(-1.0));
    EXPECT_TRUE(G.nextBool(2.0));
  }
}

TEST(Xoshiro256, NextBoolRateMatches) {
  Xoshiro256 G(23);
  int Hits = 0;
  const int N = 100000;
  for (int I = 0; I != N; ++I)
    Hits += G.nextBool(0.25);
  EXPECT_NEAR(static_cast<double>(Hits) / N, 0.25, 0.01);
}

TEST(ZipfSampler, ProbabilitiesSumToOne) {
  ZipfSampler Z(100, 1.0);
  double Sum = 0;
  for (size_t K = 0; K != Z.size(); ++K)
    Sum += Z.probability(K);
  EXPECT_NEAR(Sum, 1.0, 1e-9);
}

TEST(ZipfSampler, RankZeroIsHottest) {
  ZipfSampler Z(50, 1.2);
  for (size_t K = 1; K != Z.size(); ++K)
    EXPECT_GT(Z.probability(0), Z.probability(K));
}

TEST(ZipfSampler, ProbabilityDecreasesMonotonically) {
  ZipfSampler Z(64, 0.8);
  for (size_t K = 1; K != Z.size(); ++K)
    EXPECT_GE(Z.probability(K - 1), Z.probability(K));
}

TEST(ZipfSampler, EmpiricalMatchesAnalytic) {
  ZipfSampler Z(20, 1.0);
  Xoshiro256 G(31);
  std::vector<uint64_t> Counts(20, 0);
  const int N = 200000;
  for (int I = 0; I != N; ++I)
    ++Counts[Z.sample(G)];
  for (size_t K = 0; K != 20; ++K) {
    double Emp = static_cast<double>(Counts[K]) / N;
    EXPECT_NEAR(Emp, Z.probability(K), 0.01) << "rank " << K;
  }
}

TEST(ZipfSampler, SkewZeroIsUniform) {
  ZipfSampler Z(10, 0.0);
  for (size_t K = 0; K != 10; ++K)
    EXPECT_NEAR(Z.probability(K), 0.1, 1e-9);
}

TEST(ZipfSampler, SingleRankAlwaysSampled) {
  ZipfSampler Z(1, 1.0);
  Xoshiro256 G(37);
  for (int I = 0; I != 100; ++I)
    EXPECT_EQ(Z.sample(G), 0u);
}

//===----------------------------------------------------------------------===//
// Exactness of the inlined draws and the guide-table sampler against
// reference copies of the binary-search and modulo forms they replaced.
//===----------------------------------------------------------------------===//

namespace {

/// The sampler as it was before the guide table: the same CDF, searched
/// with std::lower_bound, clamped to the last rank.
class ReferenceZipf {
public:
  ReferenceZipf(size_t N, double S) : Cdf(N) {
    double Sum = 0.0;
    for (size_t K = 0; K != N; ++K) {
      Sum += 1.0 / std::pow(static_cast<double>(K + 1), S);
      Cdf[K] = Sum;
    }
    for (double &V : Cdf)
      V /= Sum;
    Cdf.back() = 1.0;
  }

  size_t rankFor(double U) const {
    auto It = std::lower_bound(Cdf.begin(), Cdf.end(), U);
    if (It == Cdf.end())
      return Cdf.size() - 1;
    return static_cast<size_t>(It - Cdf.begin());
  }

  const std::vector<double> &cdf() const { return Cdf; }

private:
  std::vector<double> Cdf;
};

/// Every (N, S) a generator in the library builds a ZipfSampler with, plus
/// the degenerate single rank and the uniform skew.
std::vector<std::pair<size_t, double>> zipfShapesInUse() {
  std::vector<std::pair<size_t, double>> Shapes = {
      {10, 0.9}, // TextGen's word lengths
      {1, 1.0},
      {1, 0.0},
      {400, 0.0},
      {AppConfig().NumMethods, AppConfig().ZipfSkew}};
  for (const BenchmarkModel &M : dacapoAnalogues())
    Shapes.push_back({M.NumMethods, M.ZipfSkew});
  for (const AppConfig &A : dacapoAppAnalogues())
    Shapes.push_back({A.NumMethods, A.ZipfSkew});
  return Shapes;
}

/// The draws worth checking for a CDF: 0, the largest nextDouble() value,
/// every CDF value and its two neighbours, and every edge j / 2^k of any
/// power-of-two bucket count up to twice the guide table's, with the
/// double just below it.
std::vector<double> zipfEdgeDraws(const std::vector<double> &Cdf) {
  std::vector<double> Us = {0.0, 1.0 - 0x1.0p-53};
  for (double C : Cdf)
    for (double U : {std::nextafter(C, 0.0), C, std::nextafter(C, 2.0)})
      if (U < 1.0)
        Us.push_back(U);
  size_t Buckets = 2 * std::bit_ceil(4 * Cdf.size());
  for (size_t J = 1; J != Buckets; ++J) {
    double Edge = static_cast<double>(J) / static_cast<double>(Buckets);
    Us.push_back(Edge);
    Us.push_back(std::nextafter(Edge, 0.0));
  }
  return Us;
}

/// nextBelow as it was before it moved into the header.
uint64_t referenceNextBelow(Xoshiro256 &Rng, uint64_t Bound) {
  uint64_t Threshold = (0 - Bound) % Bound;
  for (;;) {
    uint64_t R = Rng.next();
    if (R >= Threshold)
      return R % Bound;
  }
}

} // namespace

TEST(Xoshiro256, KnownAnswers) {
  // The generator's first outputs for one seed, and a hash of the next
  // thousand, as the out-of-line implementation produced them.
  Xoshiro256 G(0x5eed);
  EXPECT_EQ(G.next(), 0xef33f17055244b74ULL);
  EXPECT_EQ(G.next(), 0xe1f591112fb5051bULL);
  EXPECT_EQ(G.next(), 0xd8ab05640214863aULL);
  EXPECT_EQ(G.next(), 0xf985e1f2fb897b03ULL);
  Xoshiro256 H(0x5eed);
  uint64_t Hash = 0;
  for (int I = 0; I != 1000; ++I)
    Hash = Hash * 31 + H.next();
  EXPECT_EQ(Hash, 14749839984924428148ULL);
}

TEST(Xoshiro256, NextDoubleIsTheTop53Bits) {
  Xoshiro256 A(41), B(41);
  for (int I = 0; I != 10000; ++I)
    ASSERT_EQ(A.nextDouble(),
              static_cast<double>(B.next() >> 11) * 0x1.0p-53);
}

TEST(Xoshiro256, NextBelowConstantBoundsMatchReference) {
  // Literal bounds, as generateText and InvocationStream pass them, let the
  // compiler fold both divisions into multiplies; the draws must not move.
  Xoshiro256 A(43), B(43);
  for (int I = 0; I != 100000; ++I) {
    ASSERT_EQ(A.nextBelow(26), referenceNextBelow(B, 26));
    ASSERT_EQ(A.nextBelow(12), referenceNextBelow(B, 12));
    ASSERT_EQ(A.nextBelow(16), referenceNextBelow(B, 16));
    ASSERT_EQ(A.nextBelow(1800), referenceNextBelow(B, 1800));
  }
}

TEST(Xoshiro256, NextBelowRuntimeBoundsMatchReference) {
  // Bound 1 never rejects; 2^63 + 1 rejects about half of all draws.
  std::vector<uint64_t> Bounds = {1, (1ULL << 63) + 1};
  Xoshiro256 A(47), B(47);
  for (int I = 0; I != 100000; ++I)
    for (uint64_t Bound : Bounds)
      ASSERT_EQ(A.nextBelow(Bound), referenceNextBelow(B, Bound))
          << "bound " << Bound;
}

TEST(ZipfSampler, RankForMatchesLowerBoundAtEveryEdge) {
  for (auto [N, S] : zipfShapesInUse()) {
    ZipfSampler Z(N, S);
    ReferenceZipf Ref(N, S);
    for (double U : zipfEdgeDraws(Ref.cdf()))
      ASSERT_EQ(Z.rankFor(U), Ref.rankFor(U))
          << "N=" << N << " S=" << S << " U=" << U;
  }
}

TEST(ZipfSampler, RankForMatchesLowerBoundOnRandomDraws) {
  for (auto [N, S] : zipfShapesInUse()) {
    ZipfSampler Z(N, S);
    ReferenceZipf Ref(N, S);
    Xoshiro256 G(N * 1000 + static_cast<uint64_t>(S * 10));
    for (int I = 0; I != 1000000; ++I) {
      double U = G.nextDouble();
      ASSERT_EQ(Z.rankFor(U), Ref.rankFor(U))
          << "N=" << N << " S=" << S << " U=" << U;
    }
  }
}

TEST(ZipfSampler, SampleIsRankForOfOneDraw) {
  ZipfSampler Z(400, 1.2);
  Xoshiro256 A(53), B(53);
  for (int I = 0; I != 10000; ++I)
    ASSERT_EQ(Z.sample(A), Z.rankFor(B.nextDouble()));
  EXPECT_EQ(A.next(), B.next());
}
