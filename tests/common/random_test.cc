#include "common/random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

namespace freqywm {
namespace {

TEST(SplitMix64Test, KnownSequenceIsDeterministic) {
  SplitMix64 a(123);
  SplitMix64 b(123);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(SplitMix64Test, DifferentSeedsDiverge) {
  SplitMix64 a(1);
  SplitMix64 b(2);
  EXPECT_NE(a.Next(), b.Next());
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, UniformU64RespectsBound) {
  Rng rng(7);
  for (uint64_t bound : {1ull, 2ull, 3ull, 17ull, 1000ull}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.UniformU64(bound), bound);
    }
  }
}

TEST(RngTest, UniformU64BoundOneAlwaysZero) {
  Rng rng(9);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.UniformU64(1), 0u);
}

TEST(RngTest, UniformIntCoversInclusiveRange) {
  Rng rng(11);
  std::set<int64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.UniformInt(-2, 2));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), -2);
  EXPECT_EQ(*seen.rbegin(), 2);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(13);
  for (int i = 0; i < 10000; ++i) {
    double d = rng.UniformDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, UniformDoubleMeanIsNearHalf) {
  Rng rng(17);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.UniformDouble();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(19);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliFrequencyMatchesProbability) {
  Rng rng(23);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(29);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(RngTest, ShuffleActuallyPermutes) {
  Rng rng(31);
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[i] = i;
  std::vector<int> orig = v;
  rng.Shuffle(v);
  EXPECT_NE(v, orig);  // astronomically unlikely to be identity
}

TEST(RngTest, SampleWithoutReplacementIsDistinctAndInRange) {
  Rng rng(37);
  auto sample = rng.SampleWithoutReplacement(50, 20);
  EXPECT_EQ(sample.size(), 20u);
  std::set<size_t> uniq(sample.begin(), sample.end());
  EXPECT_EQ(uniq.size(), 20u);
  for (size_t s : sample) EXPECT_LT(s, 50u);
}

TEST(RngTest, SampleWithoutReplacementFullUniverse) {
  Rng rng(41);
  auto sample = rng.SampleWithoutReplacement(10, 10);
  std::set<size_t> uniq(sample.begin(), sample.end());
  EXPECT_EQ(uniq.size(), 10u);
}

TEST(RngTest, SampleRequestLargerThanUniverseClamps) {
  Rng rng(43);
  auto sample = rng.SampleWithoutReplacement(5, 100);
  EXPECT_EQ(sample.size(), 5u);
}

// The stream itself, recorded from the out-of-line generator: the first
// raw outputs of Rng(42) and a UniformU64 sequence over mixed bounds
// (including ones that need Lemire's rejection step).
TEST(RngTest, StreamMatchesRecordedValues) {
  Rng a(42);
  EXPECT_EQ(a.NextU64(), 0x15780b2e0c2ec716ULL);
  EXPECT_EQ(a.NextU64(), 0x6104d9866d113a7eULL);
  EXPECT_EQ(a.NextU64(), 0xae17533239e499a1ULL);
  EXPECT_EQ(a.NextU64(), 0xecb8ad4703b360a1ULL);

  Rng b(7);
  const std::vector<std::pair<uint64_t, uint64_t>> bounded = {
      {1, 0},
      {2, 0},
      {3, 2},
      {10, 9},
      {1000, 990},
      {1ULL << 40, 959625094070ULL},
      {(1ULL << 63) + 1, 1400256439129669809ULL},
      {~0ULL, 9986469540036305302ULL}};
  for (const auto& [bound, expected] : bounded) {
    EXPECT_EQ(b.UniformU64(bound), expected) << "bound " << bound;
  }
}

/// The dense partial Fisher–Yates: swap through a full identity array.
std::vector<size_t> DenseSampleWithoutReplacement(Rng& rng, size_t universe,
                                                  size_t n) {
  std::vector<size_t> pool(universe);
  for (size_t i = 0; i < universe; ++i) pool[i] = i;
  if (n > universe) n = universe;
  for (size_t i = 0; i < n; ++i) {
    size_t j = i + static_cast<size_t>(rng.UniformU64(universe - i));
    std::swap(pool[i], pool[j]);
  }
  pool.resize(n);
  return pool;
}

TEST(RngTest, SampleWithoutReplacementMatchesDenseFisherYates) {
  for (size_t universe : {0, 1, 2, 3, 7, 64, 1000, 100000}) {
    for (size_t n : {size_t{0}, size_t{1}, universe / 2, universe,
                     universe + 5}) {
      for (uint64_t seed = 1; seed <= 3; ++seed) {
        Rng sparse_rng(seed * 1000 + universe);
        Rng dense_rng(seed * 1000 + universe);
        EXPECT_EQ(sparse_rng.SampleWithoutReplacement(universe, n),
                  DenseSampleWithoutReplacement(dense_rng, universe, n))
            << "universe " << universe << " n " << n;
        EXPECT_EQ(sparse_rng.NextU64(), dense_rng.NextU64())
            << "universe " << universe << " n " << n;
      }
    }
  }
}

// Distribution sanity: chi-square-ish check that UniformU64(10) buckets are
// roughly flat.
TEST(RngTest, UniformU64IsRoughlyUniform) {
  Rng rng(47);
  std::vector<int> buckets(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++buckets[rng.UniformU64(10)];
  for (int count : buckets) {
    EXPECT_NEAR(count, n / 10, n / 10 * 0.1);
  }
}

}  // namespace
}  // namespace freqywm
