#include "crypto/pair_modulus.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

namespace freqywm {
namespace {

TEST(PairModulusTest, DeterministicForFixedSecret) {
  WatermarkSecret s = GenerateSecret(256, 11);
  PairModulus pm(s, 1031);
  EXPECT_EQ(pm.Compute("youtube.com", "instagram.com"),
            pm.Compute("youtube.com", "instagram.com"));
}

TEST(PairModulusTest, ResultBelowZ) {
  WatermarkSecret s = GenerateSecret(256, 13);
  for (uint64_t z : {2ull, 10ull, 131ull, 1031ull}) {
    PairModulus pm(s, z);
    for (int i = 0; i < 50; ++i) {
      uint64_t v = pm.Compute("tk" + std::to_string(i), "tk_other");
      EXPECT_LT(v, z);
    }
  }
}

TEST(PairModulusTest, AsymmetricInPairOrder) {
  // The derivation H(tk_i || H(R || tk_j)) is intentionally ordered.
  WatermarkSecret s = GenerateSecret(256, 17);
  PairModulus pm(s, 1000003);
  EXPECT_NE(pm.Compute("alpha", "beta"), pm.Compute("beta", "alpha"));
}

TEST(PairModulusTest, DifferentSecretsGiveDifferentModuli) {
  PairModulus a(GenerateSecret(256, 1), 1000003);
  PairModulus b(GenerateSecret(256, 2), 1000003);
  int differing = 0;
  for (int i = 0; i < 20; ++i) {
    std::string ti = "tk" + std::to_string(i);
    if (a.Compute(ti, "x") != b.Compute(ti, "x")) ++differing;
  }
  EXPECT_GT(differing, 15);  // collisions should be rare
}

TEST(PairModulusTest, InnerDigestCacheMatchesDirectComputation) {
  WatermarkSecret s = GenerateSecret(256, 19);
  PairModulus pm(s, 131);
  Sha256::Digest inner = pm.InnerDigest("facebook.com");
  for (const char* ti : {"youtube.com", "bbc.com", "cnn.com"}) {
    EXPECT_EQ(pm.ComputeWithInner(ti, inner), pm.Compute(ti, "facebook.com"));
  }
}

TEST(PairModulusTest, OuterStateReduceMatchesComputeWithInner) {
  // The pre-padded path of the O(n^2) scan: one OuterState per token_i,
  // one or two bare compressions per pair, one pair at a time (`Reduce`)
  // or 16 at a time (`ReduceBatch`). Both must agree with the slower
  // derivations at every token_i length from 0 to 200, which crosses the
  // one/two-block tail edge (tail of 23 vs 24 bytes), every hole offset
  // mod 4 and the full-block midstate edges (64, 128, 192 bytes), and for
  // moduli up to 2^64 - 1. Batches start at unaligned columns and run
  // 1 to 33 columns, so every masked final batch width occurs.
  WatermarkSecret s = GenerateSecret(256, 31);
  std::vector<std::string> inner_tokens = {
      "", "youtube.com", std::string(64, 'r'), std::string(200, 'm')};
  for (int t = 0; inner_tokens.size() < 48; ++t) {
    inner_tokens.push_back("tk" + std::to_string(t * 7919));
  }
  for (uint64_t z : {2ull, 131ull, 1031ull, ~0ull}) {
    PairModulus pm(s, z);
    std::vector<Sha256::Digest> inners;
    PairModulus::InnerColumns columns(inner_tokens.size());
    for (size_t j = 0; j < inner_tokens.size(); ++j) {
      inners.push_back(pm.InnerDigest(inner_tokens[j]));
      columns.Set(j, inners.back());
    }
    for (size_t len = 0; len <= 200; ++len) {
      std::string ti(len, '\0');
      for (size_t k = 0; k < len; ++k) {
        ti[k] = static_cast<char>(k * 37 + len);
      }
      PairModulus::OuterState outer = pm.OuterFor(ti);
      std::vector<uint64_t> expected;
      for (size_t j = 0; j < inner_tokens.size(); ++j) {
        expected.push_back(outer.Reduce(inners[j]));
        if (j < 4) {
          EXPECT_EQ(expected[j], pm.ComputeWithInner(ti, inners[j]))
              << "z=" << z << " len=" << len;
          EXPECT_EQ(expected[j], pm.Compute(ti, inner_tokens[j]))
              << "z=" << z << " len=" << len;
        }
      }
      for (size_t start : {0, 1, 5, 13}) {
        for (size_t run = 1; run <= 33; ++run) {
          // The scan's loop shape: full batches, then a masked remainder.
          for (size_t p = start; p < start + run; p += 16) {
            const size_t count = std::min<size_t>(16, start + run - p);
            uint64_t batch[16];
            outer.ReduceBatch(columns, p, count, batch);
            for (size_t l = 0; l < count; ++l) {
              ASSERT_EQ(batch[l], expected[p + l])
                  << "z=" << z << " len=" << len << " start=" << start
                  << " run=" << run << " column=" << p + l;
            }
          }
        }
      }
    }
  }
}

TEST(PairModulusTest, OuterStateIsReusableAndCopyable) {
  WatermarkSecret s = GenerateSecret(256, 37);
  PairModulus pm(s, 1031);
  PairModulus::OuterState outer = pm.OuterFor("token-i");
  PairModulus::OuterState copy = outer;
  Sha256::Digest inner = pm.InnerDigest("token-j");
  // Repeated reductions (and reductions through a copy) never disturb the
  // midstate.
  for (int k = 0; k < 5; ++k) {
    EXPECT_EQ(outer.Reduce(inner), pm.Compute("token-i", "token-j"));
    EXPECT_EQ(copy.Reduce(inner), pm.Compute("token-i", "token-j"));
  }
}

TEST(PairModulusTest, ValuesLookUniformModZ) {
  // Bucket counts for s_ij over many token pairs should be roughly flat —
  // the property that makes t/s the right false-positive model.
  WatermarkSecret s = GenerateSecret(256, 23);
  const uint64_t z = 10;
  PairModulus pm(s, z);
  std::map<uint64_t, int> buckets;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    buckets[pm.Compute("a" + std::to_string(i), "b")]++;
  }
  for (const auto& [value, count] : buckets) {
    EXPECT_NEAR(count, n / static_cast<int>(z), n / static_cast<int>(z) / 2);
  }
}

TEST(PairModulusTest, TokenConcatenationIsNotAmbiguous) {
  // ("ab", "c") vs ("a", "bc") must not collide thanks to the inner hash
  // having fixed width: H(tk_i || H(R||tk_j)) separates the halves.
  WatermarkSecret s = GenerateSecret(256, 29);
  PairModulus pm(s, 1000003);
  EXPECT_NE(pm.Compute("ab", "c"), pm.Compute("a", "bc"));
}

}  // namespace
}  // namespace freqywm
