#include "crypto/pair_modulus.h"

#include <gtest/gtest.h>

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
  // one or two bare compressions per pair. It must agree with both slower
  // derivations at every token_i length from 0 to 200, which crosses the
  // one/two-block tail edge (tail of 23 vs 24 bytes) and the full-block
  // midstate edges (64, 128, 192 bytes), and for moduli up to 2^64 - 1.
  WatermarkSecret s = GenerateSecret(256, 31);
  const std::vector<std::string> inner_tokens = {
      "", "youtube.com", std::string(64, 'r'), std::string(200, 'm')};
  for (uint64_t z : {2ull, 131ull, 1031ull, ~0ull}) {
    PairModulus pm(s, z);
    std::vector<Sha256::Digest> inners;
    for (const std::string& tj : inner_tokens) {
      inners.push_back(pm.InnerDigest(tj));
    }
    for (size_t len = 0; len <= 200; ++len) {
      std::string ti(len, '\0');
      for (size_t k = 0; k < len; ++k) {
        ti[k] = static_cast<char>(k * 37 + len);
      }
      PairModulus::OuterState outer = pm.OuterFor(ti);
      for (size_t j = 0; j < inner_tokens.size(); ++j) {
        EXPECT_EQ(outer.Reduce(inners[j]), pm.ComputeWithInner(ti, inners[j]))
            << "z=" << z << " len=" << len;
        EXPECT_EQ(outer.Reduce(inners[j]), pm.Compute(ti, inner_tokens[j]))
            << "z=" << z << " len=" << len;
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
