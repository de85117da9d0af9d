#include "core/detect.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "api/freqywm_scheme.h"
#include "core/watermark.h"
#include "crypto/pair_modulus.h"
#include "datagen/power_law.h"

namespace freqywm {
namespace {

struct WatermarkedFixture {
  Histogram original;
  Histogram watermarked;
  WatermarkSecrets secrets;
  size_t chosen = 0;
};

WatermarkedFixture MakeFixture(uint64_t seed = 42, uint64_t min_modulus = 2,
                               uint64_t min_pair_cost = 1) {
  Rng rng(seed);
  PowerLawSpec spec;
  spec.num_tokens = 150;
  spec.sample_size = 200000;
  spec.alpha = 0.7;
  WatermarkedFixture f;
  f.original = GeneratePowerLawHistogram(spec, rng);

  GenerateOptions o;
  o.budget_percent = 2.0;
  o.modulus_bound = 131;
  o.min_modulus = min_modulus;
  o.min_pair_cost = min_pair_cost;
  o.seed = seed;
  auto r = WatermarkGenerator(o).GenerateFromHistogram(f.original);
  EXPECT_TRUE(r.ok());
  f.watermarked = std::move(r.value().watermarked);
  f.secrets = std::move(r.value().report.secrets);
  f.chosen = r.value().report.chosen_pairs;
  return f;
}

TEST(DetectTest, AcceptsWatermarkedData) {
  WatermarkedFixture f = MakeFixture();
  DetectOptions d;
  d.pair_threshold = 0;
  d.min_pairs = f.chosen;
  DetectResult r = DetectWatermark(f.watermarked, f.secrets, d);
  EXPECT_TRUE(r.accepted);
  EXPECT_EQ(r.pairs_found, f.chosen);
  EXPECT_EQ(r.pairs_verified, f.chosen);
}

TEST(DetectTest, RejectsNonWatermarkedDataWithStrictThresholds) {
  // With the hardened modulus floor, pre-aligned ("free") pairs are rare,
  // so the owner's own original does not verify at t = 0. (Under the
  // paper's bare s >= 2 rule, cheap pairs dominate selection and the
  // original legitimately verifies many pairs — see the ablation bench.)
  WatermarkedFixture f = MakeFixture(1, /*min_modulus=*/16);
  DetectOptions d;
  d.pair_threshold = 0;
  d.min_pairs = std::max<size_t>(2, f.chosen / 2);
  DetectResult r = DetectWatermark(f.original, f.secrets, d);
  EXPECT_FALSE(r.accepted);
  EXPECT_LT(r.verified_fraction, 0.5);
}

TEST(DetectTest, FreePairsMakeOriginalPartiallyVerifyUnderPaperRule) {
  // Documents the scheme property the min_pair_cost filter exists to
  // counter: under the bare rule (min_pair_cost = 0) the cost-ascending
  // selection favours pairs that already satisfied the modular relation,
  // and those verify on the unmodified original.
  WatermarkedFixture f = MakeFixture(1, /*min_modulus=*/2,
                                     /*min_pair_cost=*/0);
  DetectOptions d;
  d.pair_threshold = 0;
  d.min_pairs = 1;
  DetectResult r = DetectWatermark(f.original, f.secrets, d);
  EXPECT_GT(r.verified_fraction, 0.2);
  EXPECT_LT(r.verified_fraction, 1.0);
}

TEST(DetectTest, WrongSecretFailsOnWatermarkedData) {
  WatermarkedFixture f = MakeFixture(2);
  WatermarkSecrets wrong = f.secrets;
  wrong.r = GenerateSecret(256, 999);  // different key, same pairs and z
  DetectOptions d;
  d.pair_threshold = 0;
  d.min_pairs = std::max<size_t>(2, f.chosen / 2);
  DetectResult r = DetectWatermark(f.watermarked, wrong, d);
  EXPECT_FALSE(r.accepted);
}

TEST(DetectTest, MissingTokensAreSkippedNotFailed) {
  WatermarkedFixture f = MakeFixture(3);
  // Remove one watermarked token entirely.
  ASSERT_FALSE(f.secrets.pairs.empty());
  Token victim = f.secrets.pairs[0].token_i;
  std::vector<HistogramEntry> entries;
  for (const auto& e : f.watermarked.entries()) {
    if (e.token != victim) entries.push_back(e);
  }
  auto reduced = Histogram::FromCounts(std::move(entries));
  ASSERT_TRUE(reduced.ok());

  DetectOptions d;
  d.pair_threshold = 0;
  d.min_pairs = 1;
  DetectResult r = DetectWatermark(reduced.value(), f.secrets, d);
  EXPECT_EQ(r.pairs_found, f.chosen - 1);
  EXPECT_EQ(r.pairs_verified, f.chosen - 1);
  EXPECT_TRUE(r.accepted);
}

TEST(DetectTest, ThresholdTToleratesSmallPerturbations) {
  WatermarkedFixture f = MakeFixture(4);
  // Nudge one token of a pair whose modulus exceeds the perturbation so
  // the residue genuinely becomes 2 (a pair with s = 2 would wrap back
  // to 0 and hide the perturbation).
  PairModulus pm(f.secrets.r, f.secrets.z);
  const SecretPair* victim = nullptr;
  for (const auto& pair : f.secrets.pairs) {
    if (pm.Compute(pair.token_i, pair.token_j) > 4) {
      victim = &pair;
      break;
    }
  }
  ASSERT_NE(victim, nullptr) << "no pair with modulus > 4 selected";
  Histogram perturbed = f.watermarked;
  ASSERT_TRUE(perturbed.AddDelta(victim->token_i, +2).ok());

  DetectOptions strict;
  strict.pair_threshold = 0;
  strict.min_pairs = f.chosen;
  EXPECT_FALSE(DetectWatermark(perturbed, f.secrets, strict).accepted);

  DetectOptions relaxed = strict;
  relaxed.pair_threshold = 2;
  EXPECT_TRUE(DetectWatermark(perturbed, f.secrets, relaxed).accepted);
}

TEST(DetectTest, SymmetricResidueCatchesDownwardPerturbation) {
  WatermarkedFixture f = MakeFixture(5);
  // Perturb downward: residue becomes s - 1 which one-sided t=1 misses.
  // The victim pair needs s > 3 so that s - 1 > t.
  PairModulus pm(f.secrets.r, f.secrets.z);
  const SecretPair* victim = nullptr;
  for (const auto& pair : f.secrets.pairs) {
    if (pm.Compute(pair.token_i, pair.token_j) > 3) {
      victim = &pair;
      break;
    }
  }
  ASSERT_NE(victim, nullptr);
  Histogram perturbed = f.watermarked;
  ASSERT_TRUE(perturbed.AddDelta(victim->token_i, -1).ok());

  DetectOptions one_sided;
  one_sided.pair_threshold = 1;
  one_sided.min_pairs = f.chosen;
  DetectResult r1 = DetectWatermark(perturbed, f.secrets, one_sided);
  EXPECT_FALSE(r1.accepted);

  DetectOptions symmetric = one_sided;
  symmetric.symmetric_residue = true;
  DetectResult r2 = DetectWatermark(perturbed, f.secrets, symmetric);
  EXPECT_TRUE(r2.accepted);
}

TEST(DetectTest, KThresholdControlsAcceptance) {
  WatermarkedFixture f = MakeFixture(6);
  DetectOptions d;
  d.pair_threshold = 0;
  d.min_pairs = f.chosen + 1;  // more than exist
  EXPECT_FALSE(DetectWatermark(f.watermarked, f.secrets, d).accepted);
  d.min_pairs = f.chosen;
  EXPECT_TRUE(DetectWatermark(f.watermarked, f.secrets, d).accepted);
}

TEST(DetectTest, EmptySecretsNeverAccept) {
  WatermarkedFixture f = MakeFixture(7);
  WatermarkSecrets empty;
  empty.r = GenerateSecret(256, 1);
  empty.z = 131;
  DetectOptions d;
  DetectResult r = DetectWatermark(f.watermarked, empty, d);
  EXPECT_FALSE(r.accepted);
  EXPECT_EQ(r.pairs_found, 0u);
}

TEST(DetectTest, RescaleFactorRecoversScaledCounts) {
  WatermarkedFixture f = MakeFixture(8);
  // Emulate a 50% subsample exactly: halve every count (even counts only,
  // to keep the math exact).
  Histogram halved = f.watermarked;
  bool all_even = true;
  for (const auto& e : f.watermarked.entries()) {
    if (e.count % 2 != 0) {
      all_even = false;
      ASSERT_TRUE(halved.SetCount(e.token, (e.count + 1) / 2).ok());
    } else {
      ASSERT_TRUE(halved.SetCount(e.token, e.count / 2).ok());
    }
  }
  DetectOptions d;
  d.pair_threshold = all_even ? 0 : 2;
  d.min_pairs = std::max<size_t>(1, f.chosen / 2);
  d.rescale_factor = 2.0;
  DetectResult r = DetectWatermark(halved, f.secrets, d);
  EXPECT_TRUE(r.accepted);
}

// Every detection path on one suspect: the table (histogram and dense
// counts), the one-off secrets overload and the oracle must agree;
// returns the oracle.
DetectResult DetectOnEveryPath(const Histogram& suspect,
                               const WatermarkSecrets& secrets,
                               const DetectOptions& d) {
  const DetectResult reference = DetectWatermarkReference(suspect, secrets, d);
  const PairModulusTable table = PairModulusTable::Build(secrets);
  std::vector<uint32_t> ids(table.tokens().size());
  std::vector<uint64_t> counts(ids.size(), 0);
  std::vector<uint8_t> present(ids.size(), 0);
  for (size_t t = 0; t < ids.size(); ++t) {
    ids[t] = static_cast<uint32_t>(t);
    const auto count = suspect.CountOf(table.tokens()[t]);
    counts[t] = count.value_or(0);
    present[t] = count.has_value();
  }
  EXPECT_TRUE(DetectWatermark(suspect, table, d) == reference);
  EXPECT_TRUE(DetectWatermark(table, ids.data(), counts.data(),
                              present.data(), d) == reference);
  EXPECT_TRUE(DetectWatermark(suspect, secrets, d) == reference);
  return reference;
}

TEST(DetectTest, RescaledCountsPastInt64NeverVerify) {
  // With factor 6e18, a count of 2 or 3 scales past 2^63, where llround
  // has no result; a count of 1 scales to 6e18, still in range.
  WatermarkSecrets secrets;
  secrets.r = GenerateSecret(256, 17);
  secrets.z = 131;
  secrets.pairs = {{"a", "b"}, {"c", "d"}, {"e", "f"}};
  auto suspect = Histogram::FromCounts(
      {{"a", 2}, {"b", 1}, {"c", 3}, {"d", 2}, {"e", 1}, {"f", 1}});
  ASSERT_TRUE(suspect.ok());

  for (double factor : {6e18, std::numeric_limits<double>::infinity()}) {
    for (uint64_t threshold : {uint64_t{0}, ~uint64_t{0}}) {
      for (bool symmetric : {false, true}) {
        DetectOptions d;
        d.rescale_factor = factor;
        d.pair_threshold = threshold;
        d.symmetric_residue = symmetric;
        d.min_pairs = 2;
        const DetectResult r = DetectOnEveryPath(suspect.value(), secrets, d);
        // Every pair is found. Only (e, f), two in-range equal counts,
        // may verify; both overflowed counts of (c, d) must not.
        EXPECT_EQ(r.pairs_found, 3u);
        EXPECT_EQ(r.pairs_verified, factor == 6e18 ? 1u : 0u);
        EXPECT_FALSE(r.accepted);
      }
    }
  }
}

TEST(DetectTest, UnitRescaleEqualsIntegerPathForAnyModulus) {
  // z = 2^64 - 1 draws moduli past 2^63; a rescale by 1 must still give
  // the exact integer residue.
  WatermarkSecrets secrets;
  secrets.r = GenerateSecret(256, 18);
  secrets.z = ~uint64_t{0};
  std::vector<HistogramEntry> entries;
  for (uint64_t k = 0; k < 16; ++k) {
    const std::string i = "i" + std::to_string(k);
    const std::string j = "j" + std::to_string(k);
    secrets.pairs.push_back({i, j});
    entries.push_back({i, 1000 + 37 * k});
    entries.push_back({j, 1500 - 29 * k});
  }
  auto suspect = Histogram::FromCounts(std::move(entries));
  ASSERT_TRUE(suspect.ok());

  for (uint64_t threshold : {uint64_t{0}, uint64_t{1} << 40}) {
    DetectOptions d;
    d.pair_threshold = threshold;
    d.symmetric_residue = true;
    const DetectResult integer = DetectOnEveryPath(suspect.value(), secrets, d);
    // Each |ci - cj| is below 600, far under any such modulus: the
    // symmetric residue test passes every pair iff it tolerates 600.
    EXPECT_EQ(integer.pairs_verified, threshold == 0 ? 0u : 16u);
    d.rescale_factor = 1.0;
    EXPECT_TRUE(DetectOnEveryPath(suspect.value(), secrets, d) == integer);
  }
}

// Soundness: a forged key of self-pairs used to verify on any data, since
// f_a - f_a = 0 is divisible by every modulus (100/100 pairs with k = 50).
// The key now fails to parse, and an unparsable key rejects every suspect.
TEST(DetectTest, ForgedSelfPairKeyIsRejected) {
  auto suspect = Histogram::FromCounts(
      {{"a", 500}, {"b", 300}, {"c", 7}});
  ASSERT_TRUE(suspect.ok());
  for (uint64_t seed : {1, 2, 3}) {
    WatermarkSecrets forged;
    forged.r = GenerateSecret(256, seed);
    forged.z = 131;
    forged.pairs.assign(100, SecretPair{"a", "a"});
    const SchemeKey key{"freqywm", forged.Serialize()};
    FreqyWmScheme scheme;
    const DetectOptions options = scheme.RecommendedDetectOptions(key);
    DetectResult result = scheme.Detect(suspect.value(), key, options);
    EXPECT_FALSE(result.accepted) << "seed " << seed;
    EXPECT_EQ(result.pairs_verified, 0u) << "seed " << seed;
  }
}

}  // namespace
}  // namespace freqywm
