#include "attacks/sampling.h"

#include <gtest/gtest.h>

#include "core/watermark.h"
#include "datagen/power_law.h"

namespace freqywm {
namespace {

struct Fixture {
  Histogram watermarked;
  WatermarkSecrets secrets;
  size_t chosen = 0;
};

Fixture MakeFixture(uint64_t seed = 42) {
  Rng rng(seed);
  PowerLawSpec spec;
  spec.num_tokens = 200;
  spec.sample_size = 400000;
  spec.alpha = 0.5;
  Histogram original = GeneratePowerLawHistogram(spec, rng);
  GenerateOptions o;
  o.budget_percent = 2.0;
  o.modulus_bound = 131;
  o.seed = seed;
  auto r = WatermarkGenerator(o).GenerateFromHistogram(original);
  EXPECT_TRUE(r.ok());
  return {std::move(r.value().watermarked),
          std::move(r.value().report.secrets),
          r.value().report.chosen_pairs};
}

TEST(SamplingAttackHistogramTest, SampleSizeIsExact) {
  Fixture f = MakeFixture();
  Rng rng(3);
  Histogram sample = SamplingAttackHistogram(f.watermarked, 50000, rng);
  EXPECT_EQ(sample.total_count(), 50000u);
  // Sampled counts never exceed the originals.
  for (const auto& e : sample.entries()) {
    EXPECT_LE(e.count, *f.watermarked.CountOf(e.token));
  }
}

TEST(SamplingAttackHistogramTest, SampleLargerThanDataClamps) {
  Fixture f = MakeFixture(1);
  Rng rng(4);
  Histogram sample = SamplingAttackHistogram(
      f.watermarked, f.watermarked.total_count() + 999, rng);
  EXPECT_EQ(sample.total_count(), f.watermarked.total_count());
}

TEST(SamplingAttackHistogramTest, ProportionsRoughlyPreserved) {
  Fixture f = MakeFixture(2);
  Rng rng(5);
  Histogram sample =
      SamplingAttackHistogram(f.watermarked, f.watermarked.total_count() / 2,
                              rng);
  // The head token's share should be stable under 50% sampling.
  double orig_share = static_cast<double>(f.watermarked.entry(0).count) /
                      static_cast<double>(f.watermarked.total_count());
  auto c = sample.CountOf(f.watermarked.entry(0).token);
  ASSERT_TRUE(c.has_value());
  double sample_share = static_cast<double>(*c) /
                        static_cast<double>(sample.total_count());
  EXPECT_NEAR(sample_share, orig_share, orig_share * 0.1);
}

TEST(DetectOnSampleTest, LargeSampleDetectableWithModestT) {
  // §V-B: for a 20% sample and small t the watermark survives.
  Fixture f = MakeFixture(3);
  Rng rng(6);
  Histogram sample = SamplingAttackHistogram(
      f.watermarked, f.watermarked.total_count() / 5, rng);
  DetectOptions d;
  d.pair_threshold = 10;
  d.min_pairs = std::max<size_t>(1, f.chosen / 2);
  DetectResult r =
      DetectOnSample(sample, f.watermarked.total_count(), f.secrets, d);
  EXPECT_TRUE(r.accepted);
  EXPECT_GT(r.verified_fraction, 0.5);
}

TEST(DetectOnSampleTest, ThresholdZeroDegradesOnSample) {
  // Rescaled counts carry rounding noise, so t = 0 verifies far fewer
  // pairs than a relaxed t — the trade-off shown in §V-B.
  Fixture f = MakeFixture(4);
  Rng rng(7);
  Histogram sample = SamplingAttackHistogram(
      f.watermarked, f.watermarked.total_count() / 5, rng);
  DetectOptions strict;
  strict.pair_threshold = 0;
  strict.min_pairs = 1;
  DetectOptions relaxed = strict;
  relaxed.pair_threshold = 10;
  DetectResult rs =
      DetectOnSample(sample, f.watermarked.total_count(), f.secrets, strict);
  DetectResult rr =
      DetectOnSample(sample, f.watermarked.total_count(), f.secrets, relaxed);
  EXPECT_LE(rs.pairs_verified, rr.pairs_verified);
  EXPECT_GT(rr.verified_fraction, 0.5);
}

TEST(DetectOnSampleTest, TinySampleLosesTokensAndDetection) {
  // Fig. 4's mechanism: below ~1 row per distinct token the sample no
  // longer even contains the watermarked pairs.
  Fixture f = MakeFixture(5);
  Rng rng(8);
  Histogram tiny = SamplingAttackHistogram(f.watermarked, 100, rng);
  EXPECT_LT(tiny.num_tokens(), f.watermarked.num_tokens());
  DetectOptions d;
  d.pair_threshold = 10;
  d.min_pairs = std::max<size_t>(1, f.chosen / 2);
  DetectResult r =
      DetectOnSample(tiny, f.watermarked.total_count(), f.secrets, d);
  EXPECT_LT(r.pairs_found, f.chosen);
}

TEST(DetectOnSampleTest, FullSampleBehavesLikeNoAttack) {
  Fixture f = MakeFixture(6);
  Rng rng(9);
  Histogram full = SamplingAttackHistogram(
      f.watermarked, f.watermarked.total_count(), rng);
  DetectOptions d;
  d.pair_threshold = 0;
  d.min_pairs = f.chosen;
  DetectResult r =
      DetectOnSample(full, f.watermarked.total_count(), f.secrets, d);
  EXPECT_TRUE(r.accepted);
  EXPECT_EQ(r.pairs_verified, f.chosen);
}

}  // namespace
}  // namespace freqywm
