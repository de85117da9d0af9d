#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <string>

#include "core/detect.h"
#include "core/secrets.h"
#include "core/watermark.h"
#include "datagen/power_law.h"
#include "datagen/real_world.h"
#include "stats/rank.h"
#include "stats/similarity.h"

namespace freqywm {
namespace {

// Full owner workflow across every (strategy, eligibility, metric)
// combination: generate -> serialize secrets -> reload -> detect.
struct PipelineCase {
  SelectionStrategy strategy;
  EligibilityRule rule;
  SimilarityMetric metric;
};

// Prints the case as its test-name suffix, e.g. "greedy_strict_l1".
void PrintTo(const PipelineCase& c, std::ostream* os) {
  const char* const kStrategies[] = {"optimal", "greedy", "random"};
  const char* const kRules[] = {"paper", "strict"};
  const char* const kMetrics[] = {"cosine", "l1", "minmax"};
  *os << kStrategies[static_cast<int>(c.strategy)] << '_';
  *os << kRules[static_cast<int>(c.rule)] << '_';
  *os << kMetrics[static_cast<int>(c.metric)];
}

class PipelineTest : public ::testing::TestWithParam<PipelineCase> {};

TEST_P(PipelineTest, GenerateSerializeReloadDetect) {
  const PipelineCase& param = GetParam();
  Rng rng(101);
  PowerLawSpec spec;
  spec.num_tokens = 120;
  spec.sample_size = 150000;
  spec.alpha = 0.7;
  Histogram original = GeneratePowerLawHistogram(spec, rng);

  GenerateOptions o;
  o.budget_percent = 2.0;
  o.modulus_bound = 131;
  o.strategy = param.strategy;
  o.eligibility = param.rule;
  o.metric = param.metric;
  o.seed = 1234;

  auto r = WatermarkGenerator(o).GenerateFromHistogram(original);
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_GT(r.value().report.chosen_pairs, 0u);

  // Constraints hold regardless of configuration.
  EXPECT_TRUE(r.value().watermarked.IsSortedDescending());
  EXPECT_GE(HistogramSimilarityPercent(original, r.value().watermarked,
                                       param.metric),
            98.0);

  // Round-trip the secrets through the wire format. The file name is
  // unique per case, so cases running in parallel never share it.
  std::string path = testing::TempDir() + "/e2e_secrets_" +
                     std::to_string(static_cast<int>(param.strategy)) + "_" +
                     std::to_string(static_cast<int>(param.rule)) + "_" +
                     std::to_string(static_cast<int>(param.metric)) + ".txt";
  ASSERT_TRUE(r.value().report.secrets.SaveToFile(path).ok());
  auto reloaded = WatermarkSecrets::LoadFromFile(path);
  ASSERT_TRUE(reloaded.ok());
  std::remove(path.c_str());

  DetectOptions d;
  d.pair_threshold = 0;
  d.min_pairs = r.value().report.chosen_pairs;
  DetectResult dr =
      DetectWatermark(r.value().watermarked, reloaded.value(), d);
  EXPECT_TRUE(dr.accepted);
  EXPECT_DOUBLE_EQ(dr.verified_fraction, 1.0);

  // And the original (pre-watermark) data does NOT verify at the same k.
  DetectResult on_original =
      DetectWatermark(original, reloaded.value(), d);
  EXPECT_FALSE(on_original.accepted);
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, PipelineTest,
    ::testing::Values(
        PipelineCase{SelectionStrategy::kOptimal, EligibilityRule::kPaper,
                     SimilarityMetric::kCosine},
        PipelineCase{SelectionStrategy::kGreedy, EligibilityRule::kPaper,
                     SimilarityMetric::kCosine},
        PipelineCase{SelectionStrategy::kRandom, EligibilityRule::kPaper,
                     SimilarityMetric::kCosine},
        PipelineCase{SelectionStrategy::kOptimal,
                     EligibilityRule::kStrictHalfGap,
                     SimilarityMetric::kCosine},
        PipelineCase{SelectionStrategy::kGreedy,
                     EligibilityRule::kStrictHalfGap,
                     SimilarityMetric::kNormalizedL1},
        PipelineCase{SelectionStrategy::kOptimal, EligibilityRule::kPaper,
                     SimilarityMetric::kMinMaxRatio}),
    ::testing::PrintToStringParamName());

// Property sweep over the paper's synthetic grid: every (alpha, z) cell
// must produce a valid, detectable watermark or fail cleanly with
// ResourceExhausted (uniform case).
struct GridCase {
  double alpha;
  uint64_t z;
};

// Prints the case as its test-name suffix, e.g. "alpha0p05_z131".
void PrintTo(const GridCase& c, std::ostream* os) {
  std::string alpha = std::to_string(c.alpha);
  alpha.erase(alpha.find_last_not_of('0') + 1);
  if (alpha.back() == '.') alpha.pop_back();
  std::replace(alpha.begin(), alpha.end(), '.', 'p');
  *os << "alpha" << alpha << "_z" << c.z;
}

class SyntheticGridTest : public ::testing::TestWithParam<GridCase> {};

TEST_P(SyntheticGridTest, WatermarkIsSoundOrCleanlyInapplicable) {
  const GridCase& param = GetParam();
  Rng rng(static_cast<uint64_t>(param.alpha * 1000) + param.z);
  PowerLawSpec spec;
  spec.num_tokens = 100;
  spec.sample_size = 100000;
  spec.alpha = param.alpha;
  Histogram original = GeneratePowerLawHistogram(spec, rng);

  GenerateOptions o;
  o.budget_percent = 2.0;
  o.modulus_bound = param.z;
  o.seed = 555;
  auto r = WatermarkGenerator(o).GenerateFromHistogram(original);
  if (!r.ok()) {
    EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
    return;
  }
  EXPECT_TRUE(r.value().watermarked.IsSortedDescending());
  EXPECT_GE(r.value().report.similarity_percent, 98.0);
  DetectOptions d;
  d.pair_threshold = 0;
  d.min_pairs = r.value().report.chosen_pairs;
  EXPECT_TRUE(
      DetectWatermark(r.value().watermarked, r.value().report.secrets, d)
          .accepted);
}

INSTANTIATE_TEST_SUITE_P(
    PaperGrid, SyntheticGridTest,
    ::testing::Values(GridCase{0.05, 131}, GridCase{0.2, 131},
                      GridCase{0.5, 131}, GridCase{0.7, 131},
                      GridCase{0.9, 131}, GridCase{1.0, 131},
                      GridCase{0.7, 10}, GridCase{0.7, 523},
                      GridCase{0.7, 1031}, GridCase{0.5, 1031}),
    ::testing::PrintToStringParamName());

TEST(RealWorldIntegrationTest, TaxiLikeDatasetEndToEnd) {
  Rng rng(7);
  Histogram original = MakeChicagoTaxiLikeHistogram(rng, 800, 400000);
  GenerateOptions o;
  o.budget_percent = 2.0;
  o.modulus_bound = 131;
  o.strategy = SelectionStrategy::kGreedy;  // optimal is exercised elsewhere
  o.seed = 31337;
  auto r = WatermarkGenerator(o).GenerateFromHistogram(original);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_GT(r.value().report.chosen_pairs, 10u);

  DetectOptions d;
  d.pair_threshold = 0;
  d.min_pairs = r.value().report.chosen_pairs;
  EXPECT_TRUE(
      DetectWatermark(r.value().watermarked, r.value().report.secrets, d)
          .accepted);
}

TEST(RealWorldIntegrationTest, EyeWnderLikeDatasetEndToEnd) {
  Rng rng(8);
  Histogram original = MakeEyeWnderLikeHistogram(rng, 2000, 300000);
  GenerateOptions o;
  o.budget_percent = 2.0;
  o.modulus_bound = 131;
  o.strategy = SelectionStrategy::kGreedy;
  o.seed = 31338;
  auto r = WatermarkGenerator(o).GenerateFromHistogram(original);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_GT(r.value().report.chosen_pairs, 0u);
  DetectOptions d;
  d.pair_threshold = 0;
  d.min_pairs = r.value().report.chosen_pairs;
  EXPECT_TRUE(
      DetectWatermark(r.value().watermarked, r.value().report.secrets, d)
          .accepted);
}

TEST(FalseClaimIntegrationTest, ForgedPairListNeverVerifiesStrictly) {
  // An adversary who knows z and the watermarked data but not R cannot
  // assemble a verifying claim (§V-A in an end-to-end setting).
  Rng rng(9);
  PowerLawSpec spec;
  spec.num_tokens = 100;
  spec.sample_size = 100000;
  spec.alpha = 0.5;
  Histogram original = GeneratePowerLawHistogram(spec, rng);
  GenerateOptions o;
  o.budget_percent = 2.0;
  o.modulus_bound = 131;
  o.seed = 777;
  auto r = WatermarkGenerator(o).GenerateFromHistogram(original);
  ASSERT_TRUE(r.ok());

  WatermarkSecrets forged = r.value().report.secrets;
  forged.r = GenerateSecret(256, 31339);  // attacker's guess at R

  DetectOptions d;
  d.pair_threshold = 0;
  d.min_pairs = std::max<size_t>(2, r.value().report.chosen_pairs / 2);
  EXPECT_FALSE(
      DetectWatermark(r.value().watermarked, forged, d).accepted);
}

}  // namespace
}  // namespace freqywm
