// Shared conformance suite for every scheme registered in the
// `SchemeFactory` (ISSUE 1 acceptance criterion): embed then detect on the
// same histogram must accept; detect with a fresh (wrong) key on clean
// data must reject. The suite is parameterized over `RegisteredNames()`,
// so a newly registered scheme is covered without touching this file.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>

#include "api/factory.h"
#include "api/scheme.h"
#include "common/random.h"
#include "datagen/power_law.h"
#include "exec/cancellation.h"
#include "exec/exec_context.h"

namespace freqywm {
namespace {

Histogram MakeCleanHistogram(uint64_t seed) {
  Rng rng(seed);
  PowerLawSpec spec;
  spec.num_tokens = 300;
  spec.sample_size = 200000;
  spec.alpha = 0.6;
  return GeneratePowerLawHistogram(spec, rng);
}

std::unique_ptr<WatermarkScheme> MakeScheme(const std::string& name,
                                            uint64_t seed) {
  OptionBag bag;
  bag.Set("seed", std::to_string(seed));
  auto scheme = SchemeFactory::Create(name, bag);
  EXPECT_TRUE(scheme.ok()) << scheme.status();
  return std::move(scheme).value();
}

class SchemeConformanceTest : public ::testing::TestWithParam<std::string> {};

TEST_P(SchemeConformanceTest, EmbedThenDetectAccepts) {
  Histogram original = MakeCleanHistogram(11);
  auto scheme = MakeScheme(GetParam(), 42);
  auto outcome = scheme->Embed(original);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_EQ(outcome.value().key.scheme, GetParam());
  EXPECT_GT(outcome.value().report.embedded_units, 0u);

  DetectOptions options =
      scheme->RecommendedDetectOptions(outcome.value().key);
  DetectResult result =
      scheme->Detect(outcome.value().watermarked, outcome.value().key,
                     options);
  EXPECT_TRUE(result.accepted)
      << GetParam() << ": verified " << result.pairs_verified << " of "
      << result.pairs_found << " (fraction " << result.verified_fraction
      << ")";
}

TEST_P(SchemeConformanceTest, FreshKeyOnCleanDataRejects) {
  Histogram original = MakeCleanHistogram(11);
  auto scheme = MakeScheme(GetParam(), 987654321);
  auto outcome = scheme->Embed(original);
  ASSERT_TRUE(outcome.ok()) << outcome.status();

  // The fresh key never shipped with `original`; presenting it as proof of
  // ownership of the clean data must fail.
  DetectOptions options =
      scheme->RecommendedDetectOptions(outcome.value().key);
  DetectResult result = scheme->Detect(original, outcome.value().key, options);
  EXPECT_FALSE(result.accepted)
      << GetParam() << ": verified " << result.pairs_verified << " of "
      << result.pairs_found << " on clean data";
}

TEST_P(SchemeConformanceTest, KeySurvivesSerializationRoundTrip) {
  Histogram original = MakeCleanHistogram(12);
  auto scheme = MakeScheme(GetParam(), 43);
  auto outcome = scheme->Embed(original);
  ASSERT_TRUE(outcome.ok()) << outcome.status();

  auto reloaded = SchemeKey::Deserialize(outcome.value().key.Serialize());
  ASSERT_TRUE(reloaded.ok()) << reloaded.status();
  EXPECT_EQ(reloaded.value(), outcome.value().key);

  DetectResult result = scheme->Detect(
      outcome.value().watermarked, reloaded.value(),
      scheme->RecommendedDetectOptions(reloaded.value()));
  EXPECT_TRUE(result.accepted) << GetParam();
}

TEST_P(SchemeConformanceTest, ForeignSchemeKeyRejectsGracefully) {
  Histogram original = MakeCleanHistogram(13);
  auto scheme = MakeScheme(GetParam(), 44);
  auto outcome = scheme->Embed(original);
  ASSERT_TRUE(outcome.ok()) << outcome.status();

  for (const std::string& other : SchemeFactory::RegisteredNames()) {
    if (other == GetParam()) continue;
    auto other_scheme = MakeScheme(other, 44);
    // Registry aliases of the same scheme share a key format and would
    // (correctly) accept; only genuinely different schemes must reject.
    if (other_scheme->name() == scheme->name()) continue;
    DetectResult result = other_scheme->Detect(
        outcome.value().watermarked, outcome.value().key,
        other_scheme->RecommendedDetectOptions(outcome.value().key));
    EXPECT_FALSE(result.accepted)
        << other << " accepted a key produced by " << GetParam();
  }
}

TEST_P(SchemeConformanceTest, EmbedDatasetRoundTrip) {
  Rng rng(7);
  PowerLawSpec spec;
  spec.num_tokens = 120;
  spec.sample_size = 30000;
  spec.alpha = 0.6;
  Dataset original = GeneratePowerLawDataset(spec, rng);

  auto scheme = MakeScheme(GetParam(), 45);
  auto outcome = scheme->EmbedDataset(original);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  DetectResult result = scheme->Detect(
      Histogram::FromDataset(outcome.value().watermarked),
      outcome.value().key,
      scheme->RecommendedDetectOptions(outcome.value().key));
  EXPECT_TRUE(result.accepted) << GetParam();
}

TEST_P(SchemeConformanceTest, InterruptedEmbedReturnsTypedStatus) {
  Rng rng(8);
  PowerLawSpec spec;
  spec.num_tokens = 120;
  spec.sample_size = 30000;
  spec.alpha = 0.6;
  Dataset original = GeneratePowerLawDataset(spec, rng);
  auto scheme = MakeScheme(GetParam(), 47);

  CancellationSource source;
  source.Cancel();
  ExecContext cancelled;
  cancelled.cancel = source.token();
  ExecContext expired;
  expired.deadline = Deadline::Expired();
  for (const auto& [exec, code] :
       {std::pair{cancelled, StatusCode::kCancelled},
        std::pair{expired, StatusCode::kDeadlineExceeded}}) {
    auto dataset_outcome = scheme->EmbedDataset(original, exec);
    ASSERT_FALSE(dataset_outcome.ok()) << GetParam();
    EXPECT_EQ(dataset_outcome.status().code(), code) << GetParam();
    auto outcome = scheme->Embed(Histogram::FromDataset(original), exec);
    ASSERT_FALSE(outcome.ok()) << GetParam();
    EXPECT_EQ(outcome.status().code(), code) << GetParam();
  }
}

TEST_P(SchemeConformanceTest, EmptyHistogramFailsCleanly) {
  auto scheme = MakeScheme(GetParam(), 46);
  EXPECT_FALSE(scheme->Embed(Histogram()).ok());
}

TEST_P(SchemeConformanceTest, RefreshRealignsOrIsNotSupported) {
  Histogram original = MakeCleanHistogram(14);
  auto scheme = MakeScheme(GetParam(), 48);
  auto outcome = scheme->Embed(original);
  ASSERT_TRUE(outcome.ok()) << outcome.status();

  auto refreshed =
      scheme->Refresh(outcome.value().watermarked, outcome.value().key);
  if (!refreshed.ok() &&
      refreshed.status().code() == StatusCode::kNotSupported) {
    return;
  }
  // A supporting scheme must re-align its own un-drifted embedding and
  // keep detection accepting under the refreshed key.
  ASSERT_TRUE(refreshed.ok()) << GetParam() << ": " << refreshed.status();
  DetectResult result = scheme->Detect(
      refreshed.value().watermarked, refreshed.value().key,
      scheme->RecommendedDetectOptions(refreshed.value().key));
  EXPECT_TRUE(result.accepted)
      << GetParam() << ": verified " << result.pairs_verified << " of "
      << result.pairs_found << " after refresh";
}

INSTANTIATE_TEST_SUITE_P(
    AllRegisteredSchemes, SchemeConformanceTest,
    ::testing::ValuesIn(SchemeFactory::RegisteredNames()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace freqywm
