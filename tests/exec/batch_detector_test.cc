// Determinism conformance for the batch detection engine (ISSUE 2): for
// every scheme registered in the `SchemeFactory`, the session matrix
// (`BatchDetector::Session::DetectChecked`) must be element-wise identical
// to the serial `Detect` loop, at any thread count.

#include "exec/batch_detector.h"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "api/factory.h"
#include "common/random.h"
#include "datagen/power_law.h"

namespace freqywm {
namespace {

Histogram MakeCleanHistogram(uint64_t seed) {
  Rng rng(seed);
  PowerLawSpec spec;
  spec.num_tokens = 250;
  spec.sample_size = 150000;
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

/// The session verdict matrix of `suspects` × `keys` under `options`.
std::vector<std::vector<DetectResult>> Matrix(
    const BatchDetectOptions& options, const std::vector<Histogram>& suspects,
    const std::vector<SchemeKey>& keys) {
  return BatchDetector::Session(options, keys)
      .DetectChecked(suspects, InterruptContext{})
      .verdicts;
}

/// The serial reference: the exact nested loop `BatchDetector` replaces,
/// under `fixed` or, when unset, each key's recommended options.
std::vector<std::vector<DetectResult>> SerialReference(
    const std::vector<Histogram>& suspects,
    const std::vector<SchemeKey>& keys,
    const std::optional<DetectOptions>& fixed) {
  std::vector<std::vector<DetectResult>> results(
      suspects.size(), std::vector<DetectResult>(keys.size()));
  for (size_t i = 0; i < suspects.size(); ++i) {
    for (size_t j = 0; j < keys.size(); ++j) {
      auto scheme = SchemeFactory::Create(keys[j].scheme);
      if (!scheme.ok()) continue;
      DetectOptions options = fixed.value_or(
          scheme.value()->RecommendedDetectOptions(keys[j]));
      results[i][j] = scheme.value()->Detect(suspects[i], keys[j], options);
    }
  }
  return results;
}

class BatchDetectorSchemeTest : public ::testing::TestWithParam<std::string> {
};

TEST_P(BatchDetectorSchemeTest, ParallelMatrixIdenticalToSerialDetectLoop) {
  Histogram original = MakeCleanHistogram(31);
  auto embedder_a = MakeScheme(GetParam(), 101);
  auto embedder_b = MakeScheme(GetParam(), 202);
  auto outcome_a = embedder_a->Embed(original);
  auto outcome_b = embedder_b->Embed(original);
  ASSERT_TRUE(outcome_a.ok()) << outcome_a.status();
  ASSERT_TRUE(outcome_b.ok()) << outcome_b.status();

  // Hits, misses and a foreign clean histogram in one matrix.
  std::vector<Histogram> suspects{outcome_a.value().watermarked,
                                  outcome_b.value().watermarked, original,
                                  MakeCleanHistogram(57)};
  std::vector<SchemeKey> keys{outcome_a.value().key, outcome_b.value().key};

  auto reference = SerialReference(suspects, keys, std::nullopt);
  for (size_t threads : {1, 2, 4, 8}) {
    BatchDetectOptions options;
    options.num_threads = threads;
    auto results = Matrix(options, suspects, keys);
    EXPECT_TRUE(results == reference) << GetParam() << " at " << threads
                                      << " threads";
  }

  // Sanity: the matrix is not all-reject — each key accepts its own copy.
  EXPECT_TRUE(reference[0][0].accepted);
  EXPECT_TRUE(reference[1][1].accepted);
}

INSTANTIATE_TEST_SUITE_P(
    AllRegisteredSchemes, BatchDetectorSchemeTest,
    ::testing::ValuesIn(SchemeFactory::RegisteredNames()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(BatchDetectorTest, MixedSchemeMatrixWithFixedOptions) {
  Histogram original = MakeCleanHistogram(13);
  std::vector<SchemeKey> keys;
  std::vector<Histogram> suspects{original};
  for (const std::string& name : SchemeFactory::RegisteredNames()) {
    auto scheme = MakeScheme(name, 404);
    auto outcome = scheme->Embed(original);
    ASSERT_TRUE(outcome.ok()) << name << ": " << outcome.status();
    keys.push_back(outcome.value().key);
    suspects.push_back(std::move(outcome).value().watermarked);
  }

  DetectOptions fixed;
  fixed.min_pairs = 1;
  fixed.pair_threshold = 0;
  auto reference = SerialReference(suspects, keys, fixed);
  BatchDetectOptions options;
  options.num_threads = 4;
  options.detect_options = fixed;
  auto results = Matrix(options, suspects, keys);
  EXPECT_TRUE(results == reference);
}

TEST(BatchDetectorTest, UnregisteredSchemeTagYieldsDefaultReject) {
  Histogram original = MakeCleanHistogram(19);
  std::vector<SchemeKey> keys{SchemeKey{"no-such-scheme", "payload"}};
  for (size_t threads : {1, 4}) {
    BatchDetectOptions options;
    options.num_threads = threads;
    auto results = Matrix(options, {original}, keys);
    ASSERT_EQ(results.size(), 1u);
    ASSERT_EQ(results[0].size(), 1u);
    EXPECT_TRUE(results[0][0] == DetectResult{});
  }
}

TEST(BatchDetectorTest, EmptyInputsYieldEmptyMatrix) {
  EXPECT_TRUE(Matrix({}, {}, {}).empty());
  auto no_keys = Matrix({}, {MakeCleanHistogram(3)}, {});
  ASSERT_EQ(no_keys.size(), 1u);
  EXPECT_TRUE(no_keys[0].empty());
}

TEST(BatchDetectorTest, BorrowedPoolIsReusableAcrossRuns) {
  Histogram original = MakeCleanHistogram(7);
  auto scheme = MakeScheme(SchemeFactory::RegisteredNames().front(), 99);
  auto outcome = scheme->Embed(original);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  std::vector<Histogram> suspects{outcome.value().watermarked, original};
  std::vector<SchemeKey> keys{outcome.value().key};

  BatchDetectOptions options;
  options.num_threads = 4;
  ThreadPool pool(4);
  auto detect = [&](ThreadPool* borrowed) {
    return BatchDetector::Session(options, keys, borrowed)
        .DetectChecked(suspects, InterruptContext{})
        .verdicts;
  };
  auto first = detect(&pool);
  auto second = detect(&pool);
  EXPECT_TRUE(first == second);
  EXPECT_TRUE(first == detect(nullptr));
}

}  // namespace
}  // namespace freqywm
