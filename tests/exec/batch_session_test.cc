// BatchDetector::Session identity suite (ISSUE 5): the streaming front
// end must produce element-wise identical `DetectResult`s to the serial
// per-cell `Detect` loop for every registered scheme, at any thread
// count, any chunking of the suspect stream, and any `PreparedKeyCache`
// state (cold, warm, mid-eviction). Also covers the dense count gather:
// for vocabulary schemes (FreqyWM) the session's per-cell path is the
// prepared key's zero-hash-probe dense `Detect`, so these identities are
// what pins it to the histogram path bit for bit.

#include "exec/batch_detector.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "analysis/registry.h"
#include "api/factory.h"
#include "common/random.h"
#include "datagen/power_law.h"
#include "exec/prepared_key_cache.h"

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

/// The serial reference: per-cell key-path `Detect` under recommended
/// options — no preparation, no dense gather, no cache.
std::vector<std::vector<DetectResult>> SerialReference(
    const std::vector<Histogram>& suspects,
    const std::vector<SchemeKey>& keys) {
  std::vector<std::vector<DetectResult>> results(
      suspects.size(), std::vector<DetectResult>(keys.size()));
  for (size_t i = 0; i < suspects.size(); ++i) {
    for (size_t j = 0; j < keys.size(); ++j) {
      auto scheme = SchemeFactory::Create(keys[j].scheme);
      if (!scheme.ok()) continue;
      results[i][j] = scheme.value()->Detect(
          suspects[i], keys[j],
          scheme.value()->RecommendedDetectOptions(keys[j]));
    }
  }
  return results;
}

/// Streams `suspects` through a session in chunks of `chunk_size` and
/// concatenates the drained rows.
std::vector<std::vector<DetectResult>> RunChunked(
    BatchDetector::Session& session, const std::vector<Histogram>& suspects,
    size_t chunk_size) {
  std::vector<std::vector<DetectResult>> all;
  for (size_t start = 0; start < suspects.size(); start += chunk_size) {
    for (size_t i = start; i < std::min(start + chunk_size, suspects.size());
         ++i) {
      session.AddSuspects({suspects[i]});
    }
    std::vector<std::vector<DetectResult>> rows =
        session.DrainChecked(InterruptContext{}).verdicts;
    for (auto& row : rows) all.push_back(std::move(row));
  }
  return all;
}

class BatchSessionSchemeTest : public ::testing::TestWithParam<std::string> {
};

TEST_P(BatchSessionSchemeTest, ChunkedStreamingIdenticalToOneShotAnywhere) {
  Histogram original = MakeCleanHistogram(31);
  auto embedder_a = MakeScheme(GetParam(), 101);
  auto embedder_b = MakeScheme(GetParam(), 202);
  auto outcome_a = embedder_a->Embed(original);
  auto outcome_b = embedder_b->Embed(original);
  ASSERT_TRUE(outcome_a.ok()) << outcome_a.status();
  ASSERT_TRUE(outcome_b.ok()) << outcome_b.status();

  std::vector<Histogram> suspects{outcome_a.value().watermarked,
                                  outcome_b.value().watermarked, original,
                                  MakeCleanHistogram(57)};
  std::vector<SchemeKey> keys{outcome_a.value().key, outcome_b.value().key};
  auto reference = SerialReference(suspects, keys);
  ASSERT_TRUE(reference[0][0].accepted);
  ASSERT_TRUE(reference[1][1].accepted);

  auto cache = std::make_shared<PreparedKeyCache>();
  for (size_t threads : {1, 2, 4, 8}) {
    for (size_t chunk_size : {size_t{1}, size_t{3}, suspects.size()}) {
      BatchDetectOptions options;
      options.num_threads = threads;
      options.key_cache = cache;  // cold on the first lap, warm after
      BatchDetector::Session session(options, keys);
      auto streamed = RunChunked(session, suspects, chunk_size);
      EXPECT_TRUE(streamed == reference)
          << GetParam() << " at " << threads << " threads, chunk size "
          << chunk_size;
    }
  }
  // Every session after the first resolved its keys from the warm cache.
  EXPECT_EQ(cache->stats().misses, keys.size());
  EXPECT_GE(cache->stats().hits, keys.size());
}

TEST_P(BatchSessionSchemeTest, WarmCacheColdCacheAndNoCacheAgree) {
  Histogram original = MakeCleanHistogram(43);
  auto embedder = MakeScheme(GetParam(), 303);
  auto outcome = embedder->Embed(original);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  std::vector<Histogram> suspects{outcome.value().watermarked, original};
  std::vector<SchemeKey> keys{outcome.value().key};

  auto detect = [&](const BatchDetectOptions& options) {
    return BatchDetector::Session(options, keys)
        .DetectChecked(suspects, InterruptContext{})
        .verdicts;
  };
  BatchDetectOptions uncached;
  auto no_cache = detect(uncached);

  auto cache = std::make_shared<PreparedKeyCache>();
  BatchDetectOptions cached;
  cached.key_cache = cache;
  auto cold = detect(cached);
  auto warm = detect(cached);

  EXPECT_TRUE(no_cache == cold) << GetParam();
  EXPECT_TRUE(cold == warm) << GetParam();
  EXPECT_EQ(cache->stats().misses, 1u);
  EXPECT_GE(cache->stats().hits, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    AllRegisteredSchemes, BatchSessionSchemeTest,
    ::testing::ValuesIn(SchemeFactory::RegisteredNames()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(BatchSessionTest, MixedSchemeStreamSharesOneCacheAndInterner) {
  // All schemes in one key column: vocabulary keys (FreqyWM) take the
  // dense path, whole-histogram baselines the prepared path, side by side
  // in the same chunked stream.
  Histogram original = MakeCleanHistogram(13);
  std::vector<SchemeKey> keys;
  std::vector<Histogram> suspects{original};
  for (const std::string& name : SchemeFactory::RegisteredNames()) {
    auto outcome = MakeScheme(name, 404)->Embed(original);
    ASSERT_TRUE(outcome.ok()) << name << ": " << outcome.status();
    keys.push_back(outcome.value().key);
    suspects.push_back(std::move(outcome).value().watermarked);
  }
  auto reference = SerialReference(suspects, keys);

  auto cache = std::make_shared<PreparedKeyCache>();
  BatchDetectOptions options;
  options.num_threads = 4;
  options.key_cache = cache;
  BatchDetector::Session session(options, keys);
  EXPECT_GT(session.vocabulary_size(), 0u);  // FreqyWM key contributed
  EXPECT_TRUE(RunChunked(session, suspects, 2) == reference);
}

TEST(BatchSessionTest, SessionSurvivesCacheEviction) {
  // A capacity-1 cache evicts all but the last key during PrepareKeys;
  // the session's pinned shared_ptrs must keep every prepared key usable.
  Histogram original = MakeCleanHistogram(19);
  std::vector<SchemeKey> keys;
  std::vector<Histogram> suspects{original};
  for (uint64_t seed : {11, 22, 33}) {
    auto outcome = MakeScheme("freqywm", seed)->Embed(original);
    ASSERT_TRUE(outcome.ok()) << outcome.status();
    keys.push_back(outcome.value().key);
    suspects.push_back(std::move(outcome).value().watermarked);
  }
  auto reference = SerialReference(suspects, keys);

  auto tiny_cache = std::make_shared<PreparedKeyCache>(1);
  BatchDetectOptions options;
  options.key_cache = tiny_cache;
  BatchDetector::Session session(options, keys);
  EXPECT_GE(tiny_cache->stats().evictions, keys.size() - 1);
  EXPECT_TRUE(session.DetectChecked(suspects, InterruptContext{}).verdicts ==
              reference);
}

TEST(BatchSessionTest, DrainClearsPendingAndEmptyDrainYieldsNothing) {
  Histogram original = MakeCleanHistogram(23);
  auto outcome = MakeScheme("freqywm", 55)->Embed(original);
  ASSERT_TRUE(outcome.ok()) << outcome.status();

  BatchDetector::Session session({}, {outcome.value().key});
  EXPECT_TRUE(session.DrainChecked(InterruptContext{}).verdicts.empty());
  session.AddSuspects({outcome.value().watermarked});
  session.AddSuspects({original, MakeCleanHistogram(24)});
  EXPECT_EQ(session.pending_suspects(), 3u);
  auto rows = session.DrainChecked(InterruptContext{}).verdicts;
  EXPECT_EQ(rows.size(), 3u);
  EXPECT_EQ(session.pending_suspects(), 0u);
  EXPECT_TRUE(session.DrainChecked(InterruptContext{}).verdicts.empty());
  EXPECT_TRUE(rows[0][0].accepted);
  EXPECT_FALSE(rows[1][0].accepted);
}

TEST(BatchSessionTest, UnregisteredSchemeTagStreamsDefaultRejects) {
  Histogram original = MakeCleanHistogram(29);
  BatchDetector::Session session(
      {}, {SchemeKey{"no-such-scheme", "payload"}});
  session.AddSuspects({original});
  auto rows = session.DrainChecked(InterruptContext{}).verdicts;
  ASSERT_EQ(rows.size(), 1u);
  ASSERT_EQ(rows[0].size(), 1u);
  EXPECT_TRUE(rows[0][0] == DetectResult{});
}

TEST(BatchSessionTest, TraceSuspectsWithSharedCacheMatchesUncached) {
  // The registry wiring: BatchDetectOptions::key_cache changes who pays the
  // preparation, never the matches.
  Histogram original = MakeCleanHistogram(37);
  auto outcome = MakeScheme("freqywm", 66)->Embed(original);
  ASSERT_TRUE(outcome.ok()) << outcome.status();

  FingerprintRegistry registry;
  ASSERT_TRUE(registry.Register("buyer-1", outcome.value().key).ok());
  std::vector<Histogram> suspects{outcome.value().watermarked, original};

  BatchDetectOptions plain;
  auto uncached = registry.TraceSuspects(suspects, plain);
  ASSERT_TRUE(uncached.ok()) << uncached.status();

  BatchDetectOptions with_cache;
  with_cache.key_cache = std::make_shared<PreparedKeyCache>();
  auto cold_result = registry.TraceSuspects(suspects, with_cache);
  auto warm = registry.TraceSuspects(suspects, with_cache);
  ASSERT_TRUE(cold_result.ok()) << cold_result.status();
  ASSERT_TRUE(warm.ok()) << warm.status();
  const auto& cold = cold_result.value();
  EXPECT_TRUE(uncached.value() == cold);
  EXPECT_TRUE(cold == warm.value());
  EXPECT_EQ(with_cache.key_cache->stats().misses, 1u);
  ASSERT_EQ(cold.size(), 2u);
  ASSERT_EQ(cold[0].size(), 1u);
  EXPECT_EQ(cold[0][0].buyer_id, "buyer-1");
  EXPECT_TRUE(cold[1].empty());
}

}  // namespace
}  // namespace freqywm
