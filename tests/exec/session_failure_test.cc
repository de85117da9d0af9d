// Session failure-isolation suite (DESIGN.md §13): a mixed-scheme key
// column where one key can never prepare (unregistered scheme tag), and
// drains hitting a cancellation or an already-expired deadline — at
// 1/2/4/8 threads. The invariant under every failure: unaffected cells
// carry verdicts element-wise identical to the serial `Detect` loop, and
// every failure is a typed `Status`, never a crash, hang, or silent wrong
// answer.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/factory.h"
#include "common/random.h"
#include "datagen/power_law.h"
#include "exec/batch_detector.h"
#include "exec/cancellation.h"
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

/// The hand-written nested `Detect` loop under each key's recommended
/// options; a key whose scheme tag is not registered stays
/// default-rejected.
std::vector<std::vector<DetectResult>> SerialLoop(
    const std::vector<Histogram>& suspects,
    const std::vector<SchemeKey>& keys) {
  std::vector<std::vector<DetectResult>> out(
      suspects.size(), std::vector<DetectResult>(keys.size()));
  for (size_t j = 0; j < keys.size(); ++j) {
    auto scheme = SchemeFactory::Create(keys[j].scheme);
    if (!scheme.ok()) continue;
    const DetectOptions options =
        scheme.value()->RecommendedDetectOptions(keys[j]);
    for (size_t i = 0; i < suspects.size(); ++i) {
      out[i][j] = scheme.value()->Detect(suspects[i], keys[j], options);
    }
  }
  return out;
}

/// A key column mixing every registered scheme family with one key whose
/// scheme tag is not registered — the real, knob-free way a key fails
/// preparation — plus suspects carrying each watermark.
struct MixedFixture {
  std::vector<SchemeKey> keys;
  std::vector<Histogram> suspects;
  size_t poisoned_column = 0;

  MixedFixture() {
    Histogram original = MakeCleanHistogram(31);
    for (const char* name : {"freqywm", "wm-rvs"}) {
      auto scheme = MakeScheme(name, 101 + keys.size());
      auto outcome = scheme->Embed(original);
      EXPECT_TRUE(outcome.ok()) << outcome.status();
      keys.push_back(outcome.value().key);
      suspects.push_back(outcome.value().watermarked);
    }
    poisoned_column = keys.size();
    keys.push_back(SchemeKey{"no-such-scheme", "opaque payload"});
    suspects.push_back(original);
    suspects.push_back(MakeCleanHistogram(57));
  }
};

TEST(SessionFailureTest, UnregisteredSchemeTagPoisonsOnlyItsColumn) {
  MixedFixture fx;
  for (size_t threads : {1, 2, 4, 8}) {
    BatchDetectOptions options;
    options.num_threads = threads;

    // Clean reference verdicts from the serial loop (which
    // default-rejects unregistered tags).
    const auto clean = SerialLoop(fx.suspects, fx.keys);

    BatchDetector::Session session(options, fx.keys);
    const auto& statuses = session.key_statuses();
    ASSERT_EQ(statuses.size(), fx.keys.size());
    for (size_t j = 0; j < statuses.size(); ++j) {
      if (j == fx.poisoned_column) {
        EXPECT_EQ(statuses[j].code(), StatusCode::kNotFound) << statuses[j];
      } else {
        EXPECT_TRUE(statuses[j].ok()) << statuses[j];
      }
    }

    session.AddSuspects(fx.suspects);
    SessionDrainResult result = session.DrainChecked(InterruptContext{});
    ASSERT_TRUE(result.status.ok()) << result.status;
    EXPECT_TRUE(result.cell_errors.empty());
    ASSERT_EQ(result.verdicts.size(), fx.suspects.size());
    for (size_t i = 0; i < fx.suspects.size(); ++i) {
      for (size_t j = 0; j < fx.keys.size(); ++j) {
        const bool evaluated =
            result.evaluated[i * fx.keys.size() + j] != 0;
        EXPECT_EQ(evaluated, j != fx.poisoned_column)
            << "threads=" << threads << " cell (" << i << "," << j << ")";
        // Poisoned column: default-rejected, identical to the legacy
        // convention. Healthy columns: element-wise identical verdicts.
        EXPECT_TRUE(result.verdicts[i][j] == clean[i][j])
            << "threads=" << threads << " cell (" << i << "," << j << ")";
      }
    }
    // The watermarked suspects still accept on their own healthy columns
    // even with a poisoned neighbor.
    EXPECT_TRUE(result.verdicts[0][0].accepted);
    EXPECT_TRUE(result.verdicts[1][1].accepted);
  }
}

TEST(SessionFailureTest, DrainCheckedMatchesDrainOnCleanColumn) {
  // No failing key at all: DrainChecked must equal the serial loop.
  Histogram original = MakeCleanHistogram(11);
  auto scheme = MakeScheme("freqywm", 7);
  auto outcome = scheme->Embed(original);
  ASSERT_TRUE(outcome.ok());
  std::vector<SchemeKey> keys{outcome.value().key};
  std::vector<Histogram> suspects{outcome.value().watermarked, original};

  for (size_t threads : {1, 2, 4, 8}) {
    BatchDetectOptions options;
    options.num_threads = threads;
    const auto expected = SerialLoop(suspects, keys);

    BatchDetector::Session checked(options, keys);
    checked.AddSuspects(suspects);
    SessionDrainResult result = checked.DrainChecked(InterruptContext{});
    ASSERT_TRUE(result.status.ok());
    EXPECT_TRUE(result.verdicts == expected);
    for (uint8_t e : result.evaluated) EXPECT_EQ(e, 1);
    EXPECT_EQ(checked.pending_suspects(), 0u);
  }
}

TEST(SessionFailureTest, ExpiredDeadlineYieldsPartialTypedResult) {
  MixedFixture fx;
  for (size_t threads : {1, 2, 4, 8}) {
    BatchDetectOptions options;
    options.num_threads = threads;
    BatchDetector::Session session(options, fx.keys);
    session.AddSuspects(fx.suspects);
    SessionDrainResult result = session.DrainChecked(
        InterruptContext{CancellationToken(), Deadline::Expired()});
    EXPECT_EQ(result.status.code(), StatusCode::kDeadlineExceeded)
        << "threads=" << threads;
    // Full-shape outputs with nothing evaluated: the deadline was already
    // expired at entry, so no cell ran.
    ASSERT_EQ(result.verdicts.size(), fx.suspects.size());
    ASSERT_EQ(result.evaluated.size(), fx.suspects.size() * fx.keys.size());
    for (uint8_t e : result.evaluated) EXPECT_EQ(e, 0);
    // The queue was still claimed: an interrupted drain consumes its
    // suspects (the caller retries from the result, not the queue).
    EXPECT_EQ(session.pending_suspects(), 0u);
  }
}

TEST(SessionFailureTest, CancellationMidDrainReportsCancelled) {
  MixedFixture fx;
  for (size_t threads : {1, 2, 4, 8}) {
    BatchDetectOptions options;
    options.num_threads = threads;
    BatchDetector::Session session(options, fx.keys);
    session.AddSuspects(fx.suspects);
    CancellationSource source;
    source.Cancel();
    SessionDrainResult result = session.DrainChecked(
        InterruptContext{source.token(), Deadline()});
    EXPECT_EQ(result.status.code(), StatusCode::kCancelled);
  }
}

TEST(SessionFailureTest, PoisonedColumnStableAcrossDrains) {
  // A session with a poisoned column keeps working drain after drain —
  // the failure is a per-column fact, not creeping session state.
  MixedFixture fx;
  BatchDetectOptions options;
  options.num_threads = 4;
  options.key_cache = std::make_shared<PreparedKeyCache>();
  BatchDetector::Session session(options, fx.keys);
  for (int round = 0; round < 3; ++round) {
    session.AddSuspects({fx.suspects[0]});
    SessionDrainResult result = session.DrainChecked(InterruptContext{});
    ASSERT_TRUE(result.status.ok());
    EXPECT_TRUE(result.verdicts[0][0].accepted) << "round " << round;
    EXPECT_EQ(result.evaluated[fx.poisoned_column], 0u);
  }
}

}  // namespace
}  // namespace freqywm
