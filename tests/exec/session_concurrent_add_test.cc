// Concurrent-producer contract of `BatchDetector::Session` (DESIGN.md §11):
// `AddSuspects` is documented thread-safe — request handlers
// enqueue while a single drainer detects — and the pending queue is guarded
// by `pending_mutex_` (statically checked by the CI thread-safety job; this
// test is the dynamic half, run under TSan by the thread-sanitizer CI job).

#include <cstddef>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/factory.h"
#include "api/scheme.h"
#include "common/random.h"
#include "data/histogram.h"
#include "datagen/power_law.h"
#include "exec/batch_detector.h"

namespace freqywm {
namespace {

Histogram MakeCleanHistogram(uint64_t seed) {
  Rng rng(seed);
  PowerLawSpec spec;
  spec.num_tokens = 120;
  spec.sample_size = 30000;
  spec.alpha = 0.6;
  return GeneratePowerLawHistogram(spec, rng);
}

std::vector<SchemeKey> MakeKeyColumn() {
  std::vector<SchemeKey> keys;
  uint64_t seed = 501;
  for (const std::string& name : SchemeFactory::RegisteredNames()) {
    auto scheme = SchemeFactory::Create(name);
    EXPECT_TRUE(scheme.ok());
    auto outcome = scheme.value()->Embed(MakeCleanHistogram(seed++));
    EXPECT_TRUE(outcome.ok()) << name << ": " << outcome.status();
    keys.push_back(outcome.value().key);
  }
  return keys;
}

TEST(BatchSessionConcurrentAddTest, ManyProducersAllSuspectsArrive) {
  BatchDetectOptions options;
  options.num_threads = 2;
  BatchDetector::Session session(options, MakeKeyColumn());

  constexpr size_t kProducers = 4;
  constexpr size_t kPerProducer = 25;
  const Histogram suspect = MakeCleanHistogram(777);

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&session, &suspect] {
      for (size_t i = 0; i < kPerProducer; ++i) {
        session.AddSuspects({suspect});
      }
    });
  }
  for (std::thread& t : producers) t.join();

  EXPECT_EQ(session.pending_suspects(), kProducers * kPerProducer);

  // Every enqueued suspect was identical, so every drained row must equal
  // the one-shot detection of that suspect — regardless of the order the
  // concurrent enqueues serialized in.
  const std::vector<std::vector<DetectResult>> expected =
      session.DetectChecked({suspect}, InterruptContext{}).verdicts;
  ASSERT_EQ(expected.size(), 1u);

  const std::vector<std::vector<DetectResult>> drained =
      session.DrainChecked(InterruptContext{}).verdicts;
  ASSERT_EQ(drained.size(), kProducers * kPerProducer);
  for (const std::vector<DetectResult>& row : drained) {
    ASSERT_EQ(row.size(), expected[0].size());
    for (size_t j = 0; j < row.size(); ++j) {
      EXPECT_TRUE(row[j] == expected[0][j]);
    }
  }
  EXPECT_EQ(session.pending_suspects(), 0u);
}

TEST(BatchSessionConcurrentAddTest, EnqueueDuringDrainLandsInNextDrain) {
  BatchDetectOptions options;
  options.num_threads = 2;
  BatchDetector::Session session(options, MakeKeyColumn());

  const Histogram suspect = MakeCleanHistogram(888);
  constexpr size_t kFirstBatch = 10;
  constexpr size_t kConcurrent = 30;
  for (size_t i = 0; i < kFirstBatch; ++i) {
    session.AddSuspects({suspect});
  }

  // A producer races `DrainChecked`: its suspects land either in this
  // drain or in the pending queue for the next one, never lost and never
  // duplicated.
  std::thread producer([&session, &suspect] {
    for (size_t i = 0; i < kConcurrent; ++i) {
      session.AddSuspects({suspect});
    }
  });
  const size_t first =
      session.DrainChecked(InterruptContext{}).verdicts.size();
  producer.join();
  const size_t second =
      session.DrainChecked(InterruptContext{}).verdicts.size();

  EXPECT_GE(first, kFirstBatch);
  EXPECT_EQ(first + second, kFirstBatch + kConcurrent);
  EXPECT_EQ(session.pending_suspects(), 0u);
}

TEST(BatchSessionConcurrentAddTest, AddSuspectsBulkIsThreadSafe) {
  BatchDetectOptions options;  // serial drain path
  BatchDetector::Session session(options, MakeKeyColumn());

  constexpr size_t kProducers = 4;
  constexpr size_t kBatchesPerProducer = 5;
  constexpr size_t kBatchSize = 8;
  const Histogram suspect = MakeCleanHistogram(999);

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&session, &suspect] {
      for (size_t b = 0; b < kBatchesPerProducer; ++b) {
        session.AddSuspects(std::vector<Histogram>(kBatchSize, suspect));
      }
    });
  }
  for (std::thread& t : producers) t.join();

  EXPECT_EQ(session.pending_suspects(),
            kProducers * kBatchesPerProducer * kBatchSize);
  EXPECT_EQ(session.DrainChecked(InterruptContext{}).verdicts.size(),
            kProducers * kBatchesPerProducer * kBatchSize);
}

}  // namespace
}  // namespace freqywm
