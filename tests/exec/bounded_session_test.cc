// Bounded-session suite (DESIGN.md §14): the shed-mode and
// backpressure-mode enqueues over `BatchDetector::Session`'s pending
// queue — all-or-nothing typed sheds, blocking until a drain frees
// budget, interruption while blocked, and the determinism contract:
// suspects that are admitted produce verdicts byte-identical to an
// unthrottled session at any thread count.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "api/factory.h"
#include "common/random.h"
#include "datagen/power_law.h"
#include "exec/batch_detector.h"
#include "exec/cancellation.h"

namespace freqywm {
namespace {

using std::chrono::milliseconds;

Histogram MakeHistogram(uint64_t seed) {
  Rng rng(seed);
  PowerLawSpec spec;
  spec.num_tokens = 150;
  spec.sample_size = 60000;
  spec.alpha = 0.6;
  return GeneratePowerLawHistogram(spec, rng);
}

/// Embedded keys + suspects shared by the suite (built once; the
/// fixture never mutates them).
struct BoundedFixture {
  std::vector<SchemeKey> keys;
  std::vector<Histogram> suspects;

  BoundedFixture() {
    Histogram original = MakeHistogram(77);
    for (uint64_t seed : {501, 502}) {
      OptionBag bag;
      bag.Set("seed", std::to_string(seed));
      auto scheme = SchemeFactory::Create("freqywm", bag);
      EXPECT_TRUE(scheme.ok());
      auto outcome = scheme.value()->Embed(original);
      EXPECT_TRUE(outcome.ok()) << outcome.status();
      keys.push_back(outcome.value().key);
      suspects.push_back(outcome.value().watermarked);
    }
    suspects.push_back(original);
    suspects.push_back(MakeHistogram(78));
  }
};

const BoundedFixture& Fixture() {
  static const BoundedFixture* fixture = new BoundedFixture();
  return *fixture;
}

std::vector<Histogram> Batch(size_t from, size_t count) {
  std::vector<Histogram> out;
  for (size_t i = 0; i < count; ++i) {
    out.push_back(Fixture().suspects[(from + i) % Fixture().suspects.size()]);
  }
  return out;
}

TEST(BoundedSessionTest, NoBudgetMeansTryAddNeverSheds) {
  BatchDetectOptions options;  // max_pending_suspects = 0: legacy
  BatchDetector::Session session(options, Fixture().keys);
  EXPECT_TRUE(session.TryAddSuspects(Batch(0, 100)).ok());
  EXPECT_EQ(session.pending_suspects(), 100u);
}

TEST(BoundedSessionTest, TryAddShedsAllOrNothingWhenBudgetFull) {
  BatchDetectOptions options;
  options.max_pending_suspects = 4;
  BatchDetector::Session session(options, Fixture().keys);

  ASSERT_TRUE(session.TryAddSuspects(Batch(0, 3)).ok());
  Status shed = session.TryAddSuspects(Batch(0, 2));
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.code(), StatusCode::kResourceExhausted);
  // All-or-nothing: the shed batch enqueued NOTHING.
  EXPECT_EQ(session.pending_suspects(), 3u);
  // A batch that fits still gets in.
  EXPECT_TRUE(session.TryAddSuspects(Batch(0, 1)).ok());
  EXPECT_EQ(session.pending_suspects(), 4u);
}

TEST(BoundedSessionTest, BoundedAddBlocksUntilDrainFreesBudget) {
  BatchDetectOptions options;
  options.max_pending_suspects = 2;
  BatchDetector::Session session(options, Fixture().keys);
  ASSERT_TRUE(session.TryAddSuspects(Batch(0, 2)).ok());

  std::atomic<bool> admitted{false};
  std::thread producer([&] {
    Status status = session.AddSuspectsBounded(Batch(2, 2), InterruptContext{});
    EXPECT_TRUE(status.ok()) << status;
    admitted.store(true);
  });

  // The producer is blocked: budget full.
  std::this_thread::sleep_for(milliseconds(30));
  EXPECT_FALSE(admitted.load());

  // Draining frees the whole budget and wakes the producer.
  auto verdicts = session.Drain();
  EXPECT_EQ(verdicts.size(), 2u);
  producer.join();
  EXPECT_TRUE(admitted.load());
  EXPECT_EQ(session.pending_suspects(), 2u);
}

TEST(BoundedSessionTest, OversizedBatchShedsImmediately) {
  BatchDetectOptions options;
  options.max_pending_suspects = 2;
  BatchDetector::Session session(options, Fixture().keys);

  // 3 > budget 2 can never fit: immediate typed shed, no blocking.
  Status status = session.AddSuspectsBounded(Batch(0, 3), InterruptContext{});
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(session.pending_suspects(), 0u);
}

TEST(BoundedSessionTest, CancellationWhileBlockedEnqueuesNothing) {
  BatchDetectOptions options;
  options.max_pending_suspects = 1;
  BatchDetector::Session session(options, Fixture().keys);
  ASSERT_TRUE(session.TryAddSuspects(Batch(0, 1)).ok());

  CancellationSource source;
  std::thread canceller([&] {
    std::this_thread::sleep_for(milliseconds(30));
    source.Cancel();
  });
  Status status = session.AddSuspectsBounded(
      Batch(1, 1), InterruptContext{source.token(), Deadline()});
  canceller.join();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kCancelled);
  EXPECT_EQ(session.pending_suspects(), 1u);
}

TEST(BoundedSessionTest, DeadlineWhileBlockedReturnsTypedStatus) {
  BatchDetectOptions options;
  options.max_pending_suspects = 1;
  BatchDetector::Session session(options, Fixture().keys);
  ASSERT_TRUE(session.TryAddSuspects(Batch(0, 1)).ok());

  Status status = session.AddSuspectsBounded(
      Batch(1, 1),
      InterruptContext{CancellationToken(), Deadline::After(milliseconds(30))});
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(session.pending_suspects(), 1u);
}

TEST(BoundedSessionTest, AdmittedVerdictsIdenticalToUnthrottledAnyThreads) {
  // Unthrottled serial reference.
  BatchDetector::Session reference(BatchDetectOptions{}, Fixture().keys);
  ASSERT_TRUE(reference.TryAddSuspects(Batch(0, 4)).ok());
  const auto expected = reference.Drain();

  for (size_t threads : {1u, 2u, 4u, 8u}) {
    BatchDetectOptions options;
    options.num_threads = threads;
    options.max_pending_suspects = 4;
    BatchDetector::Session session(options, Fixture().keys);
    ASSERT_TRUE(session.TryAddSuspects(Batch(0, 2)).ok());
    ASSERT_TRUE(
        session.AddSuspectsBounded(Batch(2, 2), InterruptContext{}).ok());
    SessionDrainResult result = session.DrainChecked(InterruptContext{});
    ASSERT_TRUE(result.status.ok());
    // Byte-identical: bounded admission changes *whether* work enters
    // the queue, never what its drain computes.
    ASSERT_EQ(result.verdicts.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      for (size_t j = 0; j < expected[i].size(); ++j) {
        EXPECT_TRUE(result.verdicts[i][j] == expected[i][j])
            << "threads=" << threads << " cell (" << i << "," << j << ")";
      }
    }
  }
}

}  // namespace
}  // namespace freqywm
