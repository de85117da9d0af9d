// The blocked session matrix (DESIGN.md §18): vocabulary keys are
// scheduled in key-major tiles of up to 16 keys × 16 suspects, shrunk to
// the matrix shape, and whole-histogram keys one cell per block. Key
// counts on both sides of a tile edge (1, 15, 17), a trace-sized column
// (1,000) and mixed-scheme columns must give the verdicts of a
// hand-written serial loop at every thread count, through
// `DetectChecked` and `DrainChecked` alike.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "api/factory.h"
#include "api/freqywm_scheme.h"
#include "common/stopwatch.h"
#include "common/random.h"
#include "datagen/power_law.h"
#include "exec/batch_detector.h"
#include "exec/cancellation.h"
#include "exec/prepared_key_cache.h"
#include "exec/thread_pool.h"

namespace freqywm {
namespace {

constexpr size_t kMaxKeys = 1000;
constexpr size_t kMaxSuspects = 5;

Histogram MakeHistogram(uint64_t seed, size_t tokens) {
  Rng rng(seed);
  PowerLawSpec spec;
  spec.num_tokens = tokens;
  spec.sample_size = 40000;
  spec.alpha = 0.7;
  return GeneratePowerLawHistogram(spec, rng);
}

/// 1,000 greedy z=131 FreqyWM keys off one small base, five suspects
/// (three buyers' copies, the base, and the base's 20 most frequent
/// tokens alone, so pairs go missing), and the serial reference matrix.
struct Market {
  std::vector<SchemeKey> keys;
  std::vector<Histogram> suspects;
  std::vector<std::vector<DetectResult>> reference;

  Market() {
    const Histogram base = MakeHistogram(5, 40);
    std::vector<Histogram> copies(kMaxKeys);
    keys.resize(kMaxKeys);
    ThreadPool pool(3);
    pool.ParallelFor(kMaxKeys, [&](size_t i) {
      GenerateOptions options;
      options.strategy = SelectionStrategy::kGreedy;
      options.modulus_bound = 131;
      options.seed = 7000 + i;
      auto outcome = FreqyWmScheme(options).Embed(base);
      if (!outcome.ok()) return;
      keys[i] = std::move(outcome.value().key);
      copies[i] = std::move(outcome.value().watermarked);
    });
    std::vector<HistogramEntry> head(base.entries().begin(),
                                     base.entries().begin() + 20);
    suspects = {copies[0], copies[16], copies[kMaxKeys - 1], base,
                Histogram::FromCounts(std::move(head)).value()};

    const FreqyWmScheme scheme;
    reference.assign(kMaxSuspects, std::vector<DetectResult>(kMaxKeys));
    for (size_t i = 0; i < kMaxSuspects; ++i) {
      for (size_t j = 0; j < kMaxKeys; ++j) {
        reference[i][j] = scheme.Detect(
            suspects[i], keys[j], scheme.RecommendedDetectOptions(keys[j]));
      }
    }
  }
};

const Market& GetMarket() {
  static const Market* market = new Market();
  return *market;
}

TEST(BlockedDrainTest, EveryShapeAndThreadCountMatchesTheSerialLoop) {
  const Market& market = GetMarket();
  for (const SchemeKey& key : market.keys) {
    ASSERT_FALSE(key.payload.empty()) << "an embed failed";
  }
  // The truncated base loses pairs the full base still has.
  bool lost_pairs = false;
  for (size_t j = 0; j < kMaxKeys; ++j) {
    lost_pairs = lost_pairs || market.reference[4][j].pairs_found <
                                   market.reference[3][j].pairs_found;
  }
  EXPECT_TRUE(lost_pairs);

  auto cache = std::make_shared<PreparedKeyCache>(kMaxKeys);
  for (size_t num_keys : {1, 15, 17, 1000}) {
    const std::vector<SchemeKey> keys(market.keys.begin(),
                                      market.keys.begin() + num_keys);
    for (size_t threads : {1, 2, 3, 4, 8}) {
      BatchDetectOptions options;
      options.num_threads = threads;
      options.key_cache = cache;
      BatchDetector::Session session(options, keys);
      for (size_t num_suspects = 1; num_suspects <= kMaxSuspects;
           ++num_suspects) {
        const std::vector<Histogram> suspects(
            market.suspects.begin(), market.suspects.begin() + num_suspects);
        const std::string where = std::to_string(num_suspects) + " x " +
                                  std::to_string(num_keys) + " on " +
                                  std::to_string(threads) + " threads";

        session.AddSuspects(suspects);
        const SessionDrainResult checked =
            session.DrainChecked(InterruptContext{});
        ASSERT_TRUE(checked.status.ok()) << where << ": " << checked.status;
        EXPECT_TRUE(checked.cell_errors.empty()) << where;
        ASSERT_EQ(checked.evaluated.size(), num_suspects * num_keys);
        for (uint8_t e : checked.evaluated) ASSERT_EQ(e, 1) << where;

        session.AddSuspects(suspects);
        const std::vector<std::vector<DetectResult>> drained =
            session.DrainChecked(InterruptContext{}).verdicts;
        const std::vector<std::vector<DetectResult>> detected =
            session.DetectChecked(suspects, InterruptContext{}).verdicts;
        ASSERT_EQ(checked.verdicts.size(), num_suspects) << where;
        ASSERT_EQ(drained.size(), num_suspects) << where;
        for (size_t i = 0; i < num_suspects; ++i) {
          for (size_t j = 0; j < num_keys; ++j) {
            const DetectResult& expected = market.reference[i][j];
            ASSERT_EQ(checked.verdicts[i][j], expected)
                << where << " cell (" << i << "," << j << ")";
            ASSERT_EQ(drained[i][j], expected)
                << where << " cell (" << i << "," << j << ")";
            ASSERT_EQ(detected[i][j], expected)
                << where << " cell (" << i << "," << j << ")";
          }
        }
      }
    }
  }
}

TEST(BlockedDrainTest, SuspectTilesPastSixteenMatchTheSerialLoop) {
  const Market& market = GetMarket();
  // 37 suspects span three suspect tiles (16 + 16 + 5) of 17 keys' two
  // key tiles.
  std::vector<Histogram> suspects;
  for (size_t i = 0; i < 37; ++i) {
    suspects.push_back(market.suspects[i % kMaxSuspects]);
  }
  const std::vector<SchemeKey> keys(market.keys.begin(),
                                    market.keys.begin() + 17);
  for (size_t threads : {1, 3, 4}) {
    BatchDetectOptions options;
    options.num_threads = threads;
    BatchDetector::Session session(options, keys);
    session.AddSuspects(suspects);
    const SessionDrainResult result = session.DrainChecked(InterruptContext{});
    ASSERT_TRUE(result.status.ok()) << result.status;
    for (size_t i = 0; i < suspects.size(); ++i) {
      for (size_t j = 0; j < keys.size(); ++j) {
        ASSERT_EQ(result.evaluated[i * keys.size() + j], 1);
        ASSERT_EQ(result.verdicts[i][j], market.reference[i % kMaxSuspects][j])
            << threads << " threads, cell (" << i << "," << j << ")";
      }
    }
  }
}

TEST(BlockedDrainTest, AlreadyCancelledContextEvaluatesNoCell) {
  const Market& market = GetMarket();
  CancellationSource source;
  source.Cancel();
  for (size_t threads : {1, 4}) {
    BatchDetectOptions options;
    options.num_threads = threads;
    BatchDetector::Session session(options, market.keys);
    session.AddSuspects(market.suspects);
    const SessionDrainResult result =
        session.DrainChecked(InterruptContext{source.token(), Deadline()});
    EXPECT_EQ(result.status.code(), StatusCode::kCancelled);
    EXPECT_EQ(session.pending_suspects(), 0u);  // claimed all the same
    ASSERT_EQ(result.evaluated.size(), kMaxSuspects * kMaxKeys);
    for (uint8_t e : result.evaluated) EXPECT_EQ(e, 0);
    for (const std::vector<DetectResult>& row : result.verdicts) {
      for (const DetectResult& cell : row) EXPECT_EQ(cell, DetectResult{});
    }
  }
}

/// A mixed column: whole-histogram WM-RVS keys interleaved with FreqyWM
/// vocabulary keys and one unregistered tag, so vocabulary runs are cut
/// by single-cell blocks, against suspects large enough that a WM-RVS
/// cell is far from free.
struct MixedMarket {
  std::vector<SchemeKey> keys;
  std::vector<Histogram> suspects;
  std::vector<std::vector<DetectResult>> reference;

  MixedMarket() {
    const Histogram base = MakeHistogram(11, 3000);
    for (size_t b = 0; b < 15; ++b) {
      const std::string name = b % 3 == 1 ? "freqywm" : "wm-rvs";
      OptionBag bag;
      bag.Set("seed", std::to_string(900 + b));
      if (name == "freqywm") bag.Set("strategy", "greedy");
      auto scheme = SchemeFactory::Create(name, bag);
      EXPECT_TRUE(scheme.ok()) << scheme.status();
      auto outcome = scheme.value()->Embed(base);
      EXPECT_TRUE(outcome.ok()) << outcome.status();
      keys.push_back(outcome.value().key);
      if (suspects.size() < 4) suspects.push_back(outcome.value().watermarked);
    }
    keys.insert(keys.begin() + 5, SchemeKey{"no-such-scheme", "payload"});
    suspects.push_back(base);

    reference.assign(suspects.size(), std::vector<DetectResult>(keys.size()));
    for (size_t j = 0; j < keys.size(); ++j) {
      auto scheme = SchemeFactory::Create(keys[j].scheme);
      if (!scheme.ok()) continue;
      for (size_t i = 0; i < suspects.size(); ++i) {
        reference[i][j] = scheme.value()->Detect(
            suspects[i], keys[j],
            scheme.value()->RecommendedDetectOptions(keys[j]));
      }
    }
  }
};

const MixedMarket& GetMixedMarket() {
  static const MixedMarket* market = new MixedMarket();
  return *market;
}

TEST(BlockedDrainTest, MixedSchemeColumnsMatchTheSerialLoop) {
  const MixedMarket& market = GetMixedMarket();
  for (size_t threads : {1, 2, 4, 8}) {
    BatchDetectOptions options;
    options.num_threads = threads;
    BatchDetector::Session session(options, market.keys);
    session.AddSuspects(market.suspects);
    const SessionDrainResult checked = session.DrainChecked(InterruptContext{});
    ASSERT_TRUE(checked.status.ok()) << checked.status;
    const std::vector<std::vector<DetectResult>> detected =
        session.DetectChecked(market.suspects, InterruptContext{}).verdicts;
    for (size_t i = 0; i < market.suspects.size(); ++i) {
      for (size_t j = 0; j < market.keys.size(); ++j) {
        const bool registered = session.key_statuses()[j].ok();
        EXPECT_EQ(checked.evaluated[i * market.keys.size() + j],
                  registered ? 1 : 0);
        ASSERT_EQ(checked.verdicts[i][j], market.reference[i][j])
            << threads << " threads, cell (" << i << "," << j << ")";
        ASSERT_EQ(detected[i][j], market.reference[i][j])
            << threads << " threads, cell (" << i << "," << j << ")";
      }
    }
  }
}

TEST(BlockedDrainTest, DeadlineStopsAMixedSessionBetweenHistogramCells) {
  // 16 keys × 5 suspects would be a single 16 × 16 tile if whole-histogram
  // keys shared blocks, and a deadline met inside it would go unseen until
  // the whole matrix was done. With one such cell per block, a deadline a
  // quarter of the way through stops the drain part-way.
  const MixedMarket& market = GetMixedMarket();
  const size_t cells = market.suspects.size() * market.keys.size();
  for (size_t threads : {1, 2}) {
    BatchDetectOptions options;
    options.num_threads = threads;
    BatchDetector::Session session(options, market.keys);
    double full_s = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
      Stopwatch watch;
      const SessionDrainResult full =
          session.DetectChecked(market.suspects, InterruptContext{});
      const double elapsed = watch.ElapsedSeconds();
      ASSERT_TRUE(full.status.ok()) << full.status;
      full_s = rep == 0 ? elapsed : std::min(full_s, elapsed);
    }
    const auto budget = std::chrono::duration_cast<std::chrono::nanoseconds>(
        std::chrono::duration<double>(full_s / 4));
    const SessionDrainResult cut = session.DetectChecked(
        market.suspects,
        InterruptContext{CancellationToken(), Deadline::After(budget)});
    EXPECT_EQ(cut.status.code(), StatusCode::kDeadlineExceeded)
        << threads << " threads, full drain " << full_s << " s";
    const size_t evaluated = static_cast<size_t>(
        std::count(cut.evaluated.begin(), cut.evaluated.end(), uint8_t{1}));
    EXPECT_LT(evaluated, cells) << threads << " threads";
    // Whatever was evaluated before the deadline is exact.
    for (size_t i = 0; i < market.suspects.size(); ++i) {
      for (size_t j = 0; j < market.keys.size(); ++j) {
        if (cut.evaluated[i * market.keys.size() + j] == 0) continue;
        EXPECT_EQ(cut.verdicts[i][j], market.reference[i][j]);
      }
    }
  }
}

}  // namespace
}  // namespace freqywm
