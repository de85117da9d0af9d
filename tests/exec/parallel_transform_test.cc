// The sharded row transform (DESIGN.md §17) against the serial
// three-argument `TransformDataset`: at pool sizes 0/1/3/8 and several
// shard counts, with and without the base histogram, the rows and the
// generator's next draw must be identical.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/freqywm_scheme.h"
#include "common/random.h"
#include "core/watermark.h"
#include "datagen/power_law.h"
#include "exec/exec_context.h"
#include "exec/thread_pool.h"

namespace freqywm {
namespace {

Dataset PowerLawRows(uint64_t seed, size_t tokens, size_t rows) {
  Rng rng(seed);
  PowerLawSpec spec;
  spec.num_tokens = tokens;
  spec.sample_size = rows;
  spec.alpha = 0.8;
  return GeneratePowerLawDataset(spec, rng);
}

/// The histogram of `original` with every count moved by a random delta
/// in [-count, +3] on about a third of the tokens (a delta of -count
/// drops every occurrence), plus `extra` tokens the dictionary lacks.
/// Counts change in place, so most entries keep their rank.
Histogram RandomTarget(const Dataset& original, uint64_t seed,
                       size_t extra = 0) {
  Rng rng(seed);
  const Histogram hist = Histogram::FromDataset(original);
  Histogram target = hist;
  for (const HistogramEntry& e : hist.entries()) {
    if (rng.UniformU64(3) != 0) continue;
    const int64_t delta = static_cast<int64_t>(rng.UniformU64(e.count + 4)) -
                          static_cast<int64_t>(e.count);
    EXPECT_TRUE(target.AddDelta(e.token, delta).ok());
  }
  if (extra == 0) return target;
  // `FromCounts` takes no zero count: build emptied tokens at 1, then
  // empty them again.
  std::vector<HistogramEntry> entries = target.entries();
  std::vector<Token> emptied;
  for (HistogramEntry& e : entries) {
    if (e.count > 0) continue;
    emptied.push_back(e.token);
    e.count = 1;
  }
  for (size_t i = 0; i < extra; ++i) {
    entries.push_back(HistogramEntry{"unseen-" + std::to_string(i), i + 1});
  }
  Result<Histogram> grown = Histogram::FromCounts(std::move(entries));
  EXPECT_TRUE(grown.ok()) << grown.status();
  Histogram out = std::move(grown).value();
  for (const Token& token : emptied) {
    EXPECT_TRUE(out.SetCount(token, 0).ok());
  }
  return out;
}

/// Runs the sharded transform of `original` into `target` on `workers`
/// pool workers (0: no pool) over `shards` row shards, and expects the
/// rows, the dictionary and the next draw of the serial form.
void ExpectSameAsSerial(const Dataset& original, const Histogram& target,
                        uint64_t seed, size_t workers, size_t shards) {
  Rng serial_rng(seed);
  const Dataset expected = TransformDataset(original, target, serial_rng);
  const uint64_t expected_next = serial_rng.NextU64();

  std::unique_ptr<ThreadPool> pool;
  if (workers > 0) pool = std::make_unique<ThreadPool>(workers);
  const ExecContext exec(pool.get());
  const ShardedIdCounts counts = exec.CountIds(original, shards).value();
  ASSERT_EQ(counts.num_shards(), shards);
  ASSERT_EQ(counts.total, original.IdCounts());
  const Histogram base = Histogram::FromIdCounts(original.dictionary(),
                                                 counts.total);
  const Histogram* const bases[] = {&base, nullptr};
  for (const Histogram* with_base : bases) {
    Rng rng(seed);
    Result<Dataset> rows =
        TransformDataset(original, counts, with_base, target, rng, exec);
    ASSERT_TRUE(rows.ok()) << rows.status();
    const std::string where = "workers=" + std::to_string(workers) +
                              " shards=" + std::to_string(shards) +
                              (with_base ? " base" : " no base");
    EXPECT_EQ(rows.value().ids(), expected.ids()) << where;
    EXPECT_EQ(rows.value().dictionary().size(), expected.dictionary().size())
        << where;
    EXPECT_EQ(rows.value().tokens(), expected.tokens()) << where;
    EXPECT_EQ(rng.NextU64(), expected_next) << where;
  }
}

constexpr size_t kWorkers[] = {0, 1, 3, 8};

TEST(ParallelTransformTest, RandomTargetsMatchSerialAtAnyPoolAndShardCount) {
  for (uint64_t seed : {1, 2, 3, 4, 5}) {
    const Dataset original = PowerLawRows(seed, 60, 5000);
    const Histogram target = RandomTarget(original, seed + 100);
    for (size_t workers : kWorkers) {
      for (size_t shards : {1, 2, 3, 7, 16}) {
        ExpectSameAsSerial(original, target, seed + 200, workers, shards);
      }
    }
  }
}

TEST(ParallelTransformTest, TokensAbsentFromTheDictionaryAreAdded) {
  const Dataset original = PowerLawRows(6, 40, 3000);
  const Histogram target = RandomTarget(original, 106, /*extra=*/3);
  for (size_t workers : kWorkers) {
    for (size_t shards : {1, 4, 9}) {
      ExpectSameAsSerial(original, target, 206, workers, shards);
    }
  }
}

TEST(ParallelTransformTest, DatasetSmallerThanTheShardCount) {
  const Dataset original({"a", "b", "a", "c", "a"});
  Histogram target = Histogram::FromDataset(original);
  ASSERT_TRUE(target.AddDelta("a", -2).ok());
  ASSERT_TRUE(target.AddDelta("c", 3).ok());
  for (size_t workers : kWorkers) {
    for (size_t shards : {5, 8, 13}) {
      ExpectSameAsSerial(original, target, 7, workers, shards);
    }
  }
  for (size_t workers : kWorkers) {
    ExpectSameAsSerial(Dataset(), Histogram(), 8, workers, 4);
  }
}

TEST(ParallelTransformTest, DropsInAShardsFirstAndLastRow) {
  // Four shards of ten rows; "edge" sits in the first and last row of
  // every shard and is dropped entirely, "mid" loses two of its rows.
  std::vector<Token> tokens;
  for (size_t row = 0; row < 40; ++row) {
    const size_t in_shard = row % 10;
    tokens.push_back(in_shard == 0 || in_shard == 9 ? "edge"
                     : in_shard % 2 == 0           ? "mid"
                                                   : "filler");
  }
  const Dataset original(std::move(tokens));
  Histogram target = Histogram::FromDataset(original);
  ASSERT_TRUE(target.SetCount("edge", 0).ok());
  ASSERT_TRUE(target.AddDelta("mid", -2).ok());
  ASSERT_TRUE(target.AddDelta("filler", 2).ok());
  for (size_t workers : kWorkers) {
    ExpectSameAsSerial(original, target, 9, workers, 4);
  }
  Rng rng(9);
  for (const Token& token : TransformDataset(original, target, rng).tokens()) {
    EXPECT_NE(token, "edge");
  }
}

TEST(ParallelTransformTest, EmbedTargetsMatchSerial) {
  // A real FreqyWM target (a few hundred changed tokens out of a skewed
  // vocabulary) on the shard counts `ExecContext::RowShards` picks.
  const Dataset original = PowerLawRows(10, 3000, 400000);
  GenerateOptions options;
  options.modulus_bound = 131;
  for (uint64_t seed : {11, 12}) {
    options.seed = seed;
    auto embedded =
        FreqyWmScheme(options).Embed(Histogram::FromDataset(original));
    ASSERT_TRUE(embedded.ok()) << embedded.status();
    for (size_t workers : kWorkers) {
      std::unique_ptr<ThreadPool> pool;
      if (workers > 0) pool = std::make_unique<ThreadPool>(workers);
      const size_t shards = ExecContext(pool.get()).RowShards(original);
      ExpectSameAsSerial(original, embedded.value().watermarked, seed,
                         workers, shards);
    }
  }
}

}  // namespace
}  // namespace freqywm
