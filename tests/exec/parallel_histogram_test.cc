#include "exec/parallel_histogram.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "api/factory.h"
#include "api/scheme.h"
#include "common/random.h"
#include "datagen/power_law.h"
#include "exec/exec_context.h"

namespace freqywm {
namespace {

Dataset MakeDataset(size_t tokens, size_t samples, uint64_t seed) {
  Rng rng(seed);
  PowerLawSpec spec;
  spec.num_tokens = tokens;
  spec.sample_size = samples;
  spec.alpha = 0.6;
  return GeneratePowerLawDataset(spec, rng);
}

void ExpectIdentical(const Histogram& a, const Histogram& b) {
  ASSERT_EQ(a.num_tokens(), b.num_tokens());
  EXPECT_EQ(a.total_count(), b.total_count());
  // entry order (ranks) must match exactly, not just the count multiset.
  EXPECT_TRUE(a.entries() == b.entries());
  for (size_t rank = 0; rank < a.num_tokens(); ++rank) {
    ASSERT_EQ(b.RankOf(a.entry(rank).token), rank);
  }
}

TEST(ParallelHistogramTest, MatchesSerialBuildOnLargeDataset) {
  Dataset dataset = MakeDataset(400, 200000, 11);
  Histogram serial = Histogram::FromDataset(dataset);
  for (size_t threads : {1, 2, 4, 7}) {
    ThreadPool pool(threads);
    Histogram sharded = ExecContext{&pool}.BuildHistogram(dataset);
    ExpectIdentical(serial, sharded);
  }
}

TEST(ParallelHistogramTest, ManyTiedCountsKeepDeterministicOrder) {
  // All tokens appear exactly twice: every rank is decided by the
  // tie-break (ascending token bytes), the worst case for ordering bugs.
  std::vector<Token> tokens;
  for (int i = 0; i < 40000; ++i) {
    tokens.push_back("tok" + std::to_string(i % 20000));
  }
  Dataset dataset(std::move(tokens));
  Histogram serial = Histogram::FromDataset(dataset);
  ThreadPool pool(4);
  ExpectIdentical(serial, ExecContext{&pool}.BuildHistogram(dataset));
}

TEST(ParallelHistogramTest, SmallAndEmptyDatasetsFallBackToSerial) {
  ThreadPool pool(4);
  Histogram empty = ExecContext{&pool}.BuildHistogram(Dataset());
  EXPECT_TRUE(empty.empty());

  Dataset tiny(std::vector<Token>{"a", "b", "a"});
  ExpectIdentical(Histogram::FromDataset(tiny),
                  ExecContext{&pool}.BuildHistogram(tiny));
}

TEST(ParallelHistogramTest, ExecContextDispatchesSerialAndParallel) {
  Dataset dataset = MakeDataset(200, 100000, 5);
  Histogram serial = ExecContext{}.BuildHistogram(dataset);
  ThreadPool pool(3);
  ExecContext parallel{&pool};
  EXPECT_TRUE(parallel.parallel());
  ExpectIdentical(serial, parallel.BuildHistogram(dataset));
}

// The parallel embed determinism contract (DESIGN.md §7): for every
// registered scheme, EmbedDataset through a pool-carrying ExecContext is
// bit-identical to the serial call — same watermarked rows, key and
// report.
class ParallelEmbedTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ParallelEmbedTest, ParallelEmbedIdenticalToSerial) {
  Dataset original = MakeDataset(150, 60000, 23);
  OptionBag bag;
  bag.Set("seed", "77");
  auto scheme = SchemeFactory::Create(GetParam(), bag);
  ASSERT_TRUE(scheme.ok()) << scheme.status();

  auto serial = scheme.value()->EmbedDataset(original);
  ASSERT_TRUE(serial.ok()) << serial.status();

  ThreadPool pool(4);
  ExecContext exec{&pool};
  auto parallel = scheme.value()->EmbedDataset(original, exec);
  ASSERT_TRUE(parallel.ok()) << parallel.status();

  EXPECT_EQ(parallel.value().key, serial.value().key);
  EXPECT_TRUE(parallel.value().watermarked.tokens() ==
              serial.value().watermarked.tokens());
  EXPECT_EQ(parallel.value().report.embedded_units,
            serial.value().report.embedded_units);
  EXPECT_EQ(parallel.value().report.total_churn,
            serial.value().report.total_churn);
}

INSTANTIATE_TEST_SUITE_P(
    AllRegisteredSchemes, ParallelEmbedTest,
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
