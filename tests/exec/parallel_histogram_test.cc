// `ExecContext::BuildHistogram` against `Histogram::FromDataset` with no
// pool and with pools of 1 and 3 workers, and the parallel embed
// determinism contract (DESIGN.md §7).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "api/factory.h"
#include "api/scheme.h"
#include "common/random.h"
#include "datagen/power_law.h"
#include "exec/exec_context.h"
#include "exec/thread_pool.h"

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

/// `ExecContext::BuildHistogram` and `BuildHistogramChecked` at pool
/// sizes 0, 1 and 3 all equal `Histogram::FromDataset(dataset)`.
void ExpectBuildsMatchFromDataset(const Dataset& dataset) {
  const Histogram serial = Histogram::FromDataset(dataset);
  for (size_t workers : {0, 1, 3}) {
    std::unique_ptr<ThreadPool> pool;
    if (workers > 0) pool = std::make_unique<ThreadPool>(workers);
    const ExecContext exec{pool.get()};
    ExpectIdentical(serial, exec.BuildHistogram(dataset));
    Result<Histogram> checked = exec.BuildHistogramChecked(dataset);
    ASSERT_TRUE(checked.ok()) << checked.status();
    ExpectIdentical(serial, checked.value());
  }
}

TEST(ParallelHistogramTest, MatchesSerialBuildOnLargeDataset) {
  ExpectBuildsMatchFromDataset(MakeDataset(400, 200000, 11));
}

TEST(ParallelHistogramTest, ManyTiedCountsKeepDeterministicOrder) {
  // All tokens appear exactly twice: every rank is decided by the
  // tie-break (ascending token bytes), the worst case for ordering bugs.
  std::vector<Token> tokens;
  for (int i = 0; i < 40000; ++i) {
    tokens.push_back("tok" + std::to_string(i % 20000));
  }
  ExpectBuildsMatchFromDataset(Dataset(std::move(tokens)));
}

TEST(ParallelHistogramTest, SmallAndEmptyDatasetsFallBackToSerial) {
  ThreadPool pool(4);
  Histogram empty = ExecContext{&pool}.BuildHistogram(Dataset());
  EXPECT_TRUE(empty.empty());
  ExpectBuildsMatchFromDataset(Dataset(std::vector<Token>{"a", "b", "a"}));
}

TEST(ParallelHistogramTest, ExecContextDispatchesSerialAndParallel) {
  ThreadPool pool(3);
  EXPECT_TRUE(ExecContext{&pool}.parallel());
  EXPECT_FALSE(ExecContext{}.parallel());
  ExpectBuildsMatchFromDataset(MakeDataset(200, 100000, 5));
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
