// Golden identity for the eligible-pair hot path (ISSUE 3): the pruned
// midstate scan — serial and sharded across 1/2/4/8 threads — must be
// byte-identical to the unpruned one-hash-per-pair reference
// (`BuildEligiblePairsReference`), for both eligibility rules and across
// the min_modulus / min_pair_cost grid. Tie-heavy histograms exercise the
// dead-token pruning hardest: most ranks have zero boundary slack.

#include "core/eligible.h"

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/watermark.h"
#include "datagen/power_law.h"
#include "exec/exec_context.h"
#include "exec/thread_pool.h"

namespace freqywm {
namespace {

Histogram MakePowerLaw(size_t tokens, size_t samples, uint64_t seed) {
  Rng rng(seed);
  PowerLawSpec spec;
  spec.num_tokens = tokens;
  spec.sample_size = samples;
  spec.alpha = 0.7;
  return GeneratePowerLawHistogram(spec, rng);
}

/// Worst case for pruning correctness: long tie plateaus (zero gaps on
/// both sides) interleaved with a steep head.
Histogram MakeTieHeavy() {
  std::vector<HistogramEntry> entries;
  uint64_t count = 4000;
  for (int head = 0; head < 20; ++head) {
    entries.push_back({"head" + std::to_string(head), count});
    count -= 97;
  }
  for (int plateau = 0; plateau < 8; ++plateau) {
    count -= (plateau % 3 == 0) ? 1 : 40;  // some adjacent, some wide gaps
    for (int t = 0; t < 25; ++t) {
      entries.push_back(
          {"p" + std::to_string(plateau) + "_" + std::to_string(t), count});
    }
  }
  auto hist = Histogram::FromCounts(std::move(entries));
  EXPECT_TRUE(hist.ok()) << hist.status();
  return hist.value();
}

void ExpectIdenticalPairLists(const std::vector<EligiblePair>& expected,
                              const std::vector<EligiblePair>& actual,
                              const std::string& label) {
  ASSERT_EQ(expected.size(), actual.size()) << label;
  for (size_t k = 0; k < expected.size(); ++k) {
    ASSERT_TRUE(expected[k] == actual[k]) << label << " at index " << k;
  }
}

struct RuleCase {
  const char* name;
  EligibilityRule rule;
};

void PrintTo(const RuleCase& c, std::ostream* os) { *os << c.name; }

class EligibleIdentityTest : public ::testing::TestWithParam<RuleCase> {};

TEST_P(EligibleIdentityTest, PrunedSerialScanMatchesReference) {
  const EligibilityRule rule = GetParam().rule;
  WatermarkSecret secret = GenerateSecret(256, 41);
  std::vector<Histogram> hists{MakePowerLaw(300, 60000, 7), MakeTieHeavy()};
  for (size_t h = 0; h < hists.size(); ++h) {
    for (uint64_t z : {131ull, 1031ull}) {
      PairModulus pm(secret, z);
      for (uint64_t min_modulus : {2ull, 11ull}) {
        for (uint64_t min_pair_cost : {0ull, 1ull, 5ull}) {
          auto reference = BuildEligiblePairsReference(
              hists[h], pm, rule, min_modulus, min_pair_cost);
          auto pruned = BuildEligiblePairs(hists[h], pm, rule, min_modulus,
                                           min_pair_cost);
          ExpectIdenticalPairLists(
              reference, pruned,
              "hist=" + std::to_string(h) + " z=" + std::to_string(z) +
                  " mm=" + std::to_string(min_modulus) +
                  " mpc=" + std::to_string(min_pair_cost));
        }
      }
    }
  }
}

TEST_P(EligibleIdentityTest, ShardedParallelScanMatchesReferenceAtAnyWidth) {
  const EligibilityRule rule = GetParam().rule;
  WatermarkSecret secret = GenerateSecret(256, 43);
  PairModulus pm(secret, 131);
  std::vector<Histogram> hists{MakePowerLaw(250, 50000, 11), MakeTieHeavy()};
  for (size_t h = 0; h < hists.size(); ++h) {
    auto reference = BuildEligiblePairsReference(hists[h], pm, rule, 2, 1);
    for (size_t threads : {1, 2, 4, 8}) {
      // `threads` is total parallelism: the caller participates, so the
      // pool holds threads - 1 workers (0 workers → serial dispatch).
      ThreadPool pool(threads - 1);
      ExecContext exec{&pool};
      auto parallel = BuildEligiblePairs(hists[h], pm, rule, 2, 1, exec);
      ExpectIdenticalPairLists(reference, parallel,
                               "hist=" + std::to_string(h) + " threads=" +
                                   std::to_string(threads));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    BothRules, EligibleIdentityTest,
    ::testing::Values(RuleCase{"paper", EligibilityRule::kPaper},
                      RuleCase{"strict", EligibilityRule::kStrictHalfGap}),
    ::testing::PrintToStringParamName());

TEST(EligibleIdentityTest, TinyAndDegenerateHistograms) {
  WatermarkSecret secret = GenerateSecret(256, 47);
  PairModulus pm(secret, 131);
  ThreadPool pool(3);
  ExecContext exec{&pool};

  // Two tokens, equal counts (all ties), single token.
  std::vector<std::vector<HistogramEntry>> cases{
      {{"a", 10}, {"b", 4}},
      {{"a", 10}, {"b", 10}, {"c", 10}},
      {{"solo", 5}},
  };
  for (auto& entries : cases) {
    auto hist = Histogram::FromCounts(entries);
    ASSERT_TRUE(hist.ok());
    for (auto rule :
         {EligibilityRule::kPaper, EligibilityRule::kStrictHalfGap}) {
      auto reference =
          BuildEligiblePairsReference(hist.value(), pm, rule, 2, 1);
      auto serial = BuildEligiblePairs(hist.value(), pm, rule, 2, 1);
      auto parallel = BuildEligiblePairs(hist.value(), pm, rule, 2, 1, exec);
      ExpectIdenticalPairLists(reference, serial, "serial");
      ExpectIdenticalPairLists(reference, parallel, "parallel");
    }
  }
}

// The generator-level contract: a pool-carrying ExecContext yields the
// same secrets, report and watermarked histogram as the serial call at
// any thread count.
TEST(ParallelGenerateTest, ExecAwareGenerateIdenticalToSerial) {
  Histogram hist = MakePowerLaw(200, 80000, 13);
  GenerateOptions options;
  options.budget_percent = 2.0;
  options.modulus_bound = 131;
  options.seed = 99;
  WatermarkGenerator gen(options);

  auto serial = gen.GenerateFromHistogram(hist);
  ASSERT_TRUE(serial.ok()) << serial.status();
  for (size_t threads : {2, 4, 8}) {
    ThreadPool pool(threads - 1);
    ExecContext exec{&pool};
    auto parallel = gen.GenerateFromHistogram(hist, exec);
    ASSERT_TRUE(parallel.ok()) << parallel.status();
    EXPECT_TRUE(parallel.value().watermarked.entries() ==
                serial.value().watermarked.entries());
    EXPECT_TRUE(parallel.value().report.secrets ==
                serial.value().report.secrets);
    EXPECT_EQ(parallel.value().report.eligible_pairs,
              serial.value().report.eligible_pairs);
    EXPECT_EQ(parallel.value().report.chosen_pairs,
              serial.value().report.chosen_pairs);
    EXPECT_EQ(parallel.value().report.total_churn,
              serial.value().report.total_churn);
  }
}

// An unsorted histogram must be rejected with InvalidArgument by the
// histogram entry point, serial and pooled, in every build type —
// BuildEligiblePairs on unsorted ranks would silently yield garbage pairs
// in release builds where its assert is compiled out. (`Generate` builds
// its own, always sorted, histogram from the dataset.)
TEST(UnsortedHistogramTest, GeneratorEntryPointsRejectUnsortedHistogram) {
  Histogram hist = MakePowerLaw(50, 5000, 17);
  // Break the ranking invariant through the mutation API.
  const Token& last = hist.entry(hist.num_tokens() - 1).token;
  ASSERT_TRUE(hist.SetCount(last, hist.entry(0).count + 100).ok());
  ASSERT_FALSE(hist.IsSortedDescending());

  GenerateOptions options;
  options.seed = 3;
  WatermarkGenerator gen(options);

  auto serial = gen.GenerateFromHistogram(hist);
  ASSERT_FALSE(serial.ok());
  EXPECT_EQ(serial.status().code(), StatusCode::kInvalidArgument);

  ThreadPool pool(2);
  ExecContext exec{&pool};
  auto parallel = gen.GenerateFromHistogram(hist, exec);
  ASSERT_FALSE(parallel.ok());
  EXPECT_EQ(parallel.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace freqywm
