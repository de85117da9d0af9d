#include "core/select.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <set>
#include <vector>

#include "datagen/power_law.h"
#include "stats/similarity.h"

namespace freqywm {
namespace {

struct Fixture {
  Histogram hist;
  std::vector<EligiblePair> eligible;
};

Fixture MakeFixture(uint64_t seed, uint64_t z = 131, double alpha = 0.7,
                    size_t tokens = 120, size_t samples = 150000) {
  Rng rng(seed);
  PowerLawSpec spec;
  spec.num_tokens = tokens;
  spec.sample_size = samples;
  spec.alpha = alpha;
  Fixture f;
  f.hist = GeneratePowerLawHistogram(spec, rng);
  PairModulus pm(GenerateSecret(256, seed + 1), z);
  f.eligible = BuildEligiblePairs(f.hist, pm, EligibilityRule::kPaper);
  return f;
}

GenerateOptions MakeOptions(SelectionStrategy strategy, double budget = 2.0,
                            uint64_t z = 131) {
  GenerateOptions o;
  o.strategy = strategy;
  o.budget_percent = budget;
  o.modulus_bound = z;
  o.seed = 42;
  return o;
}

void ExpectTokenDisjoint(const std::vector<EligiblePair>& eligible,
                         const std::vector<size_t>& chosen) {
  std::set<size_t> used;
  for (size_t idx : chosen) {
    EXPECT_TRUE(used.insert(eligible[idx].rank_i).second);
    EXPECT_TRUE(used.insert(eligible[idx].rank_j).second);
  }
}

struct StrategyCase {
  const char* name;
  SelectionStrategy strategy;
};

void PrintTo(const StrategyCase& c, std::ostream* os) { *os << c.name; }

class StrategyTest : public ::testing::TestWithParam<StrategyCase> {
 protected:
  SelectionStrategy strategy() const { return GetParam().strategy; }
};

TEST_P(StrategyTest, ChosenPairsAreTokenDisjoint) {
  Fixture f = MakeFixture(1);
  Rng rng(7);
  SelectionResult r =
      SelectPairs(f.hist, f.eligible, MakeOptions(strategy()), rng);
  EXPECT_FALSE(r.chosen.empty());
  ExpectTokenDisjoint(f.eligible, r.chosen);
}

TEST_P(StrategyTest, SimilarityBudgetRespected) {
  Fixture f = MakeFixture(2);
  Rng rng(8);
  const double budget = 1.0;
  SelectionResult r =
      SelectPairs(f.hist, f.eligible, MakeOptions(strategy(), budget), rng);
  EXPECT_GE(r.similarity_percent, 100.0 - budget);

  // Verify against a full recomputation.
  Histogram modified = f.hist;
  for (size_t idx : r.chosen) {
    const auto& p = f.eligible[idx];
    ASSERT_TRUE(
        modified.AddDelta(f.hist.entry(p.rank_i).token, p.delta_i).ok());
    ASSERT_TRUE(
        modified.AddDelta(f.hist.entry(p.rank_j).token, p.delta_j).ok());
  }
  EXPECT_NEAR(HistogramSimilarityPercent(f.hist, modified),
              r.similarity_percent, 1e-6);
}

TEST_P(StrategyTest, EmptyEligibleListYieldsEmptySelection) {
  Fixture f = MakeFixture(3);
  Rng rng(9);
  SelectionResult r = SelectPairs(f.hist, {}, MakeOptions(strategy()), rng);
  EXPECT_TRUE(r.chosen.empty());
  EXPECT_DOUBLE_EQ(r.similarity_percent, 100.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, StrategyTest,
    ::testing::Values(StrategyCase{"optimal", SelectionStrategy::kOptimal},
                      StrategyCase{"greedy", SelectionStrategy::kGreedy},
                      StrategyCase{"random", SelectionStrategy::kRandom}),
    ::testing::PrintToStringParamName());

TEST(SelectTest, OptimalDominatesHeuristics) {
  // Fig. 2a's core claim: optimal >= greedy, random in chosen-pair count.
  for (uint64_t seed : {10ull, 20ull, 30ull}) {
    Fixture f = MakeFixture(seed);
    Rng rng(seed);
    size_t optimal =
        SelectPairs(f.hist, f.eligible,
                    MakeOptions(SelectionStrategy::kOptimal), rng)
            .chosen.size();
    size_t greedy =
        SelectPairs(f.hist, f.eligible,
                    MakeOptions(SelectionStrategy::kGreedy), rng)
            .chosen.size();
    size_t random =
        SelectPairs(f.hist, f.eligible,
                    MakeOptions(SelectionStrategy::kRandom), rng)
            .chosen.size();
    EXPECT_GE(optimal, greedy) << "seed " << seed;
    EXPECT_GE(optimal, random) << "seed " << seed;
  }
}

TEST(SelectTest, LargerBudgetNeverChoosesFewerPairs) {
  // Fig. 2c's mechanism.
  Fixture f = MakeFixture(4);
  Rng rng(11);
  size_t prev = 0;
  for (double budget : {0.1, 0.5, 2.0, 8.0}) {
    SelectionResult r = SelectPairs(
        f.hist, f.eligible,
        MakeOptions(SelectionStrategy::kGreedy, budget), rng);
    EXPECT_GE(r.chosen.size(), prev) << "budget " << budget;
    prev = r.chosen.size();
  }
}

TEST(SelectTest, GreedyPrefersSmallRemainders) {
  Fixture f = MakeFixture(5);
  Rng rng(12);
  SelectionResult r = SelectPairs(
      f.hist, f.eligible, MakeOptions(SelectionStrategy::kGreedy, 0.05), rng);
  ASSERT_FALSE(r.chosen.empty());
  // Under a tight budget greedy takes cheap (small-remainder) pairs; the
  // average remainder of chosen pairs should be well below the average of
  // all eligible pairs.
  double chosen_avg = 0, all_avg = 0;
  for (size_t idx : r.chosen) {
    chosen_avg += static_cast<double>(f.eligible[idx].remainder);
  }
  chosen_avg /= static_cast<double>(r.chosen.size());
  for (const auto& p : f.eligible) {
    all_avg += static_cast<double>(p.remainder);
  }
  all_avg /= static_cast<double>(f.eligible.size());
  EXPECT_LT(chosen_avg, all_avg);
}

TEST(SelectTest, RandomStrategyIsSeedDeterministic) {
  Fixture f = MakeFixture(6);
  Rng rng1(99), rng2(99);
  auto r1 = SelectPairs(f.hist, f.eligible,
                        MakeOptions(SelectionStrategy::kRandom), rng1);
  auto r2 = SelectPairs(f.hist, f.eligible,
                        MakeOptions(SelectionStrategy::kRandom), rng2);
  EXPECT_EQ(r1.chosen, r2.chosen);
}

TEST(SelectTest, WeightFormulaAblationBothWork) {
  Fixture f = MakeFixture(7);
  Rng rng(13);
  GenerateOptions paper = MakeOptions(SelectionStrategy::kOptimal);
  paper.weight_formula = WeightFormula::kPaperRemainder;
  GenerateOptions cost = MakeOptions(SelectionStrategy::kOptimal);
  cost.weight_formula = WeightFormula::kEffectiveCost;
  auto rp = SelectPairs(f.hist, f.eligible, paper, rng);
  auto rc = SelectPairs(f.hist, f.eligible, cost, rng);
  EXPECT_FALSE(rp.chosen.empty());
  EXPECT_FALSE(rc.chosen.empty());
  ExpectTokenDisjoint(f.eligible, rp.chosen);
  ExpectTokenDisjoint(f.eligible, rc.chosen);
}

TEST(SelectTest, OptimalFillSolvesEquallyValuedKnapsack) {
  // §III-B2's equally-valued 0/1 knapsack, solved inline by the
  // ascending-cost fill over the matched pairs: under the additive churn
  // budget each matched pair weighs its cost and is worth one. At 100 %
  // every matched pair fits (call that set M). At a smaller budget b the
  // choice must be a subset of M, as large as the longest cheapest-first
  // prefix of M within floor(b% * total), and no subset of M may be
  // larger (exhaustive search; 12 tokens leave at most 6 pairs).
  size_t partial_fills = 0;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Fixture f = MakeFixture(seed, 131, 0.7, 12, 3000);
    GenerateOptions options = MakeOptions(SelectionStrategy::kOptimal, 100.0);
    options.budget_mode = BudgetMode::kAdditiveChurn;
    Rng rng(seed);
    const std::vector<size_t> matched =
        SelectPairs(f.hist, f.eligible, options, rng).chosen;
    ASSERT_LE(matched.size(), 6u);
    const std::set<size_t> m(matched.begin(), matched.end());
    std::vector<uint64_t> costs;
    for (size_t idx : matched) costs.push_back(f.eligible[idx].cost);
    std::sort(costs.begin(), costs.end());

    for (double budget : {0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0}) {
      options.budget_percent = budget;
      SelectionResult r = SelectPairs(f.hist, f.eligible, options, rng);
      const uint64_t capacity = static_cast<uint64_t>(
          budget / 100.0 * static_cast<double>(f.hist.total_count()));
      for (size_t idx : r.chosen) {
        EXPECT_EQ(m.count(idx), 1u) << "seed " << seed << " budget " << budget;
      }

      size_t prefix = 0;
      uint64_t used = 0;
      while (prefix < costs.size() && used + costs[prefix] <= capacity) {
        used += costs[prefix++];
      }
      EXPECT_EQ(r.chosen.size(), prefix)
          << "seed " << seed << " budget " << budget;

      size_t best = 0;
      for (uint32_t mask = 0; mask < (1u << costs.size()); ++mask) {
        uint64_t weight = 0;
        size_t count = 0;
        for (size_t i = 0; i < costs.size(); ++i) {
          if (mask & (1u << i)) {
            weight += costs[i];
            ++count;
          }
        }
        if (weight <= capacity) best = std::max(best, count);
      }
      EXPECT_EQ(r.chosen.size(), best)
          << "seed " << seed << " budget " << budget;
      if (prefix > 0 && prefix < costs.size()) ++partial_fills;
    }
  }
  // The budgets must bind: some fill stops strictly inside M.
  EXPECT_GT(partial_fills, 0u);
}

TEST(SelectTest, ZeroBudgetAdmitsOnlyFreePairs) {
  Fixture f = MakeFixture(8);
  Rng rng(14);
  SelectionResult r = SelectPairs(
      f.hist, f.eligible, MakeOptions(SelectionStrategy::kGreedy, 0.0), rng);
  for (size_t idx : r.chosen) {
    EXPECT_EQ(f.eligible[idx].cost, 0u);
  }
  EXPECT_DOUBLE_EQ(r.similarity_percent, 100.0);
}

}  // namespace
}  // namespace freqywm
