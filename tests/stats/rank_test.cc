#include "stats/rank.h"

#include <gtest/gtest.h>

namespace freqywm {
namespace {

Histogram MakeHist(std::vector<HistogramEntry> entries) {
  auto h = Histogram::FromCounts(std::move(entries));
  EXPECT_TRUE(h.ok());
  return std::move(h).value();
}

TEST(SpearmanTest, PerfectAgreement) {
  EXPECT_DOUBLE_EQ(SpearmanCorrelation({5, 4, 3, 2, 1}, {50, 40, 30, 20, 10}),
                   1.0);
}

TEST(SpearmanTest, PerfectDisagreement) {
  EXPECT_NEAR(SpearmanCorrelation({1, 2, 3, 4, 5}, {5, 4, 3, 2, 1}), -1.0,
              1e-12);
}

TEST(SpearmanTest, TiesGetAverageRanks) {
  // With ties the coefficient stays defined and within [-1, 1].
  double rho = SpearmanCorrelation({1, 1, 2, 3}, {2, 1, 1, 3});
  EXPECT_GE(rho, -1.0);
  EXPECT_LE(rho, 1.0);
}

TEST(SpearmanTest, ConstantSeriesIsOne) {
  EXPECT_DOUBLE_EQ(SpearmanCorrelation({2, 2, 2}, {1, 2, 3}), 1.0);
}

TEST(CompareRankingsTest, IdenticalHistogramsUnchanged) {
  Histogram h = MakeHist({{"a", 30}, {"b", 20}, {"c", 10}});
  RankComparison cmp = CompareRankings(h, h);
  EXPECT_EQ(cmp.changed, 0u);
  EXPECT_EQ(cmp.compared, 3u);
  EXPECT_DOUBLE_EQ(cmp.spearman, 1.0);
}

TEST(CompareRankingsTest, FrequencyChangeWithoutRankChange) {
  Histogram a = MakeHist({{"a", 30}, {"b", 20}, {"c", 10}});
  Histogram b = MakeHist({{"a", 29}, {"b", 21}, {"c", 10}});
  RankComparison cmp = CompareRankings(a, b);
  EXPECT_EQ(cmp.changed, 0u);
  EXPECT_DOUBLE_EQ(cmp.spearman, 1.0);
}

TEST(CompareRankingsTest, SwapDetected) {
  Histogram a = MakeHist({{"a", 30}, {"b", 20}, {"c", 10}});
  Histogram b = MakeHist({{"a", 30}, {"b", 9}, {"c", 10}});
  RankComparison cmp = CompareRankings(a, b);
  EXPECT_EQ(cmp.changed, 2u);  // b and c swapped positions
  EXPECT_LT(cmp.spearman, 1.0);
}

TEST(CompareRankingsTest, MissingTokensExcluded) {
  Histogram a = MakeHist({{"a", 30}, {"b", 20}, {"c", 10}});
  Histogram b = MakeHist({{"a", 30}, {"b", 20}});
  RankComparison cmp = CompareRankings(a, b);
  EXPECT_EQ(cmp.compared, 2u);
}

TEST(CompareRankingsTest, TotalScrambleHasManyChanges) {
  // Reverse all counts: every token (except possibly middle) moves.
  std::vector<HistogramEntry> orig, rev;
  for (int i = 0; i < 20; ++i) {
    orig.push_back({"t" + std::to_string(i),
                    static_cast<uint64_t>(1000 - i * 10)});
    rev.push_back({"t" + std::to_string(i),
                   static_cast<uint64_t>(1000 - (19 - i) * 10)});
  }
  RankComparison cmp = CompareRankings(MakeHist(orig), MakeHist(rev));
  EXPECT_EQ(cmp.changed, 20u);
  EXPECT_NEAR(cmp.spearman, -1.0, 1e-9);
}

}  // namespace
}  // namespace freqywm
