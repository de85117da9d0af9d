#include "stats/similarity.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

namespace freqywm {
namespace {

Histogram MakeHist(std::vector<HistogramEntry> entries) {
  auto h = Histogram::FromCounts(std::move(entries));
  EXPECT_TRUE(h.ok());
  return std::move(h).value();
}

TEST(CosineTest, IdenticalVectorsAreOne) {
  EXPECT_DOUBLE_EQ(CosineSimilarity({1, 2, 3}, {1, 2, 3}), 1.0);
}

TEST(CosineTest, ScaledVectorsAreOne) {
  EXPECT_NEAR(CosineSimilarity({1, 2, 3}, {2, 4, 6}), 1.0, 1e-12);
}

TEST(CosineTest, OrthogonalVectorsAreZero) {
  EXPECT_DOUBLE_EQ(CosineSimilarity({1, 0}, {0, 1}), 0.0);
}

TEST(CosineTest, ZeroVectorEdgeCases) {
  EXPECT_DOUBLE_EQ(CosineSimilarity({}, {}), 1.0);
  EXPECT_DOUBLE_EQ(CosineSimilarity({0, 0}, {0, 0}), 1.0);
  EXPECT_DOUBLE_EQ(CosineSimilarity({1, 1}, {0, 0}), 0.0);
}

TEST(CosineTest, DifferentLengthsZeroPad) {
  EXPECT_NEAR(CosineSimilarity({3, 4}, {3, 4, 0}),
              CosineSimilarity({3, 4, 0}, {3, 4, 0}), 1e-12);
}

TEST(HistogramSimilarityTest, IdenticalHistograms) {
  Histogram h = MakeHist({{"a", 10}, {"b", 5}});
  EXPECT_DOUBLE_EQ(HistogramSimilarity(h, h), 1.0);
  EXPECT_DOUBLE_EQ(HistogramSimilarityPercent(h, h), 100.0);
}

TEST(HistogramSimilarityTest, AlignsByTokenNotRank) {
  // Same multiset of counts but swapped tokens: similarity must drop.
  Histogram a = MakeHist({{"x", 100}, {"y", 1}});
  Histogram b = MakeHist({{"x", 1}, {"y", 100}});
  EXPECT_LT(HistogramSimilarity(a, b), 0.1);
}

TEST(HistogramSimilarityTest, DisjointTokensAreOrthogonal) {
  Histogram a = MakeHist({{"a", 5}});
  Histogram b = MakeHist({{"b", 5}});
  EXPECT_DOUBLE_EQ(HistogramSimilarity(a, b), 0.0);
}

TEST(HistogramSimilarityTest, SmallPerturbationStaysNearOne) {
  Histogram a = MakeHist({{"a", 1098}, {"b", 980}, {"c", 674}, {"d", 537}});
  Histogram b = MakeHist({{"a", 1075}, {"b", 981}, {"c", 673}, {"d", 559}});
  EXPECT_GT(HistogramSimilarity(a, b), 0.999);
}

TEST(HistogramSimilarityTest, NormalizedL1Metric) {
  Histogram a = MakeHist({{"a", 10}});
  Histogram b = MakeHist({{"a", 10}});
  EXPECT_DOUBLE_EQ(
      HistogramSimilarity(a, b, SimilarityMetric::kNormalizedL1), 1.0);
  Histogram c = MakeHist({{"a", 30}});
  // |30-10| / (30+10) = 0.5 -> similarity 0.5.
  EXPECT_DOUBLE_EQ(
      HistogramSimilarity(a, c, SimilarityMetric::kNormalizedL1), 0.5);
}

TEST(HistogramSimilarityTest, MinMaxRatioMetric) {
  Histogram a = MakeHist({{"a", 10}, {"b", 20}});
  Histogram b = MakeHist({{"a", 20}, {"b", 10}});
  // sum(min)=20, sum(max)=40.
  EXPECT_DOUBLE_EQ(
      HistogramSimilarity(a, b, SimilarityMetric::kMinMaxRatio), 0.5);
}

TEST(IncrementalCosineTest, StartsAtOne) {
  Histogram h = MakeHist({{"a", 100}, {"b", 50}});
  IncrementalSimilarity c(h);
  EXPECT_DOUBLE_EQ(c.Similarity(), 1.0);
  EXPECT_DOUBLE_EQ(c.SimilarityPercent(), 100.0);
}

TEST(IncrementalCosineTest, MatchesFullRecomputation) {
  Histogram h =
      MakeHist({{"a", 1098}, {"b", 980}, {"c", 674}, {"d", 537}, {"e", 64}});
  IncrementalSimilarity inc(h);
  inc.ApplyDelta(0, -23);
  inc.ApplyDelta(3, +22);
  inc.ApplyDelta(4, +1);

  Histogram modified = h;
  ASSERT_TRUE(modified.AddDelta("a", -23).ok());
  ASSERT_TRUE(modified.AddDelta("d", +22).ok());
  ASSERT_TRUE(modified.AddDelta("e", +1).ok());
  EXPECT_NEAR(inc.Similarity(), HistogramSimilarity(h, modified), 1e-12);
}

TEST(IncrementalCosineTest, ProbeDoesNotCommit) {
  Histogram h = MakeHist({{"a", 100}, {"b", 50}, {"c", 25}});
  IncrementalSimilarity inc(h);
  double probed = inc.ProbePairDelta(0, -30, 2, +30);
  EXPECT_LT(probed, 1.0);
  EXPECT_DOUBLE_EQ(inc.Similarity(), 1.0);  // untouched
}

TEST(IncrementalCosineTest, ProbeEqualsApply) {
  Histogram h = MakeHist({{"a", 500}, {"b", 250}, {"c", 125}, {"d", 60}});
  IncrementalSimilarity inc(h);
  inc.ApplyDelta(1, -7);
  double probed = inc.ProbePairDelta(0, -10, 3, +9);
  inc.ApplyDelta(0, -10);
  inc.ApplyDelta(3, +9);
  EXPECT_NEAR(probed, inc.Similarity(), 1e-12);
}

TEST(IncrementalCosineTest, SequenceOfPairsMatchesBatch) {
  Histogram h = MakeHist(
      {{"t0", 9000}, {"t1", 7000}, {"t2", 5000}, {"t3", 3000}, {"t4", 1000}});
  IncrementalSimilarity inc(h);
  Histogram modified = h;
  struct Step {
    size_t rank;
    int64_t delta;
  };
  for (const Step& s : std::vector<Step>{
           {0, 120}, {1, -80}, {2, 33}, {3, -12}, {4, 5}}) {
    inc.ApplyDelta(s.rank, s.delta);
    ASSERT_TRUE(modified.AddDelta(h.entry(s.rank).token, s.delta).ok());
  }
  EXPECT_NEAR(inc.Similarity(), HistogramSimilarity(h, modified), 1e-12);
}

// The L1 and min/max trackers keep their own running sums; each probe and
// each committed step must equal the full recomputation under that metric.
TEST(IncrementalSimilarityTest, TracksEachMetricExactly) {
  Histogram h = MakeHist(
      {{"t0", 9000}, {"t1", 7000}, {"t2", 5000}, {"t3", 3000}, {"t4", 1000}});
  for (SimilarityMetric metric :
       {SimilarityMetric::kCosine, SimilarityMetric::kNormalizedL1,
        SimilarityMetric::kMinMaxRatio}) {
    IncrementalSimilarity inc(h, metric);
    EXPECT_DOUBLE_EQ(inc.Similarity(), 1.0);
    Histogram modified = h;
    struct Pair {
      size_t rank_i;
      int64_t delta_i;
      size_t rank_j;
      int64_t delta_j;
    };
    // Deltas cross back over the original count (t0 +120 then -200), so
    // the |cur - orig| and min/max terms change sign mid-sequence.
    for (const Pair& p : std::vector<Pair>{
             {0, 120, 1, -80}, {2, 33, 3, -12}, {0, -200, 4, 5}}) {
      const double probed =
          inc.ProbePairDelta(p.rank_i, p.delta_i, p.rank_j, p.delta_j);
      inc.ApplyDelta(p.rank_i, p.delta_i);
      inc.ApplyDelta(p.rank_j, p.delta_j);
      ASSERT_TRUE(
          modified.AddDelta(h.entry(p.rank_i).token, p.delta_i).ok());
      ASSERT_TRUE(
          modified.AddDelta(h.entry(p.rank_j).token, p.delta_j).ok());
      const double full = HistogramSimilarity(h, modified, metric);
      EXPECT_NEAR(probed, full, 1e-12) << static_cast<int>(metric);
      EXPECT_NEAR(inc.Similarity(), full, 1e-12) << static_cast<int>(metric);
    }
  }
}

// Regression guard (DESIGN.md §11): counts near the uint64 ceiling must
// flow through the accumulators as doubles — an integer dot product or
// squared norm at this magnitude is signed-overflow UB the CI UBSan job
// catches. Results only need to stay finite and in range.
TEST(IncrementalCosineTest, ExtremeCountsDoNotOverflow) {
  // Counts past 2^63 whose sum still fits in the histogram's uint64 total
  // (FromCounts rejects a total that overflows).
  const uint64_t huge = 0xa000000000000000ULL;
  Histogram h = MakeHist({{"a", huge}, {"b", huge / 2}, {"c", 1}});
  IncrementalSimilarity inc(h);
  EXPECT_NEAR(inc.Similarity(), 1.0, 1e-12);

  inc.ApplyDelta(2, static_cast<int64_t>(1) << 62);
  double sim = inc.Similarity();
  EXPECT_TRUE(std::isfinite(sim));
  EXPECT_GE(sim, 0.0);
  EXPECT_LE(sim, 1.0 + 1e-12);

  double probe = inc.ProbePairDelta(0, -(static_cast<int64_t>(1) << 60), 1,
                                    static_cast<int64_t>(1) << 60);
  EXPECT_TRUE(std::isfinite(probe));
}

}  // namespace
}  // namespace freqywm
