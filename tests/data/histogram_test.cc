#include "data/histogram.h"

#include <gtest/gtest.h>

#include <limits>

namespace freqywm {
namespace {

Histogram MakeUrlHistogram() {
  // The paper's running example (Fig. 1).
  auto h = Histogram::FromCounts({{"youtube", 1098},
                                  {"facebook", 980},
                                  {"google", 674},
                                  {"instagram", 537},
                                  {"bbc", 64},
                                  {"cnn", 53},
                                  {"elpais", 53}});
  EXPECT_TRUE(h.ok());
  return std::move(h).value();
}

TEST(HistogramTest, FromDatasetCountsAndSorts) {
  Dataset d({"b", "a", "a", "c", "a", "b"});
  Histogram h = Histogram::FromDataset(d);
  EXPECT_EQ(h.num_tokens(), 3u);
  EXPECT_EQ(h.total_count(), 6u);
  EXPECT_EQ(h.entry(0).token, "a");
  EXPECT_EQ(h.entry(0).count, 3u);
  EXPECT_EQ(h.entry(1).token, "b");
  EXPECT_EQ(h.entry(2).token, "c");
  EXPECT_TRUE(h.IsSortedDescending());
}

TEST(HistogramTest, TieBreakIsDeterministicByToken) {
  Dataset d({"zz", "aa"});
  Histogram h = Histogram::FromDataset(d);
  EXPECT_EQ(h.entry(0).token, "aa");
  EXPECT_EQ(h.entry(1).token, "zz");
}

TEST(HistogramTest, FromCountsRejectsDuplicates) {
  auto h = Histogram::FromCounts({{"a", 1}, {"a", 2}});
  EXPECT_FALSE(h.ok());
  EXPECT_EQ(h.status().code(), StatusCode::kInvalidArgument);
}

TEST(HistogramTest, FromCountsRejectsZeroCounts) {
  EXPECT_FALSE(Histogram::FromCounts({{"a", 0}}).ok());
}

TEST(HistogramTest, FromCountsRejectsTotalOverflow) {
  const uint64_t max = std::numeric_limits<uint64_t>::max();
  auto over = Histogram::FromCounts({{"a", max}, {"b", 1}});
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), StatusCode::kInvalidArgument);
  auto exact = Histogram::FromCounts({{"a", max - 1}, {"b", 1}});
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(exact.value().total_count(), max);
}

TEST(HistogramTest, CountOfAndRankOf) {
  Histogram h = MakeUrlHistogram();
  EXPECT_EQ(h.CountOf("youtube"), 1098u);
  EXPECT_EQ(h.RankOf("youtube"), 0u);
  EXPECT_EQ(h.RankOf("instagram"), 3u);
  EXPECT_FALSE(h.CountOf("myspace").has_value());
  EXPECT_FALSE(h.RankOf("myspace").has_value());
}

TEST(HistogramTest, SetCountUpdatesTotal) {
  Histogram h = MakeUrlHistogram();
  uint64_t before = h.total_count();
  ASSERT_TRUE(h.SetCount("cnn", 100).ok());
  EXPECT_EQ(h.CountOf("cnn"), 100u);
  EXPECT_EQ(h.total_count(), before - 53 + 100);
}

TEST(HistogramTest, SetCountUnknownTokenFails) {
  Histogram h = MakeUrlHistogram();
  EXPECT_EQ(h.SetCount("nope", 1).code(), StatusCode::kNotFound);
}

TEST(HistogramTest, AddDeltaPositiveAndNegative) {
  Histogram h = MakeUrlHistogram();
  ASSERT_TRUE(h.AddDelta("youtube", -23).ok());
  ASSERT_TRUE(h.AddDelta("instagram", 22).ok());
  EXPECT_EQ(h.CountOf("youtube"), 1075u);
  EXPECT_EQ(h.CountOf("instagram"), 559u);
}

TEST(HistogramTest, AddDeltaUnderflowRejected) {
  Histogram h = MakeUrlHistogram();
  EXPECT_EQ(h.AddDelta("cnn", -54).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(h.CountOf("cnn"), 53u);  // unchanged
}

TEST(HistogramTest, AddDeltaInt64MinIsExact) {
  const int64_t min = std::numeric_limits<int64_t>::min();
  const uint64_t two63 = uint64_t{1} << 63;
  // |INT64_MIN| exceeds any count below 2^63: rejected, not negated.
  Histogram small = MakeUrlHistogram();
  EXPECT_EQ(small.AddDelta("youtube", min).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(small.CountOf("youtube"), 1098u);
  // A count of 2^63 + 5 can give up exactly 2^63.
  auto huge = Histogram::FromCounts({{"a", two63 + 5}, {"b", 1}});
  ASSERT_TRUE(huge.ok());
  ASSERT_TRUE(huge.value().AddDelta("a", min).ok());
  EXPECT_EQ(huge.value().CountOf("a"), 5u);
  EXPECT_EQ(huge.value().total_count(), 6u);
}

TEST(HistogramTest, AddDeltaOnCountsAtOrAbove2To63) {
  const uint64_t max63 =
      static_cast<uint64_t>(std::numeric_limits<int64_t>::max());
  auto h = Histogram::FromCounts({{"a", max63}, {"b", 1}});
  ASSERT_TRUE(h.ok());
  // INT64_MAX + 1 used to overflow the signed sum.
  ASSERT_TRUE(h.value().AddDelta("a", 1).ok());
  EXPECT_EQ(h.value().CountOf("a"), max63 + 1);
  ASSERT_TRUE(h.value().AddDelta("a", 10).ok());
  ASSERT_TRUE(h.value().AddDelta("a", -4).ok());
  EXPECT_EQ(h.value().CountOf("a"), max63 + 7);
  EXPECT_EQ(h.value().total_count(), max63 + 8);
}

TEST(HistogramTest, AddDeltaCountOverflowRejected) {
  const uint64_t max = std::numeric_limits<uint64_t>::max();
  auto h = Histogram::FromCounts({{"a", max - 1}});
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h.value().AddDelta("a", 2).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(h.value().CountOf("a"), max - 1);  // unchanged
  ASSERT_TRUE(h.value().AddDelta("a", 1).ok());
  EXPECT_EQ(h.value().total_count(), max);
}

TEST(HistogramTest, AddDeltaTotalOverflowRejected) {
  const uint64_t two63 = uint64_t{1} << 63;
  auto h = Histogram::FromCounts({{"a", two63}, {"b", two63 - 1}});
  ASSERT_TRUE(h.ok());
  // Neither count overflows, but the total would wrap past 2^64 - 1.
  EXPECT_EQ(h.value().AddDelta("b", 1).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(h.value().CountOf("b"), two63 - 1);
  EXPECT_EQ(h.value().total_count(), two63 + two63 - 1);
}

TEST(HistogramTest, MutationDoesNotResort) {
  Histogram h = MakeUrlHistogram();
  ASSERT_TRUE(h.SetCount("elpais", 5000).ok());
  EXPECT_FALSE(h.IsSortedDescending());
  // Rank positions are frozen until Resorted().
  EXPECT_EQ(h.RankOf("elpais"), 6u);
}

TEST(HistogramTest, ResortedRestoresOrder) {
  Histogram h = MakeUrlHistogram();
  ASSERT_TRUE(h.SetCount("elpais", 5000).ok());
  Histogram r = h.Resorted();
  EXPECT_TRUE(r.IsSortedDescending());
  EXPECT_EQ(r.RankOf("elpais"), 0u);
  EXPECT_EQ(r.CountOf("elpais"), 5000u);
}

TEST(HistogramTest, EmptyHistogram) {
  Histogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.num_tokens(), 0u);
  EXPECT_EQ(h.total_count(), 0u);
  EXPECT_TRUE(h.IsSortedDescending());
}

TEST(HistogramTest, TotalEqualsSumOfEntries) {
  Histogram h = MakeUrlHistogram();
  uint64_t sum = 0;
  for (const auto& e : h.entries()) sum += e.count;
  EXPECT_EQ(h.total_count(), sum);
}

}  // namespace
}  // namespace freqywm
