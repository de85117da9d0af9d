#include "data/dataset.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/watermark.h"
#include "data/histogram.h"

namespace freqywm {
namespace {

Dataset MakeAbc() {
  return Dataset({"a", "b", "a", "c", "a", "b"});
}

TEST(DatasetTest, SizeAndAccess) {
  Dataset d = MakeAbc();
  EXPECT_EQ(d.size(), 6u);
  EXPECT_EQ(d[0], "a");
  EXPECT_EQ(d[3], "c");
  EXPECT_FALSE(d.empty());
  EXPECT_TRUE(Dataset().empty());
}

TEST(DatasetTest, CountOf) {
  Dataset d = MakeAbc();
  EXPECT_EQ(d.CountOf("a"), 3u);
  EXPECT_EQ(d.CountOf("b"), 2u);
  EXPECT_EQ(d.CountOf("missing"), 0u);
}

TEST(DatasetTest, Append) {
  Dataset d = MakeAbc();
  d.Append("z");
  d.Append("a");
  EXPECT_EQ(d.CountOf("z"), 1u);
  EXPECT_EQ(d.CountOf("a"), 4u);
  EXPECT_EQ(d.size(), 8u);
  EXPECT_EQ(d[6], "z");
  EXPECT_EQ(d[7], "a");
}

TEST(DatasetDictionaryTest, TokensRoundTripTheInput) {
  const std::vector<Token> input = {"b", "a", "b", "", "c", "a", "b"};
  Dataset d(input);
  EXPECT_EQ(d.tokens(), input);
  // Ids follow first occurrence; the dictionary holds each token once.
  EXPECT_EQ(d.ids(), (RowIds{0, 1, 0, 2, 3, 1, 0}));
  ASSERT_EQ(d.dictionary().size(), 4u);
  EXPECT_EQ(d.dictionary().token(2), "");
  EXPECT_EQ(d.dictionary().Find("c"), 3u);
  EXPECT_FALSE(d.dictionary().Find("zz").has_value());
  for (size_t i = 0; i < input.size(); ++i) EXPECT_EQ(d[i], input[i]);
}

TEST(DatasetDictionaryTest, CopiesShareTheDictionary) {
  Dataset d = MakeAbc();
  Dataset copy = d;
  EXPECT_EQ(copy.shared_dictionary().get(), d.shared_dictionary().get());
  // A transform toward known tokens shares it too.
  Rng rng(9);
  Histogram target =
      Histogram::FromCounts({{"a", 2}, {"b", 1}, {"c", 1}}).value();
  EXPECT_EQ(TransformDataset(d, target, rng).shared_dictionary().get(),
            d.shared_dictionary().get());
  // Writing a token the dictionary already holds keeps sharing it.
  copy.Append("c");
  EXPECT_EQ(copy.shared_dictionary().get(), d.shared_dictionary().get());
}

TEST(DatasetDictionaryTest, UnseenTokenCopiesTheDictionaryOnWrite) {
  Dataset d = MakeAbc();
  Dataset copy = d;
  const TokenDictionary* shared = d.shared_dictionary().get();
  copy.Append("new");
  EXPECT_NE(copy.shared_dictionary().get(), shared);
  EXPECT_EQ(d.shared_dictionary().get(), shared);
  EXPECT_EQ(d.dictionary().size(), 3u);
  EXPECT_FALSE(d.dictionary().Find("new").has_value());
  EXPECT_EQ(d.tokens(), MakeAbc().tokens());
  EXPECT_EQ(copy.tokens(), (std::vector<Token>{"a", "b", "a", "c", "a", "b",
                                               "new"}));
}

TEST(DatasetDictionaryTest, HistogramSkipsUnusedDictionaryEntries) {
  auto dictionary = std::make_shared<const TokenDictionary>(
      std::vector<Token>{"unused", "b", "a", "never"});
  Dataset d(dictionary, {2, 1, 2, 2});
  Histogram h = Histogram::FromDataset(d);
  ASSERT_EQ(h.num_tokens(), 2u);
  EXPECT_EQ(h.entry(0), (HistogramEntry{"a", 3}));
  EXPECT_EQ(h.entry(1), (HistogramEntry{"b", 1}));
  EXPECT_EQ(h.total_count(), 4u);
  EXPECT_FALSE(h.CountOf("unused").has_value());
  EXPECT_EQ(d.IdCounts(), (std::vector<uint64_t>{0, 1, 3, 0}));
}

TEST(DatasetDictionaryTest, TransformAddsATokenAbsentFromTheDictionary) {
  Dataset original({"a", "b", "a", "a", "c"});
  auto target = Histogram::FromCounts({{"a", 2}, {"b", 1}, {"c", 1},
                                       {"fresh", 3}});
  ASSERT_TRUE(target.ok()) << target.status();
  Rng rng(11);
  Dataset out = TransformDataset(original, target.value(), rng);
  EXPECT_EQ(out.size(), 7u);
  EXPECT_EQ(out.CountOf("fresh"), 3u);
  EXPECT_EQ(out.CountOf("a"), 2u);
  EXPECT_NE(out.shared_dictionary().get(), original.shared_dictionary().get());
  // The original's dictionary is left as it was.
  EXPECT_FALSE(original.dictionary().Find("fresh").has_value());

  // Without new tokens the output shares the original's dictionary.
  auto shrink = Histogram::FromCounts({{"a", 1}, {"b", 1}, {"c", 1}});
  ASSERT_TRUE(shrink.ok()) << shrink.status();
  Dataset shrunk = TransformDataset(original, shrink.value(), rng);
  EXPECT_EQ(shrunk.size(), 3u);
  EXPECT_EQ(shrunk.shared_dictionary().get(),
            original.shared_dictionary().get());
}

TEST(TableDatasetTest, SchemaEnforced) {
  TableDataset t({"Age", "WorkClass"});
  EXPECT_TRUE(t.AppendRow({"39", "Private"}).ok());
  Status s = t.AppendRow({"too", "many", "fields"});
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.num_columns(), 2u);
}

TEST(TableDatasetTest, ColumnIndexLookup) {
  TableDataset t({"Age", "WorkClass"});
  auto idx = t.ColumnIndex("WorkClass");
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(idx.value(), 1u);
  EXPECT_EQ(t.ColumnIndex("Nope").status().code(), StatusCode::kNotFound);
}

TableDataset MakeAdultMini() {
  TableDataset t({"Age", "WorkClass", "Hours"});
  EXPECT_TRUE(t.AppendRow({"39", "Private", "40"}).ok());
  EXPECT_TRUE(t.AppendRow({"39", "Private", "20"}).ok());
  EXPECT_TRUE(t.AppendRow({"50", "SelfEmp", "60"}).ok());
  EXPECT_TRUE(t.AppendRow({"39", "SelfEmp", "40"}).ok());
  return t;
}

TEST(TableDatasetTest, ProjectSingleColumn) {
  TableDataset t = MakeAdultMini();
  auto d = t.ProjectTokens({"Age"});
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d.value().tokens(),
            (std::vector<Token>{"39", "39", "50", "39"}));
}

TEST(TableDatasetTest, ProjectCompositeToken) {
  TableDataset t = MakeAdultMini();
  auto d = t.ProjectTokens({"Age", "WorkClass"});
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d.value().CountOf(JoinAttributes({"39", "Private"})), 2u);
  EXPECT_EQ(d.value().CountOf(JoinAttributes({"39", "SelfEmp"})), 1u);
}

TEST(TableDatasetTest, ProjectUnknownColumnFails) {
  TableDataset t = MakeAdultMini();
  EXPECT_FALSE(t.ProjectTokens({"Age", "Ghost"}).ok());
  EXPECT_FALSE(t.ProjectTokens({}).ok());
}

TEST(TableDatasetTest, ReplicateTokenRowsCopiesDonorAttributes) {
  Rng rng(8);
  TableDataset t = MakeAdultMini();
  Token target = JoinAttributes({"39", "Private"});
  ASSERT_TRUE(
      t.ReplicateTokenRows({"Age", "WorkClass"}, target, 3, rng).ok());
  EXPECT_EQ(t.num_rows(), 7u);
  auto d = t.ProjectTokens({"Age", "WorkClass"});
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d.value().CountOf(target), 5u);
  // Every new row must carry Hours copied from a donor (40 or 20).
  for (size_t r = 0; r < t.num_rows(); ++r) {
    if (t.row(r)[0] == "39" && t.row(r)[1] == "Private") {
      EXPECT_TRUE(t.row(r)[2] == "40" || t.row(r)[2] == "20");
    }
  }
}

TEST(TableDatasetTest, ReplicateWithoutDonorFails) {
  Rng rng(9);
  TableDataset t = MakeAdultMini();
  Status s = t.ReplicateTokenRows({"Age"}, "99", 1, rng);
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
}

TEST(TableDatasetTest, RemoveTokenRows) {
  Rng rng(10);
  TableDataset t = MakeAdultMini();
  auto removed = t.RemoveTokenRows({"Age"}, "39", 2, rng);
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(removed.value(), 2u);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(TableDatasetTest, RemoveMoreThanPresentClamps) {
  Rng rng(11);
  TableDataset t = MakeAdultMini();
  auto removed = t.RemoveTokenRows({"Age"}, "50", 5, rng);
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(removed.value(), 1u);
}

}  // namespace
}  // namespace freqywm
