#include "data/token.h"

#include <gtest/gtest.h>

#include "common/string_util.h"

namespace freqywm {
namespace {

TEST(TokenTest, JoinSplitRoundTrip) {
  std::vector<std::string> attrs{"39", "Private"};
  Token joined = JoinAttributes(attrs);
  EXPECT_EQ(Split(joined, kTokenAttributeSeparator), attrs);
}

TEST(TokenTest, SingleAttributeIsIdentity) {
  EXPECT_EQ(JoinAttributes({"youtube.com"}), "youtube.com");
  EXPECT_EQ(Split("youtube.com", kTokenAttributeSeparator),
            std::vector<std::string>{"youtube.com"});
}

TEST(TokenTest, EmptyAttributesPreserved) {
  std::vector<std::string> attrs{"", "x", ""};
  EXPECT_EQ(Split(JoinAttributes(attrs), kTokenAttributeSeparator), attrs);
}

TEST(TokenTest, DistinctCombinationsYieldDistinctTokens) {
  EXPECT_NE(JoinAttributes({"ab", "c"}), JoinAttributes({"a", "bc"}));
}

TEST(TokenTest, ThreeWayJoin) {
  std::vector<std::string> attrs{"39", "Private", "Bachelors"};
  EXPECT_EQ(Split(JoinAttributes(attrs), kTokenAttributeSeparator), attrs);
}

}  // namespace
}  // namespace freqywm
