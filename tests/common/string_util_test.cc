#include "common/string_util.h"

#include <gtest/gtest.h>

namespace freqywm {
namespace {

TEST(SplitTest, BasicSplit) {
  EXPECT_EQ(Split("a,b,c", ','),
            (std::vector<std::string>{"a", "b", "c"}));
}

TEST(SplitTest, KeepsEmptyFields) {
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(SplitTest, NoSeparatorYieldsWhole) {
  EXPECT_EQ(Split("abc", ','), (std::vector<std::string>{"abc"}));
}

TEST(SplitTest, EmptyInputYieldsOneEmpty) {
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(JoinTest, RoundTripsWithSplit) {
  std::vector<std::string> parts{"x", "y", "", "z"};
  EXPECT_EQ(Split(Join(parts, '|'), '|'), parts);
}

TEST(JoinTest, SingleAndEmpty) {
  EXPECT_EQ(Join({}, ','), "");
  EXPECT_EQ(Join({"only"}, ','), "only");
}

TEST(StripWhitespaceTest, StripsBothEnds) {
  EXPECT_EQ(StripWhitespace("  abc \t\r\n"), "abc");
  EXPECT_EQ(StripWhitespace("abc"), "abc");
  EXPECT_EQ(StripWhitespace("   "), "");
  EXPECT_EQ(StripWhitespace(""), "");
}

TEST(StripWhitespaceTest, KeepsInnerWhitespace) {
  EXPECT_EQ(StripWhitespace(" a b "), "a b");
}

TEST(ParseU64Test, AcceptsDigitStrings) {
  EXPECT_EQ(ParseU64("0").value(), 0u);
  EXPECT_EQ(ParseU64("12345").value(), 12345u);
  EXPECT_EQ(ParseU64("007").value(), 7u);
  EXPECT_EQ(ParseU64("18446744073709551615").value(),
            18446744073709551615ull);
}

TEST(ParseU64Test, RejectsSignsWhitespaceAndPartialTokens) {
  for (const char* text :
       {"", "-", "+", "-7", "+7", "-0", " 1", "1 ", "1.5", "12a", "0x10",
        "1e3", "\t9"}) {
    Result<uint64_t> value = ParseU64(text);
    ASSERT_FALSE(value.ok()) << text;
    EXPECT_EQ(value.status().code(), StatusCode::kInvalidArgument) << text;
    EXPECT_EQ(value.status().message(),
              "'" + std::string(text) + "' is not a non-negative integer");
  }
}

TEST(ParseU64Test, RejectsOverflow) {
  for (const char* text : {"18446744073709551616", "999999999999999999999",
                           "99999999999999999999999999"}) {
    Result<uint64_t> value = ParseU64(text);
    ASSERT_FALSE(value.ok()) << text;
    EXPECT_EQ(value.status().code(), StatusCode::kInvalidArgument) << text;
    EXPECT_EQ(value.status().message(),
              "'" + std::string(text) + "' overflows uint64");
  }
}

TEST(ParseFiniteDoubleTest, AcceptsWholeFiniteTokens) {
  EXPECT_EQ(ParseFiniteDouble("0").value(), 0.0);
  EXPECT_EQ(ParseFiniteDouble("1.5").value(), 1.5);
  EXPECT_EQ(ParseFiniteDouble("-2.5e3").value(), -2500.0);
  EXPECT_EQ(ParseFiniteDouble(".25").value(), 0.25);
  EXPECT_EQ(ParseFiniteDouble("0.096600000000000005").value(), 0.0966);
}

TEST(ParseFiniteDoubleTest, RejectsPartialAndNonFiniteTokens) {
  for (const char* text : {"", "abc", "1.5abc", " 1.5", "1.5 ", "+1.5", "-",
                           "0x1p3", "nan", "-nan", "inf", "-infinity",
                           "1e999", "-1e999", "1e-400"}) {
    Result<double> value = ParseFiniteDouble(text);
    ASSERT_FALSE(value.ok()) << text;
    EXPECT_EQ(value.status().code(), StatusCode::kInvalidArgument) << text;
  }
  EXPECT_EQ(ParseFiniteDouble("1.5abc").status().message(),
            "'1.5abc' is not a number");
  EXPECT_EQ(ParseFiniteDouble("nan").status().message(),
            "'nan' is not a finite number");
  EXPECT_EQ(ParseFiniteDouble("1e-400").status().message(),
            "'1e-400' is not a finite number");
}

}  // namespace
}  // namespace freqywm
