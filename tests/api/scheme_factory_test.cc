#include "api/factory.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "api/freqywm_scheme.h"
#include "api/key_util.h"

namespace freqywm {
namespace {

TEST(OptionBagTest, FromStringParsesKeyValuePairs) {
  auto bag = OptionBag::FromString("budget=2.5, z=131 ,seed=42,,");
  ASSERT_TRUE(bag.ok()) << bag.status();
  EXPECT_EQ(bag.value().GetDouble("budget", 0).value(), 2.5);
  EXPECT_EQ(bag.value().GetU64("z", 0).value(), 131u);
  EXPECT_EQ(bag.value().GetU64("seed", 0).value(), 42u);
  EXPECT_FALSE(bag.value().Has("missing"));
  EXPECT_EQ(bag.value().GetU64("missing", 7).value(), 7u);
}

TEST(OptionBagTest, FromStringRejectsMalformedPairs) {
  EXPECT_EQ(OptionBag::FromString("budget").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(OptionBag::FromString("=5").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(OptionBagTest, TypedGettersRejectGarbageValues) {
  OptionBag bag;
  bag.Set("budget", "not-a-number");
  bag.Set("z", "-3");
  bag.Set("alpha", "2.5x");
  EXPECT_EQ(bag.GetDouble("budget", 0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(bag.GetU64("z", 0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(bag.GetDouble("alpha", 0).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(OptionBagTest, GetDoubleRejectsTrailingGarbageAndNonFinite) {
  OptionBag bag;
  bag.Set("trailing", "1.5abc");
  bag.Set("inf", "inf");
  bag.Set("neg_inf", "-infinity");
  bag.Set("nan", "nan");
  bag.Set("overflow", "1e999");
  bag.Set("empty", "");
  for (const char* key :
       {"trailing", "inf", "neg_inf", "nan", "overflow", "empty"}) {
    Result<double> value = bag.GetDouble(key, 0);
    EXPECT_EQ(value.status().code(), StatusCode::kInvalidArgument) << key;
  }
  // Ordinary numbers, including exponent notation, still parse.
  bag.Set("ok", "-2.5e3");
  ASSERT_TRUE(bag.GetDouble("ok", 0).ok());
  EXPECT_EQ(bag.GetDouble("ok", 0).value(), -2500.0);
}

TEST(OptionBagTest, GetU64RejectsOverflow) {
  OptionBag bag;
  bag.Set("max", "18446744073709551615");  // 2^64 - 1: representable
  bag.Set("over", "18446744073709551616");  // 2^64: not
  bag.Set("way_over", "99999999999999999999999999");
  ASSERT_TRUE(bag.GetU64("max", 0).ok());
  EXPECT_EQ(bag.GetU64("max", 0).value(), 18446744073709551615ull);
  EXPECT_EQ(bag.GetU64("over", 0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(bag.GetU64("way_over", 0).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(OptionBagTest, SchemeBuilderSurfacesBadNumericOption) {
  // End-to-end: the CLI path `--opt budget=1.5abc` must fail creation, not
  // silently embed with a half-parsed budget.
  OptionBag bag;
  bag.Set("budget", "1.5abc");
  EXPECT_EQ(SchemeFactory::Create("freqywm", bag).status().code(),
            StatusCode::kInvalidArgument);
  OptionBag inf_bag;
  inf_bag.Set("budget", "inf");
  EXPECT_EQ(SchemeFactory::Create("freqywm", inf_bag).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(OptionBagTest, ExpectOnlyNamesTheOffendingKey) {
  OptionBag bag;
  bag.Set("budget", "2");
  bag.Set("bugdet", "2");  // typo
  Status s = bag.ExpectOnly({"budget", "z"});
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("bugdet"), std::string::npos);
}

TEST(SchemeFactoryTest, RegisteredNamesContainsPaperSchemes) {
  // The scheme set is closed: exactly the paper's three, sorted. The
  // conformance suite and `freqywm_cli schemes` iterate this list.
  EXPECT_EQ(SchemeFactory::RegisteredNames(),
            (std::vector<std::string>{"freqywm", "wm-obt", "wm-rvs"}));
}

TEST(SchemeFactoryTest, CreateUnknownSchemeIsNotFound) {
  auto created = SchemeFactory::Create("no-such-scheme");
  ASSERT_FALSE(created.ok());
  EXPECT_EQ(created.status().code(), StatusCode::kNotFound);
}

TEST(SchemeFactoryTest, CreateAppliesOptionBag) {
  OptionBag bag;
  bag.Set("budget", "3.5");
  bag.Set("z", "67");
  bag.Set("strategy", "greedy");
  bag.Set("seed", "9");
  auto created = SchemeFactory::Create("freqywm", bag);
  ASSERT_TRUE(created.ok()) << created.status();
  auto* scheme = dynamic_cast<FreqyWmScheme*>(created.value().get());
  ASSERT_NE(scheme, nullptr);
  EXPECT_EQ(scheme->options().budget_percent, 3.5);
  EXPECT_EQ(scheme->options().modulus_bound, 67u);
  EXPECT_EQ(scheme->options().strategy, SelectionStrategy::kGreedy);
  EXPECT_EQ(scheme->options().seed, 9u);
}

TEST(SchemeFactoryTest, BuildersRejectUnknownAndInvalidOptions) {
  OptionBag typo;
  typo.Set("bugdet", "2");
  EXPECT_EQ(SchemeFactory::Create("freqywm", typo).status().code(),
            StatusCode::kInvalidArgument);

  OptionBag bad_enum;
  bad_enum.Set("strategy", "fastest");
  EXPECT_EQ(SchemeFactory::Create("freqywm", bad_enum).status().code(),
            StatusCode::kInvalidArgument);

  OptionBag bad_bits;
  bad_bits.Set("bits", "10x01");
  EXPECT_EQ(SchemeFactory::Create("wm-obt", bad_bits).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(SchemeFactory::Create("wm-rvs", bad_bits).status().code(),
            StatusCode::kInvalidArgument);

  // Embed sizes per-partition state by the count, so the builder takes
  // the key parser's cap.
  for (uint64_t partitions : {uint64_t{0}, kWmObtMaxPartitions + 1,
                              std::numeric_limits<uint64_t>::max()}) {
    OptionBag bag;
    bag.Set("partitions", std::to_string(partitions));
    EXPECT_EQ(SchemeFactory::Create("wm-obt", bag).status().code(),
              StatusCode::kInvalidArgument)
        << partitions;
  }
  OptionBag at_cap;
  at_cap.Set("partitions", std::to_string(kWmObtMaxPartitions));
  EXPECT_TRUE(SchemeFactory::Create("wm-obt", at_cap).ok());

  // The GA sizes its population buffers by `population` and runs
  // `generations` rounds, so both take a cap too; 2^64 - 1 used to reach
  // the GA and abort with `std::length_error`.
  const std::string max_u64 =
      std::to_string(std::numeric_limits<uint64_t>::max());
  for (const auto& [key, value] :
       std::vector<std::pair<std::string, std::string>>{
           {"population", "0"},
           {"population", std::to_string(kWmObtMaxPopulation + 1)},
           {"population", max_u64},
           {"generations", std::to_string(kWmObtMaxGenerations + 1)},
           {"generations", max_u64}}) {
    OptionBag bag;
    bag.Set(key, value);
    EXPECT_EQ(SchemeFactory::Create("wm-obt", bag).status().code(),
              StatusCode::kInvalidArgument)
        << key << "=" << value;
  }
  OptionBag ga_at_cap;
  ga_at_cap.Set("population", std::to_string(kWmObtMaxPopulation));
  ga_at_cap.Set("generations", std::to_string(kWmObtMaxGenerations));
  EXPECT_TRUE(SchemeFactory::Create("wm-obt", ga_at_cap).ok());
}

TEST(SchemeFactoryTest, FreqyWmBuilderRejectsOutOfRangeOptions) {
  // The generator's ranges, checked when the scheme is built rather than
  // at its first embed.
  const std::string max_u64 =
      std::to_string(std::numeric_limits<uint64_t>::max());
  for (const auto& [key, value] :
       std::vector<std::pair<std::string, std::string>>{
           {"z", "0"},
           {"z", "2"},  // not above the default min_modulus of 2
           {"budget", "-1"},
           {"budget", "100.5"},
           {"lambda", "7"},
           {"lambda", "65537"},
           {"lambda", max_u64},
           {"min_modulus", "1031"}}) {
    OptionBag bag;
    bag.Set(key, value);
    EXPECT_EQ(SchemeFactory::Create("freqywm", bag).status().code(),
              StatusCode::kInvalidArgument)
        << key << "=" << value;
  }
  for (const auto& [key, value] :
       std::vector<std::pair<std::string, std::string>>{
           {"z", "3"},
           {"budget", "0"},
           {"budget", "100"},
           {"lambda", "8"},
           {"lambda", "65536"},
           {"min_modulus", "1030"}}) {
    OptionBag bag;
    bag.Set(key, value);
    EXPECT_TRUE(SchemeFactory::Create("freqywm", bag).ok())
        << key << "=" << value;
  }
}

}  // namespace
}  // namespace freqywm
