#include "core/secrets.h"

#include <gtest/gtest.h>

#include <cstdio>

#include <unistd.h>

namespace freqywm {
namespace {

WatermarkSecrets MakeSecrets() {
  WatermarkSecrets s;
  s.r = GenerateSecret(256, 5);
  s.z = 1031;
  s.pairs = {{"youtube.com", "instagram.com"},
             {"facebook.com", "bbc.com"},
             {"token with spaces", "token,with,commas"}};
  return s;
}

TEST(SecretsTest, SerializeDeserializeRoundTrip) {
  WatermarkSecrets s = MakeSecrets();
  auto parsed = WatermarkSecrets::Deserialize(s.Serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value(), s);
}

TEST(SecretsTest, BinaryTokensSurviveRoundTrip) {
  WatermarkSecrets s;
  s.r = GenerateSecret(256, 6);
  s.z = 131;
  s.pairs = {{std::string("\x00\x01\xff", 3), std::string("\x1f\n\r", 3)}};
  auto parsed = WatermarkSecrets::Deserialize(s.Serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value(), s);
}

TEST(SecretsTest, EmptyPairListRoundTrips) {
  WatermarkSecrets s;
  s.r = GenerateSecret(256, 7);
  s.z = 17;
  auto parsed = WatermarkSecrets::Deserialize(s.Serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value(), s);
}

TEST(SecretsTest, RejectsBadMagic) {
  auto parsed = WatermarkSecrets::Deserialize("not-a-secrets-file\n");
  EXPECT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kCorruption);
}

TEST(SecretsTest, RejectsTruncatedPairList) {
  WatermarkSecrets s = MakeSecrets();
  std::string text = s.Serialize();
  // Chop the final pair line off.
  text.erase(text.rfind('\n', text.size() - 2) + 1);
  EXPECT_FALSE(WatermarkSecrets::Deserialize(text).ok());
}

TEST(SecretsTest, RejectsBadZ) {
  EXPECT_FALSE(WatermarkSecrets::Deserialize(
                   "freqywm-secrets v1\nz 1\nr ab\npairs 0\n")
                   .ok());
  EXPECT_FALSE(WatermarkSecrets::Deserialize(
                   "freqywm-secrets v1\nz abc\nr ab\npairs 0\n")
                   .ok());
}

// Each of these used to abort or alias: a 24-digit z threw
// std::out_of_range out of std::stoull, a pairs count of 10^15 reserved
// 64 PB and threw std::bad_alloc, and "z -5" parsed as 2^64 - 5.
TEST(SecretsTest, HostileNumbersAreTypedCorruption) {
  const char* hostile[] = {
      "freqywm-secrets v1\nz 999999999999999999999999\nr abcd\npairs 0\n",
      "freqywm-secrets v1\nz -5\nr abcd\npairs 0\n",
      "freqywm-secrets v1\nz +131\nr abcd\npairs 0\n",
      "freqywm-secrets v1\nz 131\nr abcd\npairs 1000000000000000\n"
      "6161 6262\n",
      "freqywm-secrets v1\nz 131\nr abcd\npairs 999999999999999999999\n",
      "freqywm-secrets v1\nz 131\nr abcd\npairs -1\n",
  };
  for (const char* text : hostile) {
    auto parsed = WatermarkSecrets::Deserialize(text);
    ASSERT_FALSE(parsed.ok()) << text;
    EXPECT_EQ(parsed.status().code(), StatusCode::kCorruption) << text;
  }
}

// A self-pair verifies on any data (f_a - f_a = 0 mod every s), and a
// repeated pair counts one residue several times: both forge evidence.
TEST(SecretsTest, RejectsSelfPairsAndRepeatedPairs) {
  WatermarkSecrets self = MakeSecrets();
  self.pairs.push_back({"a", "a"});
  auto parsed = WatermarkSecrets::Deserialize(self.Serialize());
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kCorruption);

  WatermarkSecrets repeated = MakeSecrets();
  repeated.pairs.push_back(repeated.pairs[0]);
  parsed = WatermarkSecrets::Deserialize(repeated.Serialize());
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kCorruption);
}

// (a, b) and (b, a) have different moduli, so both may appear in one key,
// and a token may recur across pairs.
TEST(SecretsTest, AcceptsReversedPairsAndSharedTokens) {
  WatermarkSecrets s = MakeSecrets();
  s.pairs.push_back({s.pairs[0].token_j, s.pairs[0].token_i});
  s.pairs.push_back({s.pairs[0].token_i, "bbc.com"});
  auto parsed = WatermarkSecrets::Deserialize(s.Serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed.value(), s);
}

TEST(SecretsTest, RejectsMalformedHexInPairs) {
  std::string text =
      "freqywm-secrets v1\nz 131\nr abcd\npairs 1\nzz yy\n";
  EXPECT_FALSE(WatermarkSecrets::Deserialize(text).ok());
}

TEST(SecretsTest, FileRoundTrip) {
  std::string path = testing::TempDir() + "/freqywm_secrets_test_" +
                     std::to_string(::getpid()) + ".txt";
  WatermarkSecrets s = MakeSecrets();
  ASSERT_TRUE(s.SaveToFile(path).ok());
  auto loaded = WatermarkSecrets::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value(), s);
  std::remove(path.c_str());
}

TEST(SecretsTest, LoadMissingFileFails) {
  auto loaded = WatermarkSecrets::LoadFromFile("/no/such/file");
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace freqywm
