#include "api/scheme.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>
#include <utility>

#include <unistd.h>

#include "api/wm_obt_scheme.h"
#include "api/wm_rvs_scheme.h"

namespace freqywm {
namespace {

TEST(SchemeKeyTest, SerializeDeserializeRoundTrip) {
  SchemeKey key{"freqywm", "line one\nline two\n"};
  auto parsed = SchemeKey::Deserialize(key.Serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed.value(), key);
}

TEST(SchemeKeyTest, EmptyPayloadRoundTrips) {
  SchemeKey key{"wm-obt", ""};
  auto parsed = SchemeKey::Deserialize(key.Serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed.value(), key);
}

TEST(SchemeKeyTest, DeserializeRejectsGarbage) {
  EXPECT_EQ(SchemeKey::Deserialize("").status().code(),
            StatusCode::kCorruption);
  EXPECT_EQ(SchemeKey::Deserialize("wrong magic\nscheme x\n").status().code(),
            StatusCode::kCorruption);
  EXPECT_EQ(
      SchemeKey::Deserialize("freqywm-scheme-key v1\nnoscheme\n")
          .status()
          .code(),
      StatusCode::kCorruption);
  EXPECT_EQ(SchemeKey::Deserialize("freqywm-scheme-key v1\n").status().code(),
            StatusCode::kCorruption);
}

TEST(SchemeKeyTest, SaveLoadFileRoundTrip) {
  SchemeKey key{"wm-rvs", "wm-rvs-key v1\nkey_seed 7\n"};
  std::string path = ::testing::TempDir() + "/scheme_key_test_" +
                     std::to_string(::getpid()) + ".key";
  ASSERT_TRUE(key.SaveToFile(path).ok());
  auto loaded = SchemeKey::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded.value(), key);
  std::remove(path.c_str());
  EXPECT_EQ(SchemeKey::LoadFromFile(path).status().code(),
            StatusCode::kNotFound);
}

TEST(WmObtKeyPayloadTest, RoundTripPreservesDetectionParameters) {
  WmObtOptions options;
  options.key_seed = 0xdead;
  options.num_partitions = 12;
  options.condition = 0.6251;
  options.decode_threshold = 0.3341;
  options.watermark_bits = {1, 0, 0, 1};
  auto parsed = WmObtScheme::ParseKeyPayload(
      WmObtScheme::SerializeKeyPayload(options));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed.value().key_seed, options.key_seed);
  EXPECT_EQ(parsed.value().num_partitions, options.num_partitions);
  EXPECT_DOUBLE_EQ(parsed.value().condition, options.condition);
  EXPECT_DOUBLE_EQ(parsed.value().decode_threshold,
                   options.decode_threshold);
  EXPECT_EQ(parsed.value().watermark_bits, options.watermark_bits);
}

TEST(WmObtKeyPayloadTest, RejectsMissingAndMalformedFields) {
  EXPECT_FALSE(WmObtScheme::ParseKeyPayload("").ok());
  EXPECT_FALSE(WmObtScheme::ParseKeyPayload("wm-obt-key v1\n").ok());
  EXPECT_FALSE(
      WmObtScheme::ParseKeyPayload(
          "wm-obt-key v1\nkey_seed x\nnum_partitions 4\ncondition 0.7\n"
          "decode_threshold 0.1\nbits 101\n")
          .ok());
  EXPECT_FALSE(
      WmObtScheme::ParseKeyPayload(
          "wm-obt-key v1\nkey_seed 1\nnum_partitions 0\ncondition 0.7\n"
          "decode_threshold 0.1\nbits 101\n")
          .ok());
  EXPECT_FALSE(
      WmObtScheme::ParseKeyPayload(
          "wm-obt-key v1\nkey_seed 1\nkey_seed 2\nnum_partitions 4\n"
          "condition 0.7\ndecode_threshold 0.1\nbits 101\n")
          .ok());
}

TEST(WmRvsKeyPayloadTest, RoundTripPreservesDetectionParameters) {
  WmRvsOptions options;
  options.key_seed = 0xbeef;
  options.max_digit_position = 2;
  options.watermark_bits = {0, 1, 1};
  auto parsed = WmRvsScheme::ParseKeyPayload(
      WmRvsScheme::SerializeKeyPayload(options));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed.value().key_seed, options.key_seed);
  EXPECT_EQ(parsed.value().max_digit_position, options.max_digit_position);
  EXPECT_EQ(parsed.value().watermark_bits, options.watermark_bits);
}

// Regression: key files written on other platforms arrive with CRLF line
// endings and/or tab-separated fields; both must parse as the same key
// (ISSUE 2 — ParseKeyFields used to split on a literal ' ' only).
TEST(WmObtKeyPayloadTest, AcceptsCrlfAndTabSeparatedPayload) {
  WmObtOptions options;
  options.key_seed = 0xdead;
  options.num_partitions = 12;
  options.condition = 0.6251;
  options.decode_threshold = 0.3341;
  options.watermark_bits = {1, 0, 0, 1};
  std::string payload = WmObtScheme::SerializeKeyPayload(options);

  std::string mangled;
  for (char c : payload) {
    if (c == ' ') {
      mangled.push_back('\t');
    } else if (c == '\n') {
      mangled += "\r\n";
    } else {
      mangled.push_back(c);
    }
  }
  auto parsed = WmObtScheme::ParseKeyPayload(mangled);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed.value().key_seed, options.key_seed);
  EXPECT_EQ(parsed.value().num_partitions, options.num_partitions);
  EXPECT_DOUBLE_EQ(parsed.value().condition, options.condition);
  EXPECT_DOUBLE_EQ(parsed.value().decode_threshold,
                   options.decode_threshold);
  EXPECT_EQ(parsed.value().watermark_bits, options.watermark_bits);
}

TEST(WmRvsKeyPayloadTest, AcceptsCrlfAndTabSeparatedPayload) {
  WmRvsOptions options;
  options.key_seed = 0xbeef;
  options.max_digit_position = 2;
  options.watermark_bits = {0, 1, 1};
  std::string payload = WmRvsScheme::SerializeKeyPayload(options);
  std::string mangled;
  for (char c : payload) {
    if (c == ' ') {
      mangled.push_back('\t');
    } else if (c == '\n') {
      mangled += "\r\n";
    } else {
      mangled.push_back(c);
    }
  }
  auto parsed = WmRvsScheme::ParseKeyPayload(mangled);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed.value().key_seed, options.key_seed);
  EXPECT_EQ(parsed.value().max_digit_position, options.max_digit_position);
  EXPECT_EQ(parsed.value().watermark_bits, options.watermark_bits);
}

TEST(WmRvsKeyPayloadTest, RejectsMalformedFields) {
  EXPECT_FALSE(WmRvsScheme::ParseKeyPayload("").ok());
  EXPECT_FALSE(
      WmRvsScheme::ParseKeyPayload(
          "wm-rvs-key v1\nkey_seed 1\nmax_digit_position 99\nbits 1\n")
          .ok());
  EXPECT_FALSE(
      WmRvsScheme::ParseKeyPayload(
          "wm-rvs-key v1\nkey_seed 1\nmax_digit_position 1\nbits 12\n")
          .ok());
}

/// A well-formed WM-OBT payload with one field replaced by `value`.
std::string WmObtPayloadWith(const std::string& field,
                             const std::string& value) {
  std::map<std::string, std::string> fields = {
      {"key_seed", "7"},       {"num_partitions", "4"},
      {"condition", "0.7"},    {"decode_threshold", "0.1"},
      {"bits", "101"}};
  fields[field] = value;
  std::string payload = "wm-obt-key v1\n";
  for (const auto& [name, text] : fields) payload += name + " " + text + "\n";
  return payload;
}

// Each hostile field used to parse into a value: a 23-digit seed saturated
// to 2^64 - 1 (aliasing the key that has that seed), "nan" was accepted as
// a condition and "1.5abc" read as 1.5. All are typed corruption now.
TEST(WmObtKeyPayloadTest, HostileNumbersAreTypedCorruption) {
  ASSERT_TRUE(WmObtScheme::ParseKeyPayload(WmObtPayloadWith("key_seed", "7"))
                  .ok());
  const std::pair<std::string, std::string> hostile[] = {
      {"key_seed", "99999999999999999999999"},
      {"key_seed", "+7"},
      {"num_partitions", "18446744073709551620"},
      {"condition", "nan"},
      {"condition", "inf"},
      {"condition", "0.7x"},
      {"decode_threshold", "1.5abc"},
      {"decode_threshold", "1e999"},
  };
  for (const auto& [field, value] : hostile) {
    auto parsed = WmObtScheme::ParseKeyPayload(WmObtPayloadWith(field, value));
    ASSERT_FALSE(parsed.ok()) << field << " " << value;
    EXPECT_EQ(parsed.status().code(), StatusCode::kCorruption)
        << field << " " << value;
    EXPECT_EQ(parsed.status().message().rfind("bad " + field, 0), 0u)
        << parsed.status();
  }
}

// "4294967298" used to go through atoll and an int cast and parse as 2.
TEST(WmRvsKeyPayloadTest, HostileNumbersAreTypedCorruption) {
  const char* hostile[] = {
      "wm-rvs-key v1\nkey_seed 99999999999999999999999\n"
      "max_digit_position 2\nbits 1\n",
      "wm-rvs-key v1\nkey_seed 1\nmax_digit_position 4294967298\nbits 1\n",
      "wm-rvs-key v1\nkey_seed 1\nmax_digit_position "
      "99999999999999999999999\nbits 1\n",
      "wm-rvs-key v1\nkey_seed 1\nmax_digit_position -2\nbits 1\n",
  };
  for (const char* payload : hostile) {
    auto parsed = WmRvsScheme::ParseKeyPayload(payload);
    ASSERT_FALSE(parsed.ok()) << payload;
    EXPECT_EQ(parsed.status().code(), StatusCode::kCorruption) << payload;
  }
}

}  // namespace
}  // namespace freqywm
