// Golden identity for the prepared detector: for every registered scheme,
// `Prepare(key)->Detect(suspect, options)` (and, for keys with a token
// vocabulary, the dense-count `Detect`) must equal the scheme's
// independent oracle — the key parsed by its own payload parser and run
// through the uncached core/baseline detector — on hits, misses, clean
// data, attacked thresholds and malformed/foreign keys. The FreqyWM
// `PairModulusTable` must also reproduce `DetectWatermarkReference` bit
// for bit, including keys whose pair lists repeat tokens (the case the
// per-key inner-digest cache exists for).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "api/factory.h"
#include "api/scheme.h"
#include "api/wm_obt_scheme.h"
#include "api/wm_rvs_scheme.h"
#include "baselines/wm_obt.h"
#include "baselines/wm_rvs.h"
#include "common/random.h"
#include "core/detect.h"
#include "core/secrets.h"
#include "core/watermark.h"
#include "datagen/power_law.h"

namespace freqywm {
namespace {

Histogram MakeCleanHistogram(uint64_t seed, size_t tokens = 300,
                             size_t samples = 120000) {
  Rng rng(seed);
  PowerLawSpec spec;
  spec.num_tokens = tokens;
  spec.sample_size = samples;
  spec.alpha = 0.6;
  return GeneratePowerLawHistogram(spec, rng);
}

void ExpectSameResult(const DetectResult& a, const DetectResult& b,
                      const std::string& label) {
  EXPECT_TRUE(a == b) << label << ": accepted " << a.accepted << "/"
                      << b.accepted << ", found " << a.pairs_found << "/"
                      << b.pairs_found << ", verified " << a.pairs_verified
                      << "/" << b.pairs_verified;
}

/// Scheme `scheme`'s detection oracle, independent of its `PreparedKey`:
/// the payload parsed by the scheme's own parser and run through the
/// uncached detector. A foreign tag or unparsable payload rejects.
DetectResult OracleDetect(const std::string& scheme, const Histogram& suspect,
                          const SchemeKey& key, const DetectOptions& options) {
  if (key.scheme != scheme) return DetectResult{};
  if (scheme == "freqywm") {
    auto secrets = WatermarkSecrets::Deserialize(key.payload);
    if (!secrets.ok()) return DetectResult{};
    return DetectWatermarkReference(suspect, secrets.value(), options);
  }
  if (scheme == "wm-obt") {
    auto parsed = WmObtScheme::ParseKeyPayload(key.payload);
    if (!parsed.ok()) return DetectResult{};
    return DetectWmObt(suspect, parsed.value(), options);
  }
  if (scheme == "wm-rvs") {
    auto parsed = WmRvsScheme::ParseKeyPayload(key.payload);
    if (!parsed.ok()) return DetectResult{};
    return DetectWmRvs(suspect, parsed.value(), options);
  }
  ADD_FAILURE() << "no detection oracle for scheme '" << scheme << "'";
  return DetectResult{};
}

/// Checks every way to detect with `prepared` against the oracle: the
/// histogram `Detect`, the dense-count `Detect` when the key exposes a
/// vocabulary, and the scheme's one-shot `Detect(suspect, key)`.
void ExpectMatchesOracle(const WatermarkScheme& scheme,
                         const PreparedKey& prepared, const Histogram& suspect,
                         const DetectOptions& options,
                         const std::string& label) {
  const DetectResult oracle =
      OracleDetect(scheme.name(), suspect, prepared.key(), options);
  ExpectSameResult(oracle, prepared.Detect(suspect, options), label);
  ExpectSameResult(oracle, scheme.Detect(suspect, prepared.key(), options),
                   label + "/one-shot");
  const std::vector<Token>* vocab = prepared.TokenVocabulary();
  if (vocab == nullptr) return;
  std::vector<uint32_t> ids(vocab->size());
  std::vector<uint64_t> counts(vocab->size(), 0);
  std::vector<uint8_t> present(vocab->size(), 0);
  for (size_t t = 0; t < vocab->size(); ++t) {
    ids[t] = static_cast<uint32_t>(t);
    const auto count = suspect.CountOf((*vocab)[t]);
    counts[t] = count.value_or(0);
    present[t] = count.has_value();
  }
  ExpectSameResult(
      oracle,
      prepared.Detect(DenseSuspectCounts{counts.data(), present.data()},
                      ids.data(), options),
      label + "/dense");
}

class PreparedDetectSchemeTest
    : public ::testing::TestWithParam<std::string> {};

TEST_P(PreparedDetectSchemeTest, PreparedDetectIdenticalToKeyDetect) {
  OptionBag bag;
  bag.Set("seed", "515");
  auto scheme = SchemeFactory::Create(GetParam(), bag);
  ASSERT_TRUE(scheme.ok()) << scheme.status();

  Histogram original = MakeCleanHistogram(71);
  auto outcome = scheme.value()->Embed(original);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  const SchemeKey& key = outcome.value().key;

  std::vector<std::pair<std::string, Histogram>> suspects{
      {"own_copy", outcome.value().watermarked},
      {"clean_original", original},
      {"unrelated", MakeCleanHistogram(72)},
  };

  std::unique_ptr<PreparedKey> prepared = scheme.value()->Prepare(key);
  ASSERT_NE(prepared, nullptr);
  EXPECT_TRUE(prepared->key() == key);

  DetectOptions recommended =
      scheme.value()->RecommendedDetectOptions(key);
  DetectOptions relaxed;
  relaxed.pair_threshold = 2;
  relaxed.min_pairs = 1;
  relaxed.symmetric_residue = true;

  for (const auto& [label, suspect] : suspects) {
    for (const DetectOptions& options : {recommended, relaxed}) {
      ExpectMatchesOracle(*scheme.value(), *prepared, suspect, options,
                          GetParam() + "/" + label);
    }
  }
  // The own copy verifies, and reusing the prepared key stays stable.
  DetectResult first = prepared->Detect(suspects[0].second, recommended);
  EXPECT_TRUE(first.accepted) << GetParam();
  for (int k = 0; k < 3; ++k) {
    ExpectSameResult(first, prepared->Detect(suspects[0].second, recommended),
                     GetParam() + "/reuse");
  }
}

TEST_P(PreparedDetectSchemeTest, MalformedAndForeignKeysRejectIdentically) {
  auto scheme = SchemeFactory::Create(GetParam());
  ASSERT_TRUE(scheme.ok()) << scheme.status();
  Histogram original = MakeCleanHistogram(73);
  auto outcome = scheme.value()->Embed(original);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  const Histogram& suspect = outcome.value().watermarked;
  DetectOptions options;
  options.min_pairs = 1;

  std::vector<SchemeKey> bad_keys{
      SchemeKey{GetParam(), "not a valid payload"},
      SchemeKey{GetParam(), ""},
      SchemeKey{"some-other-scheme", "payload"},
      // The scheme's own valid payload under a foreign tag.
      SchemeKey{"some-other-scheme", outcome.value().key.payload},
  };
  for (const SchemeKey& key : bad_keys) {
    std::unique_ptr<PreparedKey> prepared = scheme.value()->Prepare(key);
    ASSERT_NE(prepared, nullptr);
    ExpectMatchesOracle(*scheme.value(), *prepared, suspect, options,
                        GetParam() + "/bad-key");
    // Malformed keys reject outright and opt out of the dense gather.
    EXPECT_TRUE(prepared->Detect(suspect, options) == DetectResult{});
    EXPECT_EQ(prepared->TokenVocabulary(), nullptr);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllRegisteredSchemes, PreparedDetectSchemeTest,
    ::testing::ValuesIn(SchemeFactory::RegisteredNames()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// FreqyWM-core golden identity: table-backed DetectWatermark vs the
// uncached reference, over the full options grid.
TEST(PairModulusTableTest, TableBackedDetectMatchesUncachedReference) {
  Histogram original = MakeCleanHistogram(81);
  GenerateOptions gen_options;
  gen_options.seed = 5;
  gen_options.modulus_bound = 131;
  auto generated =
      WatermarkGenerator(gen_options).GenerateFromHistogram(original);
  ASSERT_TRUE(generated.ok()) << generated.status();
  const WatermarkSecrets& secrets = generated.value().report.secrets;
  ASSERT_FALSE(secrets.pairs.empty());

  PairModulusTable table = PairModulusTable::Build(secrets);
  ASSERT_TRUE(table.valid());
  EXPECT_EQ(table.num_pairs(), secrets.pairs.size());

  std::vector<Histogram> suspects{generated.value().watermarked, original,
                                  MakeCleanHistogram(82)};
  for (const Histogram& suspect : suspects) {
    for (uint64_t threshold : {0ull, 1ull, 5ull}) {
      for (bool symmetric : {false, true}) {
        for (double rescale : {0.0, 2.0}) {
          DetectOptions d;
          d.pair_threshold = threshold;
          d.min_pairs = 1;
          d.symmetric_residue = symmetric;
          d.rescale_factor = rescale;
          DetectResult reference =
              DetectWatermarkReference(suspect, secrets, d);
          ExpectSameResult(reference, DetectWatermark(suspect, table, d),
                           "table");
          ExpectSameResult(reference, DetectWatermark(suspect, secrets, d),
                           "secrets-path");
        }
      }
    }
  }
}

// Repeated tokens across pairs (forged/refreshed/multi-watermark keys):
// the interned inner-digest/midstate caches must not change any result.
TEST(PairModulusTableTest, RepeatedTokensAcrossPairsStayIdentical) {
  WatermarkSecrets secrets;
  secrets.r = GenerateSecret(256, 91);
  secrets.z = 131;
  // token "hub" appears as token_j in many pairs and as token_i in some.
  for (int k = 0; k < 12; ++k) {
    secrets.pairs.push_back(SecretPair{"spoke" + std::to_string(k), "hub"});
  }
  secrets.pairs.push_back(SecretPair{"hub", "spoke3"});
  secrets.pairs.push_back(SecretPair{"hub", "rim"});
  secrets.pairs.push_back(SecretPair{"spoke1", "spoke2"});

  std::vector<HistogramEntry> entries;
  entries.push_back({"hub", 900});
  for (int k = 0; k < 12; ++k) {
    entries.push_back(
        {"spoke" + std::to_string(k), 400 - static_cast<uint64_t>(k) * 13});
  }
  auto suspect = Histogram::FromCounts(std::move(entries));
  ASSERT_TRUE(suspect.ok());

  PairModulusTable table = PairModulusTable::Build(secrets);
  ASSERT_TRUE(table.valid());
  // 13 distinct spokes + hub; "rim" is absent from the suspect but still
  // interned.
  EXPECT_EQ(table.tokens().size(), 14u);

  for (uint64_t threshold : {0ull, 3ull, 64ull}) {
    DetectOptions d;
    d.pair_threshold = threshold;
    d.min_pairs = 2;
    ExpectSameResult(DetectWatermarkReference(suspect.value(), secrets, d),
                     DetectWatermark(suspect.value(), table, d),
                     "repeated-tokens");
  }
}

TEST(PairModulusTableTest, InvalidSecretsYieldInvalidTableAndRejection) {
  WatermarkSecrets no_pairs;
  no_pairs.r = GenerateSecret(256, 92);
  no_pairs.z = 131;
  EXPECT_FALSE(PairModulusTable::Build(no_pairs).valid());

  WatermarkSecrets bad_z;
  bad_z.r = GenerateSecret(256, 93);
  bad_z.z = 1;
  bad_z.pairs.push_back(SecretPair{"a", "b"});
  EXPECT_FALSE(PairModulusTable::Build(bad_z).valid());

  DetectOptions d;
  d.min_pairs = 0;  // even a zero bar must not accept through an invalid table
  Histogram suspect = MakeCleanHistogram(94, 50, 5000);
  EXPECT_TRUE(DetectWatermark(suspect, PairModulusTable::Build(bad_z), d) ==
              DetectWatermark(suspect, bad_z, d));
}

}  // namespace
}  // namespace freqywm
