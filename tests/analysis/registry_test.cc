#include "analysis/registry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "api/factory.h"
#include "attacks/destroy.h"
#include "core/watermark.h"
#include "datagen/power_law.h"

namespace freqywm {
namespace {

WatermarkSecrets MakeSecrets(uint64_t seed) {
  WatermarkSecrets s;
  s.r = GenerateSecret(256, seed);
  s.z = 131;
  s.pairs = {{"tk" + std::to_string(seed), "tk_other"}};
  return s;
}

SchemeKey MakeSchemeKey(const std::string& scheme, uint64_t seed) {
  OptionBag bag;
  bag.Set("seed", std::to_string(seed));
  auto created = SchemeFactory::Create(scheme, bag);
  EXPECT_TRUE(created.ok()) << created.status();

  Rng rng(seed);
  PowerLawSpec spec;
  spec.num_tokens = 80;
  spec.sample_size = 40000;
  spec.alpha = 0.6;
  auto outcome =
      created.value()->Embed(GeneratePowerLawHistogram(spec, rng));
  EXPECT_TRUE(outcome.ok()) << outcome.status();
  return outcome.value().key;
}

/// `TraceSuspects`, expected to succeed (a failure yields no matches).
std::vector<std::vector<TraceMatch>> TraceOk(
    const FingerprintRegistry& registry,
    const std::vector<Histogram>& suspects,
    const BatchDetectOptions& options = {}) {
  auto traced = registry.TraceSuspects(suspects, options);
  EXPECT_TRUE(traced.ok()) << traced.status();
  if (!traced.ok()) {
    return std::vector<std::vector<TraceMatch>>(suspects.size());
  }
  return traced.value();
}

/// Traces one suspect under fixed detection options for every record.
std::vector<TraceMatch> TraceFixed(const FingerprintRegistry& registry,
                                   const Histogram& suspect,
                                   const DetectOptions& detect_options) {
  BatchDetectOptions options;
  options.detect_options = detect_options;
  return TraceOk(registry, {suspect}, options)[0];
}

/// The serial trace oracle: every record through its `SchemeFactory`
/// scheme's `Detect` (under `fixed`, or the scheme's recommended options
/// when null), accepted matches sorted strongest first — stable, so
/// registration order breaks ties.
std::vector<TraceMatch> SerialTrace(const FingerprintRegistry& registry,
                                    const Histogram& suspect,
                                    const DetectOptions* fixed) {
  std::vector<TraceMatch> matches;
  for (const FingerprintRecord& record : registry.records()) {
    auto scheme = SchemeFactory::Create(record.key.scheme);
    if (!scheme.ok()) continue;
    const DetectOptions options =
        fixed != nullptr ? *fixed
                         : scheme.value()->RecommendedDetectOptions(record.key);
    DetectResult r = scheme.value()->Detect(suspect, record.key, options);
    if (r.accepted) {
      matches.push_back(TraceMatch{record.buyer_id, record.key.scheme, r});
    }
  }
  std::stable_sort(matches.begin(), matches.end(),
                   [](const TraceMatch& a, const TraceMatch& b) {
                     return a.detection.verified_fraction >
                            b.detection.verified_fraction;
                   });
  return matches;
}

TEST(RegistryTest, RegisterAndEnumerate) {
  FingerprintRegistry registry;
  ASSERT_TRUE(registry.Register("buyer-a", MakeSecrets(1)).ok());
  ASSERT_TRUE(registry.Register("buyer-b", MakeSecrets(2)).ok());
  EXPECT_EQ(registry.size(), 2u);
  EXPECT_EQ(registry.records()[0].buyer_id, "buyer-a");
  EXPECT_EQ(registry.records()[0].key.scheme, "freqywm");
}

TEST(RegistryTest, RejectsDuplicatesAndBadIds) {
  FingerprintRegistry registry;
  ASSERT_TRUE(registry.Register("buyer-a", MakeSecrets(1)).ok());
  EXPECT_EQ(registry.Register("buyer-a", MakeSecrets(2)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(registry.Register("", MakeSecrets(3)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(registry.Register("two\nlines", MakeSecrets(4)).code(),
            StatusCode::kInvalidArgument);
}

TEST(RegistryTest, RejectsBadSchemeTags) {
  FingerprintRegistry registry;
  EXPECT_EQ(registry.Register("buyer-a", SchemeKey{"", "payload"}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      registry.Register("buyer-a", SchemeKey{"has space", "payload"}).code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(
      registry.Register("buyer-a", SchemeKey{"has\nnewline", "p"}).code(),
      StatusCode::kInvalidArgument);
}

TEST(RegistryTest, SerializeDeserializeRoundTrip) {
  FingerprintRegistry registry;
  ASSERT_TRUE(registry.Register("acme analytics", MakeSecrets(1)).ok());
  ASSERT_TRUE(registry.Register("hedge-fund-42", MakeSecrets(2)).ok());
  auto parsed = FingerprintRegistry::Deserialize(registry.Serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed.value().size(), 2u);
  EXPECT_EQ(parsed.value().records()[0].buyer_id, "acme analytics");
  EXPECT_EQ(parsed.value().records()[0].key, registry.records()[0].key);
}

TEST(RegistryTest, SchemeTaggedRoundTripAcrossAllSchemes) {
  // One buyer per registered scheme — a mixed-scheme escrow must survive
  // serialization with every tag and payload intact.
  FingerprintRegistry registry;
  std::vector<std::string> schemes = SchemeFactory::RegisteredNames();
  for (size_t i = 0; i < schemes.size(); ++i) {
    ASSERT_TRUE(registry
                    .Register("buyer-" + schemes[i],
                              MakeSchemeKey(schemes[i], 100 + i))
                    .ok());
  }
  auto parsed = FingerprintRegistry::Deserialize(registry.Serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_EQ(parsed.value().size(), schemes.size());
  for (size_t i = 0; i < schemes.size(); ++i) {
    EXPECT_EQ(parsed.value().records()[i].buyer_id,
              registry.records()[i].buyer_id);
    EXPECT_EQ(parsed.value().records()[i].key, registry.records()[i].key);
  }
}

TEST(RegistryTest, DeserializeAcceptsLegacyV1) {
  // A v1 registry (untagged FreqyWM secrets) still loads; records come
  // back tagged "freqywm".
  WatermarkSecrets secrets = MakeSecrets(5);
  std::string payload = secrets.Serialize();
  size_t lines = static_cast<size_t>(
      std::count(payload.begin(), payload.end(), '\n'));
  std::string text = "freqywm-registry v1\nrecords 1\nbuyer " +
                     std::to_string(lines) + " legacy buyer\n" + payload;
  auto parsed = FingerprintRegistry::Deserialize(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_EQ(parsed.value().size(), 1u);
  EXPECT_EQ(parsed.value().records()[0].buyer_id, "legacy buyer");
  EXPECT_EQ(parsed.value().records()[0].key.scheme, "freqywm");
  EXPECT_EQ(parsed.value().records()[0].key.payload, payload);
}

TEST(RegistryTest, DeserializeRejectsGarbage) {
  EXPECT_FALSE(FingerprintRegistry::Deserialize("nope").ok());
  EXPECT_FALSE(
      FingerprintRegistry::Deserialize("freqywm-registry v2\nrecords x\n")
          .ok());
  FingerprintRegistry registry;
  ASSERT_TRUE(registry.Register("a", MakeSecrets(1)).ok());
  std::string text = registry.Serialize();
  text.resize(text.size() / 2);  // truncate mid-secrets
  EXPECT_FALSE(FingerprintRegistry::Deserialize(text).ok());
}

TEST(RegistryTest, DeserializeRejectsDuplicateBuyers) {
  FingerprintRegistry registry;
  ASSERT_TRUE(registry.Register("dup", MakeSecrets(1)).ok());
  std::string one = registry.Serialize();
  // Splice the same record in twice and fix up the count.
  std::string twice = one;
  size_t header_end = twice.find('\n', twice.find('\n') + 1) + 1;
  twice += one.substr(header_end);
  size_t records_pos = twice.find("records 1");
  ASSERT_NE(records_pos, std::string::npos);
  twice.replace(records_pos, 9, "records 2");
  auto parsed = FingerprintRegistry::Deserialize(twice);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
}

// --- ISSUE 5 round-trip hardening regressions -------------------------

TEST(RegistryTest, DeserializeRejectsDuplicateBuyersAcrossSchemes) {
  // Same buyer id under two different scheme tags is still one buyer:
  // duplicate ids must fail with InvalidArgument, not shadow each other.
  FingerprintRegistry a;
  ASSERT_TRUE(a.Register("dup", MakeSchemeKey("freqywm", 7)).ok());
  FingerprintRegistry b;
  ASSERT_TRUE(b.Register("dup", MakeSchemeKey("wm-rvs", 8)).ok());

  std::string text_a = a.Serialize();
  std::string text_b = b.Serialize();
  size_t body_b = text_b.find('\n', text_b.find('\n') + 1) + 1;
  std::string spliced = text_a + text_b.substr(body_b);
  size_t records_pos = spliced.find("records 1");
  ASSERT_NE(records_pos, std::string::npos);
  spliced.replace(records_pos, 9, "records 2");

  auto parsed = FingerprintRegistry::Deserialize(spliced);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
}

TEST(RegistryTest, DeserializeRejectsUndercountedRecordsHeader) {
  // Previously an undercounting `records` header silently dropped the
  // trailing records — Deserialize(Serialize(x)) would lose buyers.
  FingerprintRegistry registry;
  ASSERT_TRUE(registry.Register("a", MakeSecrets(1)).ok());
  ASSERT_TRUE(registry.Register("b", MakeSecrets(2)).ok());
  std::string text = registry.Serialize();
  size_t records_pos = text.find("records 2");
  ASSERT_NE(records_pos, std::string::npos);
  text.replace(records_pos, 9, "records 1");

  auto parsed = FingerprintRegistry::Deserialize(text);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);

  // Trailing whitespace (the serializer's own newline) stays legal.
  FingerprintRegistry one;
  ASSERT_TRUE(one.Register("a", MakeSecrets(1)).ok());
  EXPECT_TRUE(FingerprintRegistry::Deserialize(one.Serialize() + "\n\n").ok());
}

TEST(RegistryTest, DeserializeRejectsOverflowingSizeFieldsWithoutThrowing) {
  // 20-digit counts used to escape as std::out_of_range from std::stoull
  // and terminate the process; they must surface as a status instead.
  EXPECT_FALSE(FingerprintRegistry::Deserialize(
                   "freqywm-registry v2\nrecords 99999999999999999999\n")
                   .ok());

  FingerprintRegistry registry;
  ASSERT_TRUE(registry.Register("a", MakeSecrets(1)).ok());
  std::string text = registry.Serialize();
  size_t buyer_pos = text.find("buyer ");
  ASSERT_NE(buyer_pos, std::string::npos);
  size_t size_end = text.find(' ', buyer_pos + 6);
  std::string huge = text.substr(0, buyer_pos + 6) +
                     "99999999999999999999" + text.substr(size_end);
  EXPECT_FALSE(FingerprintRegistry::Deserialize(huge).ok());

  // A signed size field is malformed, not a sign-extended huge read.
  std::string negative = text.substr(0, buyer_pos + 6) + "-1" +
                         text.substr(size_end);
  auto parsed = FingerprintRegistry::Deserialize(negative);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kCorruption);
}

TEST(RegistryTest, DeserializeRejectsMissingPayloadSeparator) {
  FingerprintRegistry registry;
  ASSERT_TRUE(registry.Register("a", MakeSchemeKey("wm-rvs", 5)).ok());
  std::string text = registry.Serialize();
  // Shrink the declared payload size by two: the separator check lands
  // mid-payload and must reject rather than shift the framing.
  size_t buyer_pos = text.find("buyer ");
  size_t size_end = text.find(' ', buyer_pos + 6);
  std::string size_text = text.substr(buyer_pos + 6,
                                      size_end - buyer_pos - 6);
  size_t declared = std::stoull(size_text);
  std::string shrunk = text.substr(0, buyer_pos + 6) +
                       std::to_string(declared - 2) + text.substr(size_end);
  EXPECT_FALSE(FingerprintRegistry::Deserialize(shrunk).ok());
}

TEST(RegistryTest, TraceIdentifiesLeakingBuyer) {
  Rng rng(5);
  PowerLawSpec spec;
  spec.num_tokens = 300;
  spec.sample_size = 300000;
  spec.alpha = 0.6;
  Histogram master = GeneratePowerLawHistogram(spec, rng);

  FingerprintRegistry registry;
  std::vector<Histogram> delivered;
  for (int buyer = 0; buyer < 3; ++buyer) {
    GenerateOptions o;
    o.budget_percent = 2.0;
    o.modulus_bound = 67;
    o.min_modulus = 16;
    // Fingerprint hygiene: every pair must have been at least 12 steps
    // from alignment in the master, so a foreign buyer's copy cannot pass
    // the t = 5 trace below by proximity.
    o.min_pair_cost = 12;
    o.seed = 100 + static_cast<uint64_t>(buyer);
    auto r = WatermarkGenerator(o).GenerateFromHistogram(master);
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(registry
                    .Register("buyer-" + std::to_string(buyer),
                              r.value().report.secrets)
                    .ok());
    delivered.push_back(std::move(r.value().watermarked));
  }

  // Buyer 1 leaks a noise-disguised copy.
  Rng pirate_rng(9);
  Histogram pirated =
      DestroyAttackPercentOfBoundary(delivered[1], 4.0, pirate_rng);

  DetectOptions d;
  d.pair_threshold = 5;
  d.symmetric_residue = true;
  d.min_pairs = 1;
  {
    auto secrets =
        WatermarkSecrets::Deserialize(registry.records()[1].key.payload);
    ASSERT_TRUE(secrets.ok());
    d.min_pairs = std::max<size_t>(1, secrets.value().pairs.size() / 2);
  }
  auto matches = TraceFixed(registry, pirated, d);
  ASSERT_FALSE(matches.empty());
  EXPECT_EQ(matches[0].buyer_id, "buyer-1");
  EXPECT_EQ(matches[0].scheme, "freqywm");
}

TEST(RegistryTest, TraceOnUnrelatedDataFindsNothing) {
  Rng rng(6);
  PowerLawSpec spec;
  spec.num_tokens = 300;
  spec.sample_size = 300000;
  spec.alpha = 0.6;
  Histogram master = GeneratePowerLawHistogram(spec, rng);

  FingerprintRegistry registry;
  GenerateOptions o;
  o.budget_percent = 2.0;
  o.modulus_bound = 67;
  o.min_modulus = 16;
  o.seed = 7;
  auto r = WatermarkGenerator(o).GenerateFromHistogram(master);
  ASSERT_TRUE(r.ok());
  size_t pairs = r.value().report.secrets.pairs.size();
  ASSERT_TRUE(registry.Register("only-buyer",
                                std::move(r.value().report.secrets))
                  .ok());

  Rng rng2(8);
  spec.alpha = 0.9;
  Histogram unrelated = GeneratePowerLawHistogram(spec, rng2);
  DetectOptions d;
  d.pair_threshold = 0;
  d.min_pairs = std::max<size_t>(1, pairs / 2);
  EXPECT_TRUE(TraceFixed(registry, unrelated, d).empty());
}

TEST(RegistryTest, MixedSchemeTraceFindsOnlyTheEmbeddedScheme) {
  // Escrow one key per scheme, all embedded into copies of the same
  // master; leak the wm-rvs copy; only the wm-rvs buyer may match. Runs
  // entirely through TraceSuspects — no scheme-specific branching here.
  Rng rng(21);
  PowerLawSpec spec;
  spec.num_tokens = 200;
  spec.sample_size = 150000;
  spec.alpha = 0.6;
  Histogram master = GeneratePowerLawHistogram(spec, rng);

  FingerprintRegistry registry;
  Histogram leaked;
  for (const std::string& scheme_name : SchemeFactory::RegisteredNames()) {
    OptionBag bag;
    bag.Set("seed", "777");
    auto scheme = SchemeFactory::Create(scheme_name, bag);
    ASSERT_TRUE(scheme.ok()) << scheme.status();
    auto outcome = scheme.value()->Embed(master);
    ASSERT_TRUE(outcome.ok()) << outcome.status();
    ASSERT_TRUE(registry
                    .Register("buyer-" + scheme_name,
                              std::move(outcome.value().key))
                    .ok());
    if (scheme_name == "wm-rvs") {
      leaked = std::move(outcome.value().watermarked);
    }
  }
  ASSERT_FALSE(leaked.empty());

  auto matches = TraceOk(registry, {leaked})[0];
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].buyer_id, "buyer-wm-rvs");
  EXPECT_EQ(matches[0].scheme, "wm-rvs");
}

TEST(RegistryTest, TraceSuspectsMatchesSerialTracePerSuspect) {
  // The batch trace must be exactly the serial per-suspect trace, at any
  // thread count — both under recommended options and fixed options.
  Rng rng(33);
  PowerLawSpec spec;
  spec.num_tokens = 200;
  spec.sample_size = 150000;
  spec.alpha = 0.6;
  Histogram master = GeneratePowerLawHistogram(spec, rng);

  FingerprintRegistry registry;
  std::vector<Histogram> suspects;
  for (const std::string& scheme_name : SchemeFactory::RegisteredNames()) {
    OptionBag bag;
    bag.Set("seed", "888");
    auto scheme = SchemeFactory::Create(scheme_name, bag);
    ASSERT_TRUE(scheme.ok()) << scheme.status();
    auto outcome = scheme.value()->Embed(master);
    ASSERT_TRUE(outcome.ok()) << outcome.status();
    ASSERT_TRUE(registry
                    .Register("buyer-" + scheme_name,
                              std::move(outcome.value().key))
                    .ok());
    suspects.push_back(std::move(outcome.value().watermarked));
  }
  suspects.push_back(master);  // a clean suspect: no matches expected

  // Recommended-options semantics.
  std::vector<std::vector<TraceMatch>> serial;
  for (const Histogram& suspect : suspects) {
    serial.push_back(SerialTrace(registry, suspect, nullptr));
  }
  for (size_t threads : {1, 4}) {
    BatchDetectOptions options;
    options.num_threads = threads;
    EXPECT_TRUE(TraceOk(registry, suspects, options) == serial)
        << threads << " threads";
  }
  // Each buyer's copy matched at least its own key; clean copy matched
  // nothing.
  for (size_t i = 0; i + 1 < suspects.size(); ++i) {
    ASSERT_FALSE(serial[i].empty()) << "suspect " << i;
  }
  EXPECT_TRUE(serial.back().empty());

  // Fixed-options semantics (`detect_options` set).
  DetectOptions fixed;
  fixed.pair_threshold = 0;
  fixed.min_pairs = 1;
  std::vector<std::vector<TraceMatch>> serial_fixed;
  for (const Histogram& suspect : suspects) {
    serial_fixed.push_back(SerialTrace(registry, suspect, &fixed));
  }
  BatchDetectOptions fixed_options;
  fixed_options.num_threads = 4;
  fixed_options.detect_options = fixed;
  EXPECT_TRUE(TraceOk(registry, suspects, fixed_options) == serial_fixed);
}

TEST(RegistryTest, TraceSuspectsSkipsUnregisteredSchemes) {
  Rng rng(41);
  PowerLawSpec spec;
  spec.num_tokens = 150;
  spec.sample_size = 80000;
  spec.alpha = 0.6;
  Histogram master = GeneratePowerLawHistogram(spec, rng);

  FingerprintRegistry registry;
  ASSERT_TRUE(
      registry.Register("ghost", SchemeKey{"not-a-scheme", "blob"}).ok());
  auto batched = TraceOk(registry, {master}, BatchDetectOptions{});
  ASSERT_EQ(batched.size(), 1u);
  EXPECT_TRUE(batched[0].empty());
  EXPECT_TRUE(TraceOk(registry, {}, BatchDetectOptions{}).empty());
}

TEST(RegistryTest, RoundTripIsByteExactForForeignPayloads) {
  // Out-of-tree schemes may use payloads without a trailing newline (or
  // any line structure at all); serialization must not alter them.
  FingerprintRegistry registry;
  ASSERT_TRUE(
      registry.Register("martian", SchemeKey{"martian-wm", "opaque"}).ok());
  ASSERT_TRUE(
      registry.Register("venusian", SchemeKey{"venus-wm", "a\n\nb"}).ok());
  auto parsed = FingerprintRegistry::Deserialize(registry.Serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_EQ(parsed.value().size(), 2u);
  EXPECT_EQ(parsed.value().records()[0].key.payload, "opaque");
  EXPECT_EQ(parsed.value().records()[1].key.payload, "a\n\nb");
}

TEST(RegistryTest, TraceSkipsUnregisteredSchemes) {
  FingerprintRegistry registry;
  ASSERT_TRUE(
      registry.Register("martian", SchemeKey{"martian-wm", "opaque"}).ok());
  Rng rng(3);
  PowerLawSpec spec;
  spec.num_tokens = 50;
  spec.sample_size = 20000;
  Histogram hist = GeneratePowerLawHistogram(spec, rng);
  EXPECT_TRUE(TraceFixed(registry, hist, DetectOptions{}).empty());
}

}  // namespace
}  // namespace freqywm
