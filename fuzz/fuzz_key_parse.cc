/// Fuzz harness for the scheme-key parsing stack (DESIGN.md §11):
/// `SchemeKey::Deserialize` plus, when the blob parses, the per-scheme
/// payload parsers reached through `WatermarkScheme::Prepare` and the
/// detect path (`ParseKeyFields`, `ParseBitString`, secrets parsing, ...).
///
/// Properties checked on every input:
///  * the parsers never crash, leak or trip UB on arbitrary bytes;
///  * `Prepare` never returns null, malformed payloads included
///    (api/scheme.h contract);
///  * a FreqyWM payload that parses has no self-pair and no repeated
///    pair — either one verifies without any watermark in the data;
///  * the prepared detector agrees with the scheme's independent oracle
///    (the payload parsed by the scheme's own parser and run through the
///    uncached detector) bit-exactly, and a payload that fails to parse
///    rejects with a default `DetectResult` — for hostile keys too, the
///    contract `tests/exec/prepared_detect_test.cc` enforces on
///    well-formed ones.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "api/factory.h"
#include "api/scheme.h"
#include "api/wm_obt_scheme.h"
#include "api/wm_rvs_scheme.h"
#include "baselines/wm_obt.h"
#include "baselines/wm_rvs.h"
#include "core/detect.h"
#include "core/secrets.h"
#include "data/histogram.h"

namespace {

/// A tiny fixed suspect histogram, built once: detection cost stays
/// bounded no matter what the fuzzer feeds the key parser.
const freqywm::Histogram& SuspectHistogram() {
  static const freqywm::Histogram* hist = [] {
    std::vector<freqywm::HistogramEntry> entries;
    for (uint64_t t = 0; t < 32; ++t) {
      entries.push_back(freqywm::HistogramEntry{
          freqywm::Token("tok" + std::to_string(t)), 1000 - 7 * t});
    }
    auto built = freqywm::Histogram::FromCounts(std::move(entries));
    return new freqywm::Histogram(std::move(built).value());
  }();
  return *hist;
}

/// The scheme's detection oracle: its own payload parser, then the
/// uncached detector; nullopt when the payload fails to parse. Aborts on
/// a tag the harness has no oracle for.
std::optional<freqywm::DetectResult> OracleDetect(
    const freqywm::SchemeKey& key, const freqywm::DetectOptions& options) {
  const freqywm::Histogram& suspect = SuspectHistogram();
  if (key.scheme == "freqywm") {
    auto secrets = freqywm::WatermarkSecrets::Deserialize(key.payload);
    if (!secrets.ok()) return std::nullopt;
    std::set<std::pair<std::string, std::string>> seen;
    for (const freqywm::SecretPair& p : secrets.value().pairs) {
      if (p.token_i == p.token_j ||
          !seen.emplace(p.token_i, p.token_j).second) {
        std::fprintf(stderr, "parsed key holds a self-pair or a repeat\n");
        std::abort();
      }
    }
    return freqywm::DetectWatermarkReference(suspect, secrets.value(),
                                             options);
  }
  if (key.scheme == "wm-obt") {
    auto payload = freqywm::WmObtScheme::ParseKeyPayload(key.payload);
    if (!payload.ok()) return std::nullopt;
    return freqywm::DetectWmObt(suspect, payload.value(), options);
  }
  if (key.scheme == "wm-rvs") {
    auto payload = freqywm::WmRvsScheme::ParseKeyPayload(key.payload);
    if (!payload.ok()) return std::nullopt;
    return freqywm::DetectWmRvs(suspect, payload.value(), options);
  }
  std::fprintf(stderr, "no detection oracle for scheme %s\n",
               key.scheme.c_str());
  std::abort();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string text(reinterpret_cast<const char*>(data), size);
  freqywm::Result<freqywm::SchemeKey> parsed =
      freqywm::SchemeKey::Deserialize(text);
  if (!parsed.ok()) return 0;  // rejecting is always fine
  const freqywm::SchemeKey& key = parsed.value();

  static freqywm::SchemeCache* schemes = new freqywm::SchemeCache();
  const freqywm::WatermarkScheme* scheme = schemes->Get(key.scheme);
  if (scheme == nullptr) return 0;  // unregistered tag — nothing to probe

  std::unique_ptr<freqywm::PreparedKey> prepared = scheme->Prepare(key);
  if (prepared == nullptr) {
    std::fprintf(stderr, "Prepare returned null for scheme %s\n",
                 key.scheme.c_str());
    std::abort();
  }

  const freqywm::DetectOptions options =
      scheme->RecommendedDetectOptions(key);
  // A payload that fails to parse must reject with a default result.
  const freqywm::DetectResult expected =
      OracleDetect(key, options).value_or(freqywm::DetectResult{});
  if (!(prepared->Detect(SuspectHistogram(), options) == expected)) {
    std::fprintf(stderr,
                 "prepared detection diverges from the oracle for scheme "
                 "%s\n",
                 key.scheme.c_str());
    std::abort();
  }
  return 0;
}
