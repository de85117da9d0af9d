// Reproduces §V-D: the re-watermarking (false-claim) attack and the judge
// arbitration protocol, driven through the `WatermarkScheme` API (ISSUE 4
// bench-conversion backlog): the attacker simply embeds its own watermark
// on the owner's watermarked data — through the same `Embed` call path —
// and presents its (valid-looking) `SchemeKey`; the judge runs both keys
// against both datasets through `Detect`.
//
// Paper reference: the first watermark is still detected on the attacker's
// dataset (92% of pairs at t = 0), and only the rightful owner's key
// verifies on both datasets.

#include <memory>

#include "api/scheme.h"
#include "attacks/rewatermark.h"
#include "bench_common.h"

namespace fb = freqywm::bench;
using namespace freqywm;

namespace {

std::unique_ptr<WatermarkScheme> MakeFreqyWm(uint64_t seed) {
  OptionBag bag;
  bag.Set("budget", "2.0");
  bag.Set("z", "131");
  bag.Set("strategy", "optimal");
  bag.Set("seed", std::to_string(seed));
  auto scheme = SchemeFactory::Create("freqywm", bag);
  if (!scheme.ok()) {
    std::printf("scheme creation failed: %s\n",
                scheme.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(scheme).value();
}

}  // namespace

int main() {
  fb::PrintBanner("§V-D — re-watermarking attack + judge protocol",
                  "ICDE'24 FreqyWM §V-D (WatermarkScheme API)");
  Histogram original = fb::MakeSynthetic(0.5, 42);

  auto owner_scheme = MakeFreqyWm(42);
  auto owner = owner_scheme->Embed(original);
  if (!owner.ok()) return 1;

  // The attack through the scheme interface: watermark the watermarked.
  auto attacker_scheme = MakeFreqyWm(666);
  auto attacker = attacker_scheme->Embed(owner.value().watermarked);
  if (!attacker.ok()) return 1;

  std::printf("owner pairs: %zu, attacker pairs: %zu\n\n",
              owner.value().report.embedded_units,
              attacker.value().report.embedded_units);

  std::printf("%-6s %-22s %-22s\n", "t", "owner-on-attacker-data",
              "attacker-on-owner-data");
  for (uint64_t t : {0ull, 1ull, 2ull, 4ull}) {
    DetectOptions d;
    d.pair_threshold = t;
    d.min_pairs = 1;
    double a_on_b = owner_scheme
                        ->Detect(attacker.value().watermarked,
                                 owner.value().key, d)
                        .verified_fraction;
    double b_on_a = attacker_scheme
                        ->Detect(owner.value().watermarked,
                                 attacker.value().key, d)
                        .verified_fraction;
    std::printf("%-6llu %-22.3f %-22.3f\n",
                static_cast<unsigned long long>(t), a_on_b, b_on_a);
  }

  // The judge runs each party's key against each party's dataset through
  // the scheme interface; the party whose key verifies on BOTH datasets
  // watermarked first (§V-D chronology argument).
  DetectOptions judge =
      owner_scheme->RecommendedDetectOptions(owner.value().key);
  DetectOptions attacker_judge =
      attacker_scheme->RecommendedDetectOptions(attacker.value().key);
  JudgeReport report;
  report.a_on_a = owner_scheme->Detect(owner.value().watermarked,
                                       owner.value().key, judge);
  report.a_on_b = owner_scheme->Detect(attacker.value().watermarked,
                                       owner.value().key, judge);
  report.b_on_a = attacker_scheme->Detect(
      owner.value().watermarked, attacker.value().key, attacker_judge);
  report.b_on_b = attacker_scheme->Detect(
      attacker.value().watermarked, attacker.value().key, attacker_judge);

  // The verdict is `ArbitrateOwnership`'s own rule (§V-D), fed from the
  // scheme-API detections.
  const char* verdict = "inconclusive";
  switch (DecideOwnership(report)) {
    case JudgeVerdict::kPartyA:
      verdict = "party A (honest owner)";
      break;
    case JudgeVerdict::kPartyB:
      verdict = "party B (attacker!)";
      break;
    case JudgeVerdict::kInconclusive:
      break;
  }
  std::printf("\njudge verdict: %s\n", verdict);
  std::printf("  A on A: %zu/%zu  A on B: %zu/%zu  B on A: %zu/%zu  "
              "B on B: %zu/%zu\n",
              report.a_on_a.pairs_verified,
              owner.value().report.embedded_units,
              report.a_on_b.pairs_verified,
              owner.value().report.embedded_units,
              report.b_on_a.pairs_verified,
              attacker.value().report.embedded_units,
              report.b_on_b.pairs_verified,
              attacker.value().report.embedded_units);
  std::printf("\npaper reference: first watermark detected at 92%% (t=0) on "
              "the re-watermarked data; only the owner verifies on both\n");
  return 0;
}
