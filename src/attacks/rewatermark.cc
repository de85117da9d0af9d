#include "attacks/rewatermark.h"

namespace freqywm {

Result<HistogramGenerateResult> ReWatermarkAttack(
    const Histogram& honest_watermarked, const GenerateOptions& options) {
  WatermarkGenerator generator(options);
  return generator.GenerateFromHistogram(honest_watermarked);
}

JudgeVerdict DecideOwnership(const JudgeReport& report) {
  // Primary rule (paper §V-D): only the rightful owner's secret verifies
  // on BOTH datasets.
  const bool a_everywhere = report.a_on_a.accepted && report.a_on_b.accepted;
  const bool b_everywhere = report.b_on_a.accepted && report.b_on_b.accepted;
  if (a_everywhere && !b_everywhere) return JudgeVerdict::kPartyA;
  if (b_everywhere && !a_everywhere) return JudgeVerdict::kPartyB;

  // Tie-break on cross-verification strength: the first watermark leaves a
  // partial trace in the second party's dataset, while a re-watermarker's
  // pairs (each requiring a frequency change, min_pair_cost >= 1) verify
  // nowhere on data it never touched. Require a clear 2x margin; anything
  // closer stays inconclusive.
  const double a_cross = report.a_on_b.verified_fraction;
  const double b_cross = report.b_on_a.verified_fraction;
  if (report.a_on_a.accepted && a_cross > 2.0 * b_cross && a_cross > 0.05) {
    return JudgeVerdict::kPartyA;
  }
  if (report.b_on_b.accepted && b_cross > 2.0 * a_cross && b_cross > 0.05) {
    return JudgeVerdict::kPartyB;
  }
  return JudgeVerdict::kInconclusive;
}

JudgeReport ArbitrateOwnership(const Histogram& data_a,
                               const WatermarkSecrets& secrets_a,
                               const Histogram& data_b,
                               const WatermarkSecrets& secrets_b,
                               const DetectOptions& options) {
  JudgeReport report;
  report.a_on_a = DetectWatermark(data_a, secrets_a, options);
  report.a_on_b = DetectWatermark(data_b, secrets_a, options);
  report.b_on_a = DetectWatermark(data_a, secrets_b, options);
  report.b_on_b = DetectWatermark(data_b, secrets_b, options);
  report.verdict = DecideOwnership(report);
  return report;
}

}  // namespace freqywm
