#ifndef FREQYWM_ATTACKS_REWATERMARK_H_
#define FREQYWM_ATTACKS_REWATERMARK_H_

#include "common/result.h"
#include "core/detect.h"
#include "core/options.h"
#include "core/secrets.h"
#include "core/watermark.h"
#include "data/histogram.h"

namespace freqywm {

/// Who the judge declares the rightful owner (§V-D).
enum class JudgeVerdict {
  /// Party A's secret verified on both datasets, party B's only on its own.
  kPartyA,
  /// Symmetric case for party B.
  kPartyB,
  /// Neither (or both) secrets verified on both datasets.
  kInconclusive,
};

/// The four detections the judge runs: each party's secret against each
/// party's dataset.
struct JudgeReport {
  JudgeVerdict verdict = JudgeVerdict::kInconclusive;
  DetectResult a_on_a;  ///< A's secret on A's dataset
  DetectResult a_on_b;  ///< A's secret on B's dataset
  DetectResult b_on_a;  ///< B's secret on A's dataset
  DetectResult b_on_b;  ///< B's secret on B's dataset
};

/// The judge's verdict rule (§V-D) over the four detections in `report`;
/// its `verdict` field is not read. Only the rightful owner's secret
/// verifies on both datasets; when both or neither do, a party wins only
/// with a clear 2x margin in cross-verification.
JudgeVerdict DecideOwnership(const JudgeReport& report);

/// Mounts the re-watermarking (false-claim) attack: the pirate runs
/// `WmGenerate` on the honest owner's watermarked histogram and obtains its
/// own `(D_w^A, Lsc^A)` pair, giving it a *genuine-looking* proof.
Result<HistogramGenerateResult> ReWatermarkAttack(
    const Histogram& honest_watermarked, const GenerateOptions& options);

/// The dispute arbitration protocol from §V-D. The key asymmetry: the
/// honest owner's watermark survives inside the attacker's re-watermarked
/// dataset (FreqyWM introduces tiny distortion), so the honest secret
/// verifies on BOTH datasets, while the attacker's secret verifies only on
/// its own (the attacker never saw the honest original).
///
/// Chronology therefore resolves the dispute: the party whose secret
/// verifies on both datasets watermarked first (`DecideOwnership`).
JudgeReport ArbitrateOwnership(const Histogram& data_a,
                               const WatermarkSecrets& secrets_a,
                               const Histogram& data_b,
                               const WatermarkSecrets& secrets_b,
                               const DetectOptions& options);

}  // namespace freqywm

#endif  // FREQYWM_ATTACKS_REWATERMARK_H_
