#ifndef FREQYWM_CORE_INCREMENTAL_H_
#define FREQYWM_CORE_INCREMENTAL_H_

#include <cstdint>

#include "common/result.h"
#include "core/secrets.h"
#include "data/histogram.h"

namespace freqywm {

/// Options for incremental watermark maintenance (§VI "Incremental
/// FreqyWM"): a watermarked dataset keeps growing/shrinking in production,
/// drifting pair residues away from zero; instead of re-running the full
/// generation pipeline, the owner re-aligns only the broken pairs. A
/// repair whose deltas would violate the ranking constraint of the
/// *current* histogram is skipped (checked with the conservative half-gap
/// rule, so simultaneous repairs stay safe).
struct RefreshOptions {
  /// Maximum total token churn the refresh may spend, as a percent of the
  /// dataset's current row count.
  double max_churn_percent = 2.0;
};

/// Outcome statistics of a refresh.
struct RefreshReport {
  size_t pairs_checked = 0;
  /// Residue already zero — untouched.
  size_t pairs_intact = 0;
  /// Residue re-zeroed by applying fresh deltas.
  size_t pairs_repaired = 0;
  /// Token missing, repair infeasible (ranking/churn), or modulus
  /// degenerate — removed from the refreshed secret list.
  size_t pairs_dropped = 0;
  /// Token instances added plus removed by the repairs.
  uint64_t total_churn = 0;
};

/// Result of `RefreshWatermark`.
struct RefreshResult {
  Histogram refreshed;
  /// Same R and z; the pair list shrinks by the dropped pairs.
  WatermarkSecrets secrets;
  RefreshReport report;
};

/// Re-aligns the stored pairs of `secrets` on `drifted` (a watermarked
/// histogram whose counts have since changed). Runs in
/// O(|Lwm| + n log n) — no eligible-pair scan, no matching — which is the
/// §VI observation that incremental maintenance avoids the from-scratch
/// pipeline.
///
/// Fails with `InvalidArgument` on malformed secrets/options.
Result<RefreshResult> RefreshWatermark(const Histogram& drifted,
                                       const WatermarkSecrets& secrets,
                                       const RefreshOptions& options);

}  // namespace freqywm

#endif  // FREQYWM_CORE_INCREMENTAL_H_
