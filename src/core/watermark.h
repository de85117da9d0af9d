#ifndef FREQYWM_CORE_WATERMARK_H_
#define FREQYWM_CORE_WATERMARK_H_

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "core/eligible.h"
#include "core/options.h"
#include "core/secrets.h"
#include "data/dataset.h"
#include "data/histogram.h"
#include "exec/exec_context.h"

namespace freqywm {

/// Everything `WmGenerate` produces besides the watermarked data itself.
struct GenerateReport {
  /// The owner's secret list `Lsc` — store this; it is the proof key.
  WatermarkSecrets secrets;
  /// |Le|: how many pairs were eligible.
  size_t eligible_pairs = 0;
  /// How many pairs were actually watermarked (|Lwm|).
  size_t chosen_pairs = 0;
  /// Similarity (percent) between original and watermarked histograms.
  double similarity_percent = 100.0;
  /// Total token instances added plus removed.
  uint64_t total_churn = 0;
};

/// Result of watermarking a histogram (histogram-level API).
struct HistogramGenerateResult {
  Histogram watermarked;
  GenerateReport report;
};

/// The FreqyWM watermark generator (Algorithm I).
///
/// Typical histogram-level use:
/// \code
///   GenerateOptions opts;
///   opts.budget_percent = 2.0;
///   opts.modulus_bound = 1031;
///   opts.seed = 42;                       // deterministic for experiments
///   WatermarkGenerator gen(opts);
///   auto result = gen.GenerateFromHistogram(hist);
///   if (!result.ok()) { ... }
///   // result.value().watermarked  — the watermarked histogram
///   // result.value().report.secrets — Lsc, keep it safe
/// \endcode
///
/// The Data Transformation step (§III-B1) is `TransformDataset`, which
/// `WatermarkScheme::EmbedDataset` runs after the histogram embed: it
/// removes surplus token instances and inserts new ones at uniformly
/// random positions (random placement is part of the guess-attack story).
class WatermarkGenerator {
 public:
  explicit WatermarkGenerator(GenerateOptions options);

  /// Watermarks a frequency histogram. Fails with:
  ///  * `InvalidArgument` for malformed options or an unsorted histogram
  ///    (validated here in every build type — `BuildEligiblePairs` on an
  ///    unsorted histogram would silently yield garbage pairs),
  ///  * `ResourceExhausted` when no pair fits the budget (e.g. uniform
  ///    frequencies — the paper's inapplicability case).
  /// When `exec` carries a thread pool, the eligible-pair scan (the
  /// O(n^2) hot path of Algorithm I) is sharded across it. Output is
  /// byte-identical at any thread count (DESIGN.md §8).
  Result<HistogramGenerateResult> GenerateFromHistogram(
      const Histogram& original, const ExecContext& exec = ExecContext{}) const;

  const GenerateOptions& options() const { return options_; }

  /// The option ranges every embed checks first: z >= 2, budget in
  /// [0, 100] percent, λ in [8, 65,536] bits and `min_modulus` < z.
  /// `InvalidArgument` names the first range `options` leaves.
  static Status ValidateOptions(const GenerateOptions& options);

 private:

  GenerateOptions options_;
};

/// Applies the exact deltas of `chosen` (indices into `eligible`) to a copy
/// of `hist`. Enforces the Ranking Constraint: pairs whose deltas would
/// break descending order at application time are skipped (possible only
/// in rare shared-gap corner cases under `EligibilityRule::kPaper`; see
/// DESIGN.md §5). Returns the watermarked histogram; `applied` receives the
/// indices actually applied.
///
/// Precondition (asserted): `hist.IsSortedDescending()`, as for
/// `BuildEligiblePairs`. The copy then stays sorted after every applied
/// pair, so each pair is checked only at its two ranks and their
/// neighbours: O(1) per pair, not a scan of the histogram.
Histogram ApplyPairDeltas(const Histogram& hist,
                          const std::vector<EligiblePair>& eligible,
                          const std::vector<size_t>& chosen,
                          std::vector<size_t>* applied);

/// Rewrites `original` so its histogram matches `target`: removes surplus
/// token instances at random positions and inserts missing ones at random
/// positions. Tokens absent from `target` are left untouched. The result
/// shares `original`'s dictionary unless `target` brings tokens it lacks.
///
/// Each shrinking token draws the occurrence ranks it drops once, a
/// uniform subset (`Rng::SampleWithoutReplacement`); one row pass then
/// counts each token's occurrences down to its next dropped rank, ending
/// with the last drop. So `rng` draws per changed occurrence, not per
/// row. This form counts the rows itself and runs serially: it is the
/// one-shard case of the overload below (DESIGN.md §17).
Dataset TransformDataset(const Dataset& original, const Histogram& target,
                         Rng& rng);

/// The transform as `WatermarkScheme::EmbedDataset` runs it, from the
/// row counts the embed already has: `counts` are `original`'s id counts
/// in any shard layout, and `base` (may be null) their histogram. A
/// target entry that `base` holds at the same rank with the same count is
/// unchanged and is not looked up. `rng` draws exactly as in the serial
/// form; then each shard's rank-match and write passes run as one
/// `exec.ForEachChecked` index, so the rows are identical at any shard
/// count and pool size, and an interrupted context yields
/// `kCancelled`/`kDeadlineExceeded` between shards.
Result<Dataset> TransformDataset(const Dataset& original,
                                 const ShardedIdCounts& counts,
                                 const Histogram* base,
                                 const Histogram& target, Rng& rng,
                                 const ExecContext& exec);

}  // namespace freqywm

#endif  // FREQYWM_CORE_WATERMARK_H_
