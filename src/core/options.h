#ifndef FREQYWM_CORE_OPTIONS_H_
#define FREQYWM_CORE_OPTIONS_H_

#include <cstdint>

#include "stats/similarity.h"

namespace freqywm {

/// Pair-selection strategy (§III-B2): the exact MWM+QKP reduction or one of
/// the two heuristics evaluated in Fig. 2 / Table II.
enum class SelectionStrategy {
  /// Maximum Weight Matching + equally-valued knapsack — the paper's
  /// provably optimal selection.
  kOptimal,
  /// Eligible pairs sorted by ascending remainder, taken while the budget
  /// holds and tokens are unused.
  kGreedy,
  /// Like greedy but in random order.
  kRandom,
};

/// Which eligibility test admits a pair into `Le`.
enum class EligibilityRule {
  /// The paper's rule: every boundary (upper and lower, of both tokens) must
  /// be at least ceil(s_ij / 2). Simple, but two pairs adjacent in rank can
  /// in rare corner cases jointly close a gap; the generator repairs such
  /// collisions after selection (see `ApplyPairDeltas`).
  kPaper,
  /// Conservative rule: the pair's *exact* deltas must fit within half of
  /// each shared frequency gap, which provably preserves ranking for any
  /// simultaneous set of token-disjoint pairs. Slightly smaller |Le|.
  kStrictHalfGap,
};

/// How the budget `b` limits selection.
enum class BudgetMode {
  /// Exact semantics: keep `similarity(original, watermarked) >=
  /// (100 - b)%` under `GenerateOptions::metric`, checked per candidate
  /// pair by an `IncrementalSimilarity` tracker of that same metric (O(1)
  /// per probe). With realistic head-heavy histograms this bound is
  /// loose — watermark churn barely moves a cosine.
  kSimilarity,
  /// The additive QKP reading of §III-B2: the summed token churn of the
  /// selected pairs may not exceed `b%` of the dataset's total row count.
  /// This is the binding-capacity regime in which the paper's Fig. 2c
  /// budget sweep has its shape.
  kAdditiveChurn,
};

/// Edge-weight formula for the MWM reduction (ablation in DESIGN.md §5).
enum class WeightFormula {
  /// w = T - ((f_i - f_j) mod s_ij), the formula printed in the paper.
  kPaperRemainder,
  /// w = T - cost, where cost is the actual token-instance churn after the
  /// wrap-around rule, i.e. min(rm, s_ij - rm).
  kEffectiveCost,
};

/// All knobs of watermark generation. Field names follow Table I.
struct GenerateOptions {
  /// Budget `b`: the watermarked histogram must stay at least
  /// (100 - budget_percent)% similar to the original (see `BudgetMode`).
  double budget_percent = 2.0;

  /// Modulus bound `z` (per-pair moduli are in [0, z)); must be >= 2.
  uint64_t modulus_bound = 1031;

  /// Minimum admissible per-pair modulus `s_ij`. The paper requires only
  /// `s_ij >= 2`, but tiny moduli make pairs verify *by chance* on any
  /// dataset once the detection threshold `t` approaches `s_ij` (a pair
  /// with s = 2 passes t = 1 always). Raising this floor hardens the
  /// watermark's false-positive behaviour at the cost of fewer eligible
  /// pairs; see the ablation bench and §V-B's "Effect of modulo bases".
  uint64_t min_modulus = 2;

  /// Minimum embedding cost for a pair to be selectable. Pairs whose
  /// frequencies already satisfy `(f_i - f_j) mod s_ij == 0` ("free"
  /// pairs) prove nothing about ownership — they hold on the unmodified
  /// original and would let a re-watermarking attacker's claim verify on
  /// data it never touched. The default of 1 excludes them, matching the
  /// paper's framing that the watermark is *inserted* by modulating
  /// frequencies; set 0 to reproduce the bare selection rule (ablated in
  /// the ablation bench).
  uint64_t min_pair_cost = 1;

  SelectionStrategy strategy = SelectionStrategy::kOptimal;
  BudgetMode budget_mode = BudgetMode::kSimilarity;
  EligibilityRule eligibility = EligibilityRule::kPaper;
  WeightFormula weight_formula = WeightFormula::kPaperRemainder;
  /// The similarity the budget is held under and the report measures.
  SimilarityMetric metric = SimilarityMetric::kCosine;

  /// Security parameter λ (bits of the secret R), in [8, 65,536].
  size_t lambda_bits = 256;

  /// 0 → draw the secret and all random choices from the OS entropy pool;
  /// non-zero → fully deterministic run (tests, experiments).
  uint64_t seed = 0;
};

/// All knobs of watermark detection (Algorithm II).
struct DetectOptions {
  /// `t`: a stored pair is accepted as watermarked when its residue
  /// (f_i - f_j) mod s_ij is <= t.
  uint64_t pair_threshold = 0;

  /// `k`: minimum number of accepted pairs for the dataset to be declared
  /// watermarked.
  size_t min_pairs = 1;

  /// When true, a residue of s_ij - r with r <= t also passes (the
  /// "symmetric" variant from DESIGN.md §5: an attack can push a residue
  /// just below s_ij, which the one-sided paper rule misses).
  bool symmetric_residue = false;

  /// When > 0, every suspect count is multiplied by this factor and
  /// rounded before checking (the §V-B sampling-attack rescale step); a
  /// pair with a scaled count of 2^63 or more is found but never
  /// verified. 0 disables.
  double rescale_factor = 0.0;
};

}  // namespace freqywm

#endif  // FREQYWM_CORE_OPTIONS_H_
