#ifndef FREQYWM_STATS_SIMILARITY_H_
#define FREQYWM_STATS_SIMILARITY_H_

#include <vector>

#include "data/histogram.h"

namespace freqywm {

/// Similarity metric selector for the budget constraint. The paper uses
/// cosine in all experiments but notes any similarity works (§III fn. 2).
enum class SimilarityMetric {
  kCosine,
  /// 1 - L1(a,b) / (|a|_1 + |b|_1), in [0, 1].
  kNormalizedL1,
  /// Jaccard-style min/max overlap: sum(min) / sum(max), in [0, 1].
  kMinMaxRatio,
};

/// Cosine similarity of two non-negative vectors; 1.0 when both are zero.
double CosineSimilarity(const std::vector<double>& a,
                        const std::vector<double>& b);

/// Computes similarity between two histograms, aligning entries by token
/// over the union of both token sets (absent tokens count as 0).
double HistogramSimilarity(const Histogram& a, const Histogram& b,
                           SimilarityMetric metric = SimilarityMetric::kCosine);

/// Similarity expressed in percent (100 = identical), the unit used by the
/// paper's budget `b` ("similarity at least (100 - b)%").
double HistogramSimilarityPercent(
    const Histogram& a, const Histogram& b,
    SimilarityMetric metric = SimilarityMetric::kCosine);

/// Incremental similarity tracker for the original histogram vs a mutated
/// copy, under one `SimilarityMetric`.
///
/// Selection asks "what is the similarity if I also apply this pair's
/// deltas?" per candidate; each FreqyWM pair touches two disjoint entries,
/// so running sums answer in O(1): dot product and squared norm (cosine),
/// L1 = Σ|cur - orig| and Σcur (normalized L1, and min/max since
/// Σmin = (Σorig + Σcur - L1) / 2 and Σmax = (Σorig + Σcur + L1) / 2).
class IncrementalSimilarity {
 public:
  /// Starts from `original` compared against itself (similarity 1).
  explicit IncrementalSimilarity(
      const Histogram& original,
      SimilarityMetric metric = SimilarityMetric::kCosine);

  /// Similarity after the deltas applied so far.
  double Similarity() const { return Of(sums_); }
  /// Similarity in percent.
  double SimilarityPercent() const { return Similarity() * 100.0; }

  /// Applies a signed delta to the mutated copy of the entry at `rank`.
  void ApplyDelta(size_t rank, int64_t delta);

  /// Similarity that *would* result from additionally applying `delta` at
  /// `rank_i` and `delta_j` at `rank_j`, without committing.
  double ProbePairDelta(size_t rank_i, int64_t delta_i, size_t rank_j,
                        int64_t delta_j) const;

 private:
  /// The sums that move with the mutated copy.
  struct Sums {
    double dot = 0, norm_cur_sq = 0;  // cosine
    double l1 = 0, sum_cur = 0;       // normalized L1 and min/max
  };

  /// Moves `sums` as if the entry at `rank` went from `current_[rank]` to
  /// `current_[rank] + delta`.
  void Shift(Sums& sums, size_t rank, int64_t delta) const;
  double Of(const Sums& sums) const;

  SimilarityMetric metric_;
  std::vector<double> original_;
  std::vector<double> current_;
  double norm_orig_sq_ = 0;
  double sum_orig_ = 0;
  Sums sums_;
};

}  // namespace freqywm

#endif  // FREQYWM_STATS_SIMILARITY_H_
