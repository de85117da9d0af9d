#ifndef FREQYWM_STATS_RANK_H_
#define FREQYWM_STATS_RANK_H_

#include <cstddef>
#include <vector>

#include "data/histogram.h"

namespace freqywm {

/// Summary of how a mutated histogram's token ranking compares with the
/// original ranking (used by the §IV-D baseline comparison, where WM-OBT
/// and WM-RVS scramble 998/1000 and 987/1000 ranks respectively while
/// FreqyWM preserves all of them).
struct RankComparison {
  /// Tokens whose rank position changed.
  size_t changed = 0;
  /// Tokens present in both histograms (the comparison universe).
  size_t compared = 0;
  /// Spearman rank correlation over the common tokens; 1 = identical order.
  double spearman = 1.0;
};

/// Compares token rankings. Both histograms are re-sorted internally, so
/// callers may pass mutated (unsorted) histograms directly.
RankComparison CompareRankings(const Histogram& original,
                               const Histogram& modified);

/// Spearman rank correlation of two equal-length score vectors
/// (ranks are assigned by descending score; ties get their average rank).
double SpearmanCorrelation(const std::vector<double>& a,
                           const std::vector<double>& b);

}  // namespace freqywm

#endif  // FREQYWM_STATS_RANK_H_
