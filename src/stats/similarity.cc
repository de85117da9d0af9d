#include "stats/similarity.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

namespace freqywm {
namespace {

/// Aligns two histograms into parallel vectors over the token union.
void AlignHistograms(const Histogram& a, const Histogram& b,
                     std::vector<double>& va, std::vector<double>& vb) {
  va.clear();
  vb.clear();
  va.reserve(a.num_tokens() + b.num_tokens());
  vb.reserve(a.num_tokens() + b.num_tokens());
  for (const auto& e : a.entries()) {
    va.push_back(static_cast<double>(e.count));
    auto cb = b.CountOf(e.token);
    vb.push_back(cb ? static_cast<double>(*cb) : 0.0);
  }
  for (const auto& e : b.entries()) {
    if (!a.CountOf(e.token)) {
      va.push_back(0.0);
      vb.push_back(static_cast<double>(e.count));
    }
  }
}

}  // namespace

double CosineSimilarity(const std::vector<double>& a,
                        const std::vector<double>& b) {
  double dot = 0, na = 0, nb = 0;
  size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    dot += a[i] * b[i];
    na += a[i] * a[i];
    nb += b[i] * b[i];
  }
  for (size_t i = n; i < a.size(); ++i) na += a[i] * a[i];
  for (size_t i = n; i < b.size(); ++i) nb += b[i] * b[i];
  if (na == 0 && nb == 0) return 1.0;
  if (na == 0 || nb == 0) return 0.0;
  return dot / (std::sqrt(na) * std::sqrt(nb));
}

double HistogramSimilarity(const Histogram& a, const Histogram& b,
                           SimilarityMetric metric) {
  std::vector<double> va, vb;
  AlignHistograms(a, b, va, vb);
  switch (metric) {
    case SimilarityMetric::kCosine:
      return CosineSimilarity(va, vb);
    case SimilarityMetric::kNormalizedL1: {
      double l1 = 0, total = 0;
      for (size_t i = 0; i < va.size(); ++i) {
        l1 += std::abs(va[i] - vb[i]);
        total += va[i] + vb[i];
      }
      return total == 0 ? 1.0 : 1.0 - l1 / total;
    }
    case SimilarityMetric::kMinMaxRatio: {
      double mn = 0, mx = 0;
      for (size_t i = 0; i < va.size(); ++i) {
        mn += std::min(va[i], vb[i]);
        mx += std::max(va[i], vb[i]);
      }
      return mx == 0 ? 1.0 : mn / mx;
    }
  }
  return 0.0;
}

double HistogramSimilarityPercent(const Histogram& a, const Histogram& b,
                                  SimilarityMetric metric) {
  return HistogramSimilarity(a, b, metric) * 100.0;
}

IncrementalSimilarity::IncrementalSimilarity(const Histogram& original,
                                             SimilarityMetric metric)
    : metric_(metric) {
  original_.reserve(original.num_tokens());
  for (const auto& e : original.entries()) {
    original_.push_back(static_cast<double>(e.count));
  }
  current_ = original_;
  for (double v : original_) {
    sums_.dot += v * v;
    norm_orig_sq_ += v * v;
    sum_orig_ += v;
  }
  sums_.norm_cur_sq = norm_orig_sq_;
  sums_.sum_cur = sum_orig_;
}

void IncrementalSimilarity::Shift(Sums& sums, size_t rank,
                                  int64_t delta) const {
  const double orig = original_[rank];
  const double old_v = current_[rank];
  const double new_v = old_v + static_cast<double>(delta);
  sums.dot += orig * (new_v - old_v);
  sums.norm_cur_sq += new_v * new_v - old_v * old_v;
  sums.l1 += std::abs(new_v - orig) - std::abs(old_v - orig);
  sums.sum_cur += new_v - old_v;
}

double IncrementalSimilarity::Of(const Sums& sums) const {
  const double total = sum_orig_ + sums.sum_cur;
  switch (metric_) {
    case SimilarityMetric::kCosine:
      if (norm_orig_sq_ == 0 && sums.norm_cur_sq == 0) return 1.0;
      if (norm_orig_sq_ == 0 || sums.norm_cur_sq == 0) return 0.0;
      return sums.dot /
             (std::sqrt(norm_orig_sq_) * std::sqrt(sums.norm_cur_sq));
    case SimilarityMetric::kNormalizedL1:
      return total == 0 ? 1.0 : 1.0 - sums.l1 / total;
    case SimilarityMetric::kMinMaxRatio:
      return total == 0 ? 1.0 : (total - sums.l1) / (total + sums.l1);
  }
  return 0.0;
}

void IncrementalSimilarity::ApplyDelta(size_t rank, int64_t delta) {
  Shift(sums_, rank, delta);
  current_[rank] += static_cast<double>(delta);
}

double IncrementalSimilarity::ProbePairDelta(size_t rank_i, int64_t delta_i,
                                             size_t rank_j,
                                             int64_t delta_j) const {
  Sums sums = sums_;
  Shift(sums, rank_i, delta_i);
  Shift(sums, rank_j, delta_j);
  return Of(sums);
}

}  // namespace freqywm
