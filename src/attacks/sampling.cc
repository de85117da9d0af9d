#include "attacks/sampling.h"

#include <algorithm>

namespace freqywm {

Histogram SamplingAttackHistogram(const Histogram& watermarked,
                                  size_t sample_size, Rng& rng) {
  // Sequential multivariate hypergeometric: walk the tokens, drawing each
  // token's sampled count from Hypergeometric(remaining_total, count,
  // remaining_draws) via direct simulation of the count proportion.
  // For the sizes used here (millions of rows) a per-token binomial-style
  // draw of the exact hypergeometric is done by sampling without
  // replacement in aggregate.
  uint64_t remaining_total = watermarked.total_count();
  uint64_t remaining_draws =
      std::min<uint64_t>(sample_size, remaining_total);

  std::vector<HistogramEntry> entries;
  for (const auto& e : watermarked.entries()) {
    if (remaining_draws == 0) break;
    // Draw how many of this token's `e.count` instances land in the sample:
    // exact sequential hypergeometric using per-instance inclusion.
    // For large counts this loop is the dominant cost but stays linear in
    // the dataset size, same as materializing rows would be.
    uint64_t took = 0;
    for (uint64_t c = 0; c < e.count && remaining_draws > 0; ++c) {
      // Probability this instance is drawn = remaining_draws / remaining_total.
      if (rng.UniformU64(remaining_total) < remaining_draws) {
        ++took;
        --remaining_draws;
      }
      --remaining_total;
    }
    if (took > 0) entries.push_back({e.token, took});
  }
  Result<Histogram> h = Histogram::FromCounts(std::move(entries));
  // Tokens are distinct (copied from a valid histogram), counts positive.
  return std::move(h).value();
}

DetectResult DetectOnSample(const Histogram& sample,
                            uint64_t original_total_count,
                            const WatermarkSecrets& secrets,
                            DetectOptions options) {
  if (sample.total_count() > 0) {
    options.rescale_factor = static_cast<double>(original_total_count) /
                             static_cast<double>(sample.total_count());
  }
  return DetectWatermark(sample, secrets, options);
}

}  // namespace freqywm
