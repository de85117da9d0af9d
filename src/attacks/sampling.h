#ifndef FREQYWM_ATTACKS_SAMPLING_H_
#define FREQYWM_ATTACKS_SAMPLING_H_

#include <cstddef>

#include "common/random.h"
#include "core/detect.h"
#include "core/secrets.h"
#include "data/histogram.h"

namespace freqywm {

/// The sampling attack (§V-B): the pirate copies only a uniformly random
/// sample of the watermarked rows, hoping the watermark dissolves. Draws
/// `sample_size` rows directly from the histogram's counts (multivariate
/// hypergeometric), without materializing millions of rows. Tokens that
/// lose all occurrences disappear from the returned histogram — exactly
/// what dooms detection at extreme subsampling rates (Fig. 4).
Histogram SamplingAttackHistogram(const Histogram& watermarked,
                                  size_t sample_size, Rng& rng);

/// Owner-side detection of a (suspected) subsample: scales the suspect's
/// counts by original_size / suspect_size before running detection, the
/// §V-B rescale step ("via info added to its metadata").
DetectResult DetectOnSample(const Histogram& sample,
                            uint64_t original_total_count,
                            const WatermarkSecrets& secrets,
                            DetectOptions options);

}  // namespace freqywm

#endif  // FREQYWM_ATTACKS_SAMPLING_H_
