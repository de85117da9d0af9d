#include "exec/exec_context.h"

#include <cassert>
#include <utility>

#include "exec/parallel_histogram.h"
#include "exec/thread_pool.h"

namespace freqywm {

bool ExecContext::parallel() const {
  return pool != nullptr && pool->num_threads() > 0;
}

Histogram ExecContext::BuildHistogram(const Dataset& dataset) const {
  if (!parallel()) return Histogram::FromDataset(dataset);
  // A default context is never interrupted, so the build cannot fail.
  Result<Histogram> hist =
      BuildHistogramShardedChecked(dataset, *pool, InterruptContext{});
  assert(hist.ok());
  return std::move(hist).value();
}

Result<Histogram> ExecContext::BuildHistogramChecked(
    const Dataset& dataset) const {
  const InterruptContext interrupt = this->interrupt();
  FREQYWM_RETURN_NOT_OK(interrupt.Check());
  if (parallel()) {
    return BuildHistogramShardedChecked(dataset, *pool, interrupt);
  }
  // Serial path: one whole-dataset "shard", interruption checked once at
  // entry above — matching the parallel path's shard-boundary granularity.
  return Histogram::FromDataset(dataset);
}

}  // namespace freqywm
