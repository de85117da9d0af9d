#include "exec/exec_context.h"

#include "exec/thread_pool.h"

namespace freqywm {

bool ExecContext::parallel() const {
  return pool != nullptr && pool->num_threads() > 0;
}

Histogram ExecContext::BuildHistogram(const Dataset& dataset) const {
  return Histogram::FromDataset(dataset);
}

Result<Histogram> ExecContext::BuildHistogramChecked(
    const Dataset& dataset) const {
  FREQYWM_RETURN_NOT_OK(CheckInterrupted());
  return Histogram::FromDataset(dataset);
}

}  // namespace freqywm
