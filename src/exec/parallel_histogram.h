#ifndef FREQYWM_EXEC_PARALLEL_HISTOGRAM_H_
#define FREQYWM_EXEC_PARALLEL_HISTOGRAM_H_

#include "common/result.h"
#include "data/dataset.h"
#include "data/histogram.h"
#include "exec/cancellation.h"
#include "exec/thread_pool.h"

namespace freqywm {

/// Parallel `Histogram::FromDataset`: the token→count aggregation is
/// sharded across the pool and merged (DESIGN.md §7).
///
/// Phase 1 splits the dataset into contiguous chunks, one counting task
/// per chunk; each task partitions its counts by token hash into shards so
/// that phase 2 can merge every shard independently (shard-disjoint token
/// sets — no cross-shard synchronization). Phase 3 concatenates the shard
/// entries and applies the histogram's deterministic descending sort.
///
/// Polls `interrupt` at every chunk and shard boundary (via
/// `ParallelForChecked`) and returns `kCancelled`/`kDeadlineExceeded`
/// instead of a partial histogram. A run that completes is identical to
/// `Histogram::FromDataset(dataset)` — same entry order, ranks and total —
/// regardless of thread count; small datasets fall back to the serial
/// build outright. `ExecContext::BuildHistogram` runs it with a context
/// that is never interrupted.
Result<Histogram> BuildHistogramShardedChecked(const Dataset& dataset,
                                               ThreadPool& pool,
                                               const InterruptContext& interrupt);

}  // namespace freqywm

#endif  // FREQYWM_EXEC_PARALLEL_HISTOGRAM_H_
