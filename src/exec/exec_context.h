#ifndef FREQYWM_EXEC_EXEC_CONTEXT_H_
#define FREQYWM_EXEC_EXEC_CONTEXT_H_

#include <cstddef>
#include <functional>

#include "common/result.h"
#include "common/status.h"
#include "data/dataset.h"
#include "data/histogram.h"
#include "exec/cancellation.h"

namespace freqywm {

class ThreadPool;

/// Execution resources threaded through dataset-level API calls
/// (DESIGN.md §7). A default-constructed context means "serial"; attach a
/// `ThreadPool` to opt into the parallel paths (the eligible-pair scan,
/// batch detection). The context never owns the pool.
///
/// Determinism contract: every operation taking an `ExecContext` produces
/// output identical to its serial counterpart — parallelism changes wall
/// clock, never bytes. The interruption members refine, not relax, that
/// contract: a run that completes before cancellation/deadline fired is
/// byte-identical to an uninterrupted run; an interrupted run returns a
/// typed `kCancelled`/`kDeadlineExceeded` status and its partial output
/// must be discarded (DESIGN.md §13).
struct ExecContext {
  /// Serial context: no pool, never interrupted.
  ExecContext() = default;

  /// A context running on `pool` (null → serial). Implicit so the
  /// established `ExecContext{&pool}` spelling keeps working now that
  /// the struct has interruption members (aggregate init would warn on
  /// the omitted fields).
  ExecContext(ThreadPool* pool_in) : pool(pool_in) {}  // NOLINT

  ThreadPool* pool = nullptr;

  /// Cooperative cancellation; default token is never cancelled.
  CancellationToken cancel;

  /// Monotonic completion deadline; default is infinite.
  Deadline deadline;

  /// True when a pool with at least one worker is attached.
  bool parallel() const;

  /// True once cancellation was requested or the deadline expired.
  bool interrupted() const { return interrupt().interrupted(); }

  /// OK, or the typed status of the first interruption source that fired
  /// (cancellation wins over deadline). Engine loops call this at shard /
  /// generation boundaries.
  Status CheckInterrupted() const { return interrupt().Check(); }

  /// The interruption pair as the bundled form shard loops consume.
  InterruptContext interrupt() const { return InterruptContext{cancel, deadline}; }

  /// Runs `body(i)` for every `i` in `[0, n)`: on the pool through
  /// `ThreadPool::ParallelForChecked`, or inline in index order without
  /// one. Polls the interruption before every index and returns the
  /// first error (the smallest failing index's, on the pool).
  [[nodiscard]] Status ForEachChecked(
      size_t n, const std::function<Status(size_t)>& body) const;

  /// How many row shards the context counts `dataset` in: one without a
  /// pool; with one, up to four per participant (workers and the caller)
  /// while each shard keeps at least max(2^16, 4 × dictionary size) rows,
  /// so the per-shard count tables stay small next to the rows.
  size_t RowShards(const Dataset& dataset) const;

  /// The id counts of `dataset` over `num_shards` contiguous row ranges,
  /// one shard per `ForEachChecked` index (DESIGN.md §17).
  Result<ShardedIdCounts> CountIds(const Dataset& dataset,
                                   size_t num_shards) const;

  /// `CountIds(dataset, RowShards(dataset))`.
  Result<ShardedIdCounts> CountIds(const Dataset& dataset) const;

  /// `Histogram::FromDataset(dataset)`, counted over `RowShards(dataset)`
  /// shards on the pool. Ignores interruption (kept for callers that
  /// cannot fail); new code uses the checked form.
  Histogram BuildHistogram(const Dataset& dataset) const;

  /// `Histogram::FromDataset(dataset)` from `CountIds(dataset)`:
  /// `kCancelled`/`kDeadlineExceeded` instead of a histogram once the
  /// context is interrupted, polled between shards.
  Result<Histogram> BuildHistogramChecked(const Dataset& dataset) const;
};

}  // namespace freqywm

#endif  // FREQYWM_EXEC_EXEC_CONTEXT_H_
