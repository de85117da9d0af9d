#ifndef FREQYWM_EXEC_EXEC_CONTEXT_H_
#define FREQYWM_EXEC_EXEC_CONTEXT_H_

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

  /// `Histogram::FromDataset(dataset)`. Ignores interruption (kept for
  /// callers that cannot fail); new code uses the checked form.
  Histogram BuildHistogram(const Dataset& dataset) const;

  /// `Histogram::FromDataset(dataset)` after one interruption check:
  /// `kCancelled`/`kDeadlineExceeded` instead of a histogram once the
  /// context is interrupted. The build is one serial pass over the row
  /// ids (DESIGN.md §7), too short to poll inside.
  Result<Histogram> BuildHistogramChecked(const Dataset& dataset) const;
};

}  // namespace freqywm

#endif  // FREQYWM_EXEC_EXEC_CONTEXT_H_
