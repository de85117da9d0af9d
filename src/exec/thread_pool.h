#ifndef FREQYWM_EXEC_THREAD_POOL_H_
#define FREQYWM_EXEC_THREAD_POOL_H_

#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "exec/cancellation.h"

namespace freqywm {

/// A small thread pool with one shared FIFO of tasks — the execution
/// substrate of the batch detection engine, the sharded eligible-pair
/// scan and the WM-OBT GA (DESIGN.md §7).
///
/// `ParallelFor` and `ParallelForChecked` are the entry points for data
/// parallelism and share one claim loop: the calling thread and at most
/// min(workers, n − 1) queued helper tasks claim indices from one atomic
/// counter. The caller participates, so a loop issued from inside a pool
/// task cannot deadlock even when every worker is busy — the caller
/// simply drains the remaining indices itself.
///
/// Tasks must not throw; error handling in this codebase is `Status`-based
/// and parallel bodies communicate failure through their outputs.
///
/// Placement (DESIGN.md §7): on Linux, worker i is pinned at construction
/// to the (i+1)-th CPU of the process's affinity mask, round robin, with
/// the mask rotated to start at the constructing thread's CPU, which is
/// left to callers; a one-CPU mask pins nothing, and the calling thread
/// is never pinned. A woken worker then runs on its own CPU instead of
/// queueing behind its waker. A caller that runs out of indices spins
/// briefly on the loop's completion before it sleeps, so the last worker
/// does not wake it onto that worker's CPU either.
///
/// Lock discipline (machine-checked by the CI thread-safety job,
/// DESIGN.md §11): `mutex_` guards the task queue and the stop flag, and
/// idle workers sleep on `wake_cv_` until either changes.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (0 → `HardwareThreads()`) and pins them.
  explicit ThreadPool(size_t num_threads);

  /// Runs every queued task, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads (excluding callers helping in `ParallelFor`).
  size_t num_threads() const { return workers_.size(); }

  /// Enqueues one fire-and-forget task.
  void Submit(std::function<void()> task);

  /// Runs `body(i)` for every `i` in `[0, n)` across the pool and the
  /// calling thread, returning when all `n` iterations completed. Iteration
  /// order across threads is unspecified; callers that need deterministic
  /// output write results indexed by `i`.
  void ParallelFor(size_t n, const std::function<void(size_t)>& body);

  /// The fallible, interruptible sibling of `ParallelFor` (DESIGN.md §13):
  /// `body(i)` returns a `Status`, and `interrupt` is polled at every shard
  /// boundary. On the first non-OK body status the loop stops claiming new
  /// indices; already-running iterations complete, then the call returns
  /// the error of the *smallest failing index* — deterministic regardless
  /// of thread count, because index claims form a contiguous prefix, so
  /// the smallest failing index always executes before any stop can mask
  /// it. When the loop is interrupted (cancelled / deadline expired)
  /// before a body error, the matching `kCancelled`/`kDeadlineExceeded`
  /// status is returned instead; body errors win over interruption.
  /// Never hangs: skipped claims count toward completion, so the caller's
  /// wait is bounded by the running iterations. On any non-OK return the
  /// outputs written by `body` are partial and must be discarded.
  [[nodiscard]] Status ParallelForChecked(
      size_t n, const InterruptContext& interrupt,
      const std::function<Status(size_t)>& body);

  /// `std::thread::hardware_concurrency()` with a floor of 1.
  static size_t HardwareThreads();

 private:
  struct LoopState;  // one ParallelFor / ParallelForChecked call

  void WorkerLoop();

  /// Queues the loop's helpers under one lock, claims indices on the
  /// calling thread, then waits until all iterations completed.
  void RunLoop(const std::shared_ptr<LoopState>& loop);

  Mutex mutex_;
  std::deque<std::function<void()>> tasks_ GUARDED_BY(mutex_);
  bool stop_ GUARDED_BY(mutex_) = false;
  CondVar wake_cv_;
  std::vector<std::thread> workers_;
};

}  // namespace freqywm

#endif  // FREQYWM_EXEC_THREAD_POOL_H_
