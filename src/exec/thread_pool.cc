#include "exec/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <utility>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include "common/mutex.h"
#include "exec/fault_injection.h"

namespace freqywm {

/// Shared state of one `ParallelFor` or `ParallelForChecked` call. Lives in
/// a `shared_ptr` captured by the helper tasks: a helper that is only
/// dequeued after the loop finished claims an index >= n and exits without
/// touching the body, so the caller returns as soon as all `n` iterations
/// are done — it never waits for stragglers that hold no work.
///
/// Exactly one of `body` (the unchecked loop) and `checked_body` is set.
/// Only the checked loop polls `interrupt`, runs the `thread_pool/shard`
/// fault site and records errors. `stop` makes its claims cheap to drain
/// after a failure: a claimer that observes it skips the body but still
/// counts its index toward `done`, so the caller's wait stays bounded.
struct ThreadPool::LoopState {
  LoopState(size_t n_in, const std::function<void(size_t)>* body_in,
            const std::function<Status(size_t)>* checked_body_in,
            const InterruptContext* interrupt_in)
      : n(n_in),
        body(body_in),
        checked_body(checked_body_in),
        interrupt(interrupt_in) {}

  /// Claims indices until exhausted. Whoever completes the last iteration
  /// wakes the caller; the notify happens with the mutex held so the
  /// wakeup cannot race past the caller's wait.
  void ClaimIndices() {
    while (true) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      if (body != nullptr) {
        (*body)(i);
      } else if (!stop.load(std::memory_order_acquire)) {
        RunChecked(i);
      }
      if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == n) {
        MutexLock lock(mutex);
        cv.NotifyAll();
      }
    }
  }

  /// One checked iteration: poll, fault site, body. Records the first
  /// interruption and the error of the smallest failing index.
  void RunChecked(size_t i) {
    Status st = interrupt->Check();
    const bool was_interrupt = !st.ok();
    if (st.ok()) {
      st = FREQYWM_FAULT_STATUS_KEYED("thread_pool/shard",
                                      static_cast<uint64_t>(i));
      if (st.ok()) st = (*checked_body)(i);
    }
    if (st.ok()) return;
    MutexLock lock(mutex);
    if (was_interrupt) {
      if (interrupt_status.ok()) interrupt_status = std::move(st);
    } else if (error.ok() || i < error_index) {
      error_index = i;
      error = std::move(st);
    }
    stop.store(true, std::memory_order_release);
  }

  const size_t n;
  const std::function<void(size_t)>* body;
  const std::function<Status(size_t)>* checked_body;
  const InterruptContext* interrupt;
  std::atomic<size_t> next{0};
  std::atomic<size_t> done{0};
  std::atomic<bool> stop{false};
  Mutex mutex;
  CondVar cv;
  size_t error_index GUARDED_BY(mutex) = 0;
  Status error GUARDED_BY(mutex);
  Status interrupt_status GUARDED_BY(mutex);
};

namespace {

/// How many times a caller re-reads a loop's `done` before it sleeps on
/// the loop's condition variable: tens to hundreds of microseconds of
/// pause instructions, depending on the CPU, enough to cover the last
/// iterations of a loop whose caller ran out of indices first.
constexpr int kCallerSpins = 1 << 12;

void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

/// Pins worker `i` of `workers` to the (i+1)-th CPU of the process's
/// affinity mask, round robin, so the first CPU is left to callers. The
/// mask is rotated to start at the constructing thread's current CPU: a
/// thread that is alone tends to stay where it runs, so its CPU is the
/// one a caller most likely holds when it wakes the workers. A one-CPU
/// mask, or a platform without the call, pins nothing.
void PinWorkers(std::vector<std::thread>& workers) {
#if defined(__linux__)
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) != 0) return;
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &mask)) cpus.push_back(cpu);
  }
  if (cpus.size() < 2) return;
  const auto here = std::find(cpus.begin(), cpus.end(), sched_getcpu());
  if (here != cpus.end()) std::rotate(cpus.begin(), here, cpus.end());
  for (size_t i = 0; i < workers.size(); ++i) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus[(i + 1) % cpus.size()], &one);
    // Best effort: a worker left unpinned still runs, only placed by the
    // scheduler.
    (void)pthread_setaffinity_np(workers[i].native_handle(), sizeof(one),
                                 &one);
  }
#else
  (void)workers;
#endif
}

}  // namespace

size_t ThreadPool::HardwareThreads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) num_threads = HardwareThreads();
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  PinWorkers(workers_);
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    stop_ = true;
  }
  wake_cv_.NotifyAll();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    MutexLock lock(mutex_);
    tasks_.push_back(std::move(task));
  }
  wake_cv_.NotifyOne();
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      MutexLock lock(mutex_);
      while (tasks_.empty() && !stop_) wake_cv_.Wait(mutex_);
      if (tasks_.empty()) return;  // stopped and drained
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();
  }
}

void ThreadPool::RunLoop(const std::shared_ptr<LoopState>& loop) {
  const size_t helpers = std::min(workers_.size(), loop->n - 1);
  {
    MutexLock lock(mutex_);
    for (size_t h = 0; h < helpers; ++h) {
      tasks_.emplace_back([loop] { loop->ClaimIndices(); });
    }
  }
  for (size_t h = 0; h < helpers; ++h) wake_cv_.NotifyOne();
  loop->ClaimIndices();  // the caller is a full participant
  // Spin briefly before sleeping: a worker finishing the last index then
  // finds no waiter to wake, so the caller is not woken onto that
  // worker's CPU.
  for (int spin = 0; spin < kCallerSpins; ++spin) {
    if (loop->done.load(std::memory_order_acquire) == loop->n) return;
    CpuRelax();
  }
  MutexLock lock(loop->mutex);
  while (loop->done.load(std::memory_order_acquire) != loop->n) {
    loop->cv.Wait(loop->mutex);
  }
}

void ThreadPool::ParallelFor(size_t n,
                             const std::function<void(size_t)>& body) {
  if (n == 0) return;
  RunLoop(std::make_shared<LoopState>(n, &body, nullptr, nullptr));
}

Status ThreadPool::ParallelForChecked(
    size_t n, const InterruptContext& interrupt,
    const std::function<Status(size_t)>& body) {
  FREQYWM_RETURN_NOT_OK(interrupt.Check());
  if (n == 0) return Status::OK();
  auto loop = std::make_shared<LoopState>(n, nullptr, &body, &interrupt);
  RunLoop(loop);
  MutexLock lock(loop->mutex);
  return loop->error.ok() ? loop->interrupt_status : loop->error;
}

}  // namespace freqywm
