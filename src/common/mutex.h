#ifndef FREQYWM_COMMON_MUTEX_H_
#define FREQYWM_COMMON_MUTEX_H_

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <utility>

#include "common/thread_annotations.h"

namespace freqywm {

/// A `std::mutex` wrapper carrying the clang thread-safety `capability`
/// attribute, so `-Wthread-safety` can prove lock discipline (DESIGN.md
/// §11). libstdc++'s mutex types are unannotated — the analysis cannot see
/// a `std::lock_guard<std::mutex>` acquire anything — so every
/// mutex-holding class in the library locks through this wrapper and
/// `MutexLock`/`CondVar` below instead. Zero-cost: all methods inline to
/// the underlying `std::mutex` calls.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() { mutex_.lock(); }
  void Unlock() RELEASE() { mutex_.unlock(); }
  bool TryLock() TRY_ACQUIRE(true) { return mutex_.try_lock(); }

 private:
  friend class CondVar;  // CondVar::Wait adopts the raw mutex
  std::mutex mutex_;
};

/// RAII holder of a `Mutex`, annotated so the analysis knows the
/// capability is held for the holder's scope — the `std::lock_guard` of
/// this codebase.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mutex) ACQUIRE(mutex) : mutex_(mutex) {
    mutex_.Lock();
  }
  ~MutexLock() RELEASE() { mutex_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mutex_;
};

/// Condition variable paired with `Mutex`. `Wait` must be called with the
/// mutex held and returns with it held (the internal unlock/relock inside
/// `std::condition_variable::wait` is invisible to callers, exactly like
/// `absl::CondVar`), which is what the `REQUIRES` annotation states.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mutex`, blocks until notified, reacquires.
  void Wait(Mutex& mutex) REQUIRES(mutex) {
    std::unique_lock<std::mutex> lock(mutex.mutex_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();  // the caller-visible capability stays held
  }

  /// Waits until `pred()` holds. `pred` runs with the mutex held.
  template <typename Predicate>
  void Wait(Mutex& mutex, Predicate pred) REQUIRES(mutex) {
    std::unique_lock<std::mutex> lock(mutex.mutex_, std::adopt_lock);
    cv_.wait(lock, std::move(pred));
    lock.release();  // the caller-visible capability stays held
  }

  /// Like `Wait`, but gives up after `timeout`. Returns true if notified
  /// (or spuriously woken) before the timeout, false on timeout. Either
  /// way the mutex is reacquired before returning. This is what makes a
  /// blocked `AdmissionController::Admit` interruptible: waiters bounded
  /// by `WaitFor` can re-check a `CancellationToken`/`Deadline` between
  /// sleeps instead of blocking forever on a notification that may never
  /// come.
  bool WaitFor(Mutex& mutex, std::chrono::nanoseconds timeout)
      REQUIRES(mutex) {
    std::unique_lock<std::mutex> lock(mutex.mutex_, std::adopt_lock);
    const std::cv_status st = cv_.wait_for(lock, timeout);
    lock.release();  // the caller-visible capability stays held
    return st == std::cv_status::no_timeout;
  }

  /// Waits until `pred()` holds or `timeout` elapses; returns the final
  /// value of `pred()`. `pred` runs with the mutex held.
  template <typename Predicate>
  bool WaitFor(Mutex& mutex, std::chrono::nanoseconds timeout,
               Predicate pred) REQUIRES(mutex) {
    std::unique_lock<std::mutex> lock(mutex.mutex_, std::adopt_lock);
    const bool satisfied = cv_.wait_for(lock, timeout, std::move(pred));
    lock.release();  // the caller-visible capability stays held
    return satisfied;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace freqywm

#endif  // FREQYWM_COMMON_MUTEX_H_
