#include "exec/thread_pool.h"

#include <gtest/gtest.h>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

namespace freqywm {
namespace {

TEST(ThreadPoolTest, SubmittedTasksAllRun) {
  std::atomic<int> counter{0};
  std::mutex mutex;
  std::condition_variable cv;
  constexpr int kTasks = 200;
  {
    ThreadPool pool(4);
    for (int i = 0; i < kTasks; ++i) {
      pool.Submit([&] {
        if (counter.fetch_add(1) + 1 == kTasks) {
          std::lock_guard<std::mutex> lock(mutex);
          cv.notify_all();
        }
      });
    }
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return counter.load() == kTasks; });
  }
  EXPECT_EQ(counter.load(), kTasks);
}

TEST(ThreadPoolTest, DestructorDrainsPendingTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&] { counter.fetch_add(1); });
    }
    // No explicit wait: the destructor must not drop queued tasks.
  }
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelFor(kN, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForWritesByIndexAreDeterministic) {
  ThreadPool pool(3);
  constexpr size_t kN = 517;
  std::vector<size_t> out(kN, 0);
  pool.ParallelFor(kN, [&](size_t i) { out[i] = i * i; });
  for (size_t i = 0; i < kN; ++i) ASSERT_EQ(out[i], i * i);
}

TEST(ThreadPoolTest, ParallelForHandlesEdgeSizes) {
  ThreadPool pool(2);
  int zero_calls = 0;
  pool.ParallelFor(0, [&](size_t) { ++zero_calls; });
  EXPECT_EQ(zero_calls, 0);

  std::atomic<int> one_calls{0};
  pool.ParallelFor(1, [&](size_t) { one_calls.fetch_add(1); });
  EXPECT_EQ(one_calls.load(), 1);

  // More iterations than threads and vice versa.
  std::atomic<int> few{0};
  pool.ParallelFor(2, [&](size_t) { few.fetch_add(1); });
  EXPECT_EQ(few.load(), 2);
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  // A ParallelFor issued from inside a pool task must complete even when
  // every worker is occupied: the issuing thread drains the inner loop
  // itself.
  ThreadPool pool(2);
  std::atomic<int> inner_total{0};
  pool.ParallelFor(4, [&](size_t) {
    pool.ParallelFor(8, [&](size_t) { inner_total.fetch_add(1); });
  });
  EXPECT_EQ(inner_total.load(), 32);
}

TEST(ThreadPoolTest, ManySmallLoopsStress) {
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<size_t> sum{0};
    pool.ParallelFor(64, [&](size_t i) { sum.fetch_add(i); });
    ASSERT_EQ(sum.load(), 64u * 63u / 2);
  }
}

TEST(ThreadPoolTest, ExternalCallersShareOneQueue) {
  // Four threads outside the pool interleave unchecked and checked loops
  // on it; every loop runs each of its indices exactly once.
  ThreadPool pool(3);
  constexpr size_t kN = 64;
  constexpr int kLoops = 200;
  std::atomic<int> bad_loops{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < 4; ++c) {
    callers.emplace_back([&] {
      for (int loop = 0; loop < kLoops; ++loop) {
        std::vector<std::atomic<int>> hits(kN);
        pool.ParallelFor(kN, [&](size_t i) { hits[i].fetch_add(1); });
        Status status = pool.ParallelForChecked(
            kN, InterruptContext{}, [&](size_t i) {
              hits[i].fetch_add(1);
              return Status::OK();
            });
        if (!status.ok()) bad_loops.fetch_add(1);
        for (const auto& h : hits) {
          if (h.load() != 2) {
            bad_loops.fetch_add(1);
            break;
          }
        }
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  EXPECT_EQ(bad_loops.load(), 0);
}

TEST(ThreadPoolTest, CheckedLoopNestedInParallelForReportsSmallestFailure) {
  // Each outer iteration runs a checked loop on the same pool whose
  // failing indices depend on the outer index; every inner loop returns
  // the error of its own smallest failing index.
  ThreadPool pool(3);
  constexpr size_t kOuter = 16;
  std::vector<Status> results(kOuter);
  pool.ParallelFor(kOuter, [&](size_t outer) {
    results[outer] = pool.ParallelForChecked(
        100, InterruptContext{}, [&](size_t i) {
          if (i == outer + 10 || i == outer + 50 || i == 99) {
            return Status::Internal("fail at " + std::to_string(i));
          }
          return Status::OK();
        });
  });
  for (size_t outer = 0; outer < kOuter; ++outer) {
    EXPECT_EQ(results[outer].code(), StatusCode::kInternal);
    EXPECT_EQ(results[outer].message(),
              "fail at " + std::to_string(outer + 10))
        << "outer " << outer;
  }
}

TEST(ThreadPoolTest, DestroyWithStaleHelpersQueued) {
  // Tiny loops finish on the caller before their helpers are dequeued,
  // so the queue fills with stale helpers; destroying the pool right
  // after must run them harmlessly and touch no finished loop's body.
  std::atomic<int> calls{0};
  {
    ThreadPool pool(4);
    for (int loop = 0; loop < 2000; ++loop) {
      pool.ParallelFor(2, [&](size_t) { calls.fetch_add(1); });
    }
  }
  EXPECT_EQ(calls.load(), 4000);
}

#if defined(__linux__)
/// The CPUs of `mask`, ascending.
std::vector<int> CpusOf(const cpu_set_t& mask) {
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &mask)) cpus.push_back(cpu);
  }
  return cpus;
}

std::vector<int> ThreadCpus() {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  EXPECT_EQ(pthread_getaffinity_np(pthread_self(), sizeof(mask), &mask), 0);
  return CpusOf(mask);
}

TEST(ThreadPoolTest, WorkersArePinnedToDistinctCpusOfTheProcessMask) {
  const std::vector<int> process = ThreadCpus();
  if (process.size() < 2) GTEST_SKIP() << "a one-CPU mask pins nothing";
  for (size_t workers : {size_t{1}, process.size() - 1, process.size(),
                         2 * process.size()}) {
    ThreadPool pool(workers);
    // One task per worker, each held until all have started, so every
    // worker runs exactly one and reads its own mask.
    std::vector<std::vector<int>> masks(workers);
    std::atomic<size_t> started{0};
    std::atomic<size_t> finished{0};
    for (size_t w = 0; w < workers; ++w) {
      pool.Submit([&, w] {
        masks[w] = ThreadCpus();
        started.fetch_add(1);
        while (started.load() < workers) std::this_thread::yield();
        finished.fetch_add(1);
      });
    }
    while (finished.load() < workers) std::this_thread::yield();

    std::vector<int> pinned;
    for (const std::vector<int>& mask : masks) {
      ASSERT_EQ(mask.size(), 1u) << "workers=" << workers;
      EXPECT_NE(std::find(process.begin(), process.end(), mask[0]),
                process.end());
      pinned.push_back(mask[0]);
    }
    if (workers <= process.size()) {
      std::sort(pinned.begin(), pinned.end());
      EXPECT_EQ(std::adjacent_find(pinned.begin(), pinned.end()),
                pinned.end())
          << "workers=" << workers;
    }
    EXPECT_EQ(ThreadCpus(), process) << "the caller stays unpinned";
  }
}
#endif

TEST(ThreadPoolTest, HardwareThreadsHasFloorOfOne) {
  EXPECT_GE(ThreadPool::HardwareThreads(), 1u);
}

}  // namespace
}  // namespace freqywm
