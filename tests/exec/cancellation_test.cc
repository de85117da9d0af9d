// Cooperative cancellation and deadline suite (ISSUE 8 / DESIGN.md §13):
// the CancellationSource/Token pair, the monotonic Deadline value type,
// InterruptContext's status mapping, CondVar::WaitFor bounded sleeps, and
// ParallelForChecked's contract — deterministic first-error-wins by shard
// index at any thread count, typed interruption, never a crash or a hang.

#include "exec/cancellation.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/freqywm_scheme.h"
#include "common/mutex.h"
#include "common/random.h"
#include "core/watermark.h"
#include "datagen/power_law.h"
#include "exec/exec_context.h"
#include "exec/thread_pool.h"

namespace freqywm {
namespace {

TEST(CancellationTest, DefaultTokenNeverCancelled) {
  CancellationToken token;
  EXPECT_FALSE(token.cancelled());
  InterruptContext interrupt{token, Deadline()};
  EXPECT_FALSE(interrupt.interrupted());
  EXPECT_TRUE(interrupt.Check().ok());
}

TEST(CancellationTest, CancelPropagatesToEveryToken) {
  CancellationSource source;
  CancellationToken a = source.token();
  CancellationToken b = source.token();
  EXPECT_FALSE(a.cancelled());
  EXPECT_FALSE(b.cancelled());
  source.Cancel();
  EXPECT_TRUE(source.cancelled());
  EXPECT_TRUE(a.cancelled());
  EXPECT_TRUE(b.cancelled());
  source.Cancel();  // idempotent
  EXPECT_TRUE(a.cancelled());
}

TEST(CancellationTest, TokenOutlivesSource) {
  CancellationToken token;
  {
    CancellationSource source;
    token = source.token();
    source.Cancel();
  }
  EXPECT_TRUE(token.cancelled());
}

TEST(CancellationTest, InfiniteDeadlineNeverExpires) {
  Deadline deadline;
  EXPECT_FALSE(deadline.finite());
  EXPECT_FALSE(deadline.expired());
  EXPECT_EQ(deadline.remaining(), std::chrono::nanoseconds::max());
}

TEST(CancellationTest, ExpiredDeadlineReportsImmediately) {
  Deadline expired = Deadline::Expired();
  EXPECT_TRUE(expired.finite());
  EXPECT_TRUE(expired.expired());
  EXPECT_EQ(expired.remaining(), std::chrono::nanoseconds(0));

  Deadline negative = Deadline::After(std::chrono::seconds(-5));
  EXPECT_TRUE(negative.expired());
}

TEST(CancellationTest, FarDeadlineNotExpired) {
  Deadline deadline = Deadline::After(std::chrono::hours(1));
  EXPECT_TRUE(deadline.finite());
  EXPECT_FALSE(deadline.expired());
  EXPECT_GT(deadline.remaining(), std::chrono::minutes(30));
}

TEST(CancellationTest, InterruptStatusTypes) {
  CancellationSource source;
  InterruptContext cancelled{source.token(), Deadline()};
  source.Cancel();
  EXPECT_EQ(cancelled.Check().code(), StatusCode::kCancelled);

  InterruptContext late{CancellationToken(), Deadline::Expired()};
  EXPECT_TRUE(late.interrupted());
  EXPECT_EQ(late.Check().code(), StatusCode::kDeadlineExceeded);
}

TEST(CancellationTest, CancellationWinsOverExpiredDeadline) {
  // A caller that cancels an already-late operation sees the status
  // matching its own action.
  CancellationSource source;
  source.Cancel();
  InterruptContext both{source.token(), Deadline::Expired()};
  EXPECT_EQ(both.Check().code(), StatusCode::kCancelled);
}

TEST(CancellationTest, CondVarWaitForTimesOut) {
  Mutex mutex;
  CondVar cv;
  MutexLock lock(mutex);
  // Nobody notifies: the bounded wait must return false, not hang.
  EXPECT_FALSE(cv.WaitFor(mutex, std::chrono::milliseconds(5)));
}

TEST(CancellationTest, CondVarWaitForSeesNotification) {
  Mutex mutex;
  CondVar cv;
  bool ready = false;
  std::thread notifier([&] {
    {
      MutexLock lock(mutex);
      ready = true;
    }
    cv.NotifyAll();
  });
  {
    MutexLock lock(mutex);
    EXPECT_TRUE(cv.WaitFor(mutex, std::chrono::seconds(30),
                           [&]() NO_THREAD_SAFETY_ANALYSIS { return ready; }));
    EXPECT_TRUE(ready);
  }
  notifier.join();
}

// ------------------------------------------------------ ParallelForChecked

TEST(CancellationTest, ParallelForCheckedRunsEveryIndex) {
  for (size_t threads : {0u, 1u, 3u, 7u}) {
    ThreadPool pool(threads);
    std::vector<std::atomic<int>> hits(257);
    for (auto& h : hits) h.store(0);
    Status status = pool.ParallelForChecked(
        hits.size(), InterruptContext{}, [&](size_t i) {
          hits[i].fetch_add(1, std::memory_order_relaxed);
          return Status::OK();
        });
    ASSERT_TRUE(status.ok()) << status;
    for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(CancellationTest, ParallelForCheckedFirstErrorWinsByShardIndex) {
  // Several failing indices: the reported error must be the smallest
  // one, at every thread count, on every repetition.
  for (size_t threads : {0u, 1u, 3u, 7u}) {
    ThreadPool pool(threads);
    for (int rep = 0; rep < 20; ++rep) {
      Status status = pool.ParallelForChecked(
          512, InterruptContext{}, [&](size_t i) {
            if (i == 41 || i == 137 || i == 400) {
              return Status::Internal("fail at " + std::to_string(i));
            }
            return Status::OK();
          });
      ASSERT_FALSE(status.ok());
      EXPECT_EQ(status.code(), StatusCode::kInternal);
      EXPECT_EQ(status.message(), "fail at 41")
          << "threads=" << threads << " rep=" << rep;
    }
  }
}

TEST(CancellationTest, ParallelForCheckedStopsClaimingAfterError) {
  ThreadPool pool(3);
  std::atomic<size_t> executed{0};
  Status status = pool.ParallelForChecked(
      100000, InterruptContext{}, [&](size_t i) {
        executed.fetch_add(1, std::memory_order_relaxed);
        if (i == 0) return Status::Internal("early failure");
        return Status::OK();
      });
  ASSERT_FALSE(status.ok());
  // The stop latch keeps the loop from running all 100k bodies. The
  // margin is generous (threads already past the check may finish their
  // claim), but a broken latch would execute everything.
  EXPECT_LT(executed.load(), 100000u);
}

TEST(CancellationTest, ParallelForCheckedExpiredDeadlineRunsNothing) {
  for (size_t threads : {0u, 3u}) {
    ThreadPool pool(threads);
    std::atomic<size_t> executed{0};
    Status status = pool.ParallelForChecked(
        1000, InterruptContext{CancellationToken(), Deadline::Expired()},
        [&](size_t) {
          executed.fetch_add(1, std::memory_order_relaxed);
          return Status::OK();
        });
    EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
    EXPECT_EQ(executed.load(), 0u);
  }
}

TEST(CancellationTest, ParallelForCheckedObservesMidLoopCancellation) {
  // A body cancels the shared source; the loop must stop within one
  // shard quantum and return kCancelled — typed, no hang, no crash.
  for (size_t threads : {0u, 3u}) {
    ThreadPool pool(threads);
    CancellationSource source;
    std::atomic<size_t> executed{0};
    Status status = pool.ParallelForChecked(
        100000, InterruptContext{source.token(), Deadline()}, [&](size_t i) {
          executed.fetch_add(1, std::memory_order_relaxed);
          if (i == 10) source.Cancel();
          return Status::OK();
        });
    EXPECT_EQ(status.code(), StatusCode::kCancelled) << status;
    EXPECT_LT(executed.load(), 100000u);
  }
}

TEST(CancellationTest, ParallelForCheckedBodyErrorBeatsInterruption) {
  // When a body error and a cancellation race, the typed body error is
  // the more actionable report and must win.
  ThreadPool pool(3);
  CancellationSource source;
  Status status = pool.ParallelForChecked(
      256, InterruptContext{source.token(), Deadline()}, [&](size_t i) {
        if (i == 3) {
          source.Cancel();
          return Status::Internal("boom");
        }
        return Status::OK();
      });
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInternal);
}

// ------------------------------------------------------------ ExecContext

TEST(CancellationTest, ExecContextDefaultsAreUninterrupted) {
  ExecContext exec;
  EXPECT_FALSE(exec.interrupted());
  EXPECT_TRUE(exec.CheckInterrupted().ok());
}

TEST(CancellationTest, ExecContextCarriesInterruption) {
  CancellationSource source;
  ExecContext exec;
  exec.cancel = source.token();
  EXPECT_TRUE(exec.CheckInterrupted().ok());
  source.Cancel();
  EXPECT_TRUE(exec.interrupted());
  EXPECT_EQ(exec.CheckInterrupted().code(), StatusCode::kCancelled);

  ExecContext late;
  late.deadline = Deadline::Expired();
  EXPECT_EQ(late.CheckInterrupted().code(), StatusCode::kDeadlineExceeded);
}

TEST(CancellationTest, BuildHistogramCheckedMatchesUnchecked) {
  Rng rng(77);
  PowerLawSpec spec;
  spec.num_tokens = 500;
  spec.sample_size = 120000;
  spec.alpha = 0.7;
  Dataset dataset = GeneratePowerLawDataset(spec, rng);

  ThreadPool pool(3);
  ExecContext exec{&pool};
  Histogram plain = exec.BuildHistogram(dataset);
  Result<Histogram> checked = exec.BuildHistogramChecked(dataset);
  ASSERT_TRUE(checked.ok()) << checked.status();
  EXPECT_EQ(plain.entries(), checked.value().entries());

  ExecContext serial;
  Result<Histogram> serial_checked = serial.BuildHistogramChecked(dataset);
  ASSERT_TRUE(serial_checked.ok());
  EXPECT_EQ(plain.entries(), serial_checked.value().entries());
}

TEST(CancellationTest, BuildHistogramCheckedHonorsCancellation) {
  Rng rng(78);
  PowerLawSpec spec;
  spec.num_tokens = 100;
  spec.sample_size = 50000;
  Dataset dataset = GeneratePowerLawDataset(spec, rng);

  ThreadPool pool(3);
  CancellationSource source;
  source.Cancel();
  ExecContext exec{&pool};
  exec.cancel = source.token();
  Result<Histogram> cancelled = exec.BuildHistogramChecked(dataset);
  ASSERT_FALSE(cancelled.ok());
  EXPECT_EQ(cancelled.status().code(), StatusCode::kCancelled);
}

TEST(CancellationTest, BuildHistogramCheckedHonorsExpiredDeadline) {
  Rng rng(79);
  PowerLawSpec spec;
  spec.num_tokens = 100;
  spec.sample_size = 50000;
  Dataset dataset = GeneratePowerLawDataset(spec, rng);

  for (size_t workers : {0, 3}) {
    std::unique_ptr<ThreadPool> pool;
    if (workers > 0) pool = std::make_unique<ThreadPool>(workers);
    ExecContext exec{pool.get()};
    exec.deadline = Deadline::Expired();
    Result<Histogram> late = exec.BuildHistogramChecked(dataset);
    ASSERT_FALSE(late.ok()) << "workers=" << workers;
    EXPECT_EQ(late.status().code(), StatusCode::kDeadlineExceeded);
  }
}

/// FreqyWM whose embed cancels `source` once it has succeeded, so only
/// the row transform that follows can observe the cancellation.
class CancelAfterEmbedScheme : public FreqyWmScheme {
 public:
  CancelAfterEmbedScheme(GenerateOptions options, CancellationSource* source)
      : FreqyWmScheme(options), source_(source) {}

  using FreqyWmScheme::Embed;
  Result<EmbedOutcome> Embed(const Histogram& original,
                             const ExecContext& exec) const override {
    Result<EmbedOutcome> outcome = FreqyWmScheme::Embed(original, exec);
    source_->Cancel();
    return outcome;
  }

 private:
  CancellationSource* source_;
};

TEST(CancellationTest, TransformPollsBetweenShards) {
  Rng rng(80);
  PowerLawSpec spec;
  spec.num_tokens = 200;
  spec.sample_size = 300000;
  spec.alpha = 0.7;
  const Dataset dataset = GeneratePowerLawDataset(spec, rng);
  GenerateOptions options;
  options.modulus_bound = 131;
  options.seed = 81;

  for (size_t workers : {0, 3}) {
    std::unique_ptr<ThreadPool> pool;
    if (workers > 0) pool = std::make_unique<ThreadPool>(workers);

    // Cancelled after the count and the embed: EmbedDataset returns the
    // transform's typed status, not rows.
    CancellationSource source;
    ExecContext exec{pool.get()};
    exec.cancel = source.token();
    const CancelAfterEmbedScheme scheme(options, &source);
    auto cancelled = scheme.EmbedDataset(dataset, exec);
    ASSERT_FALSE(cancelled.ok()) << "workers=" << workers;
    EXPECT_EQ(cancelled.status().code(), StatusCode::kCancelled);

    // The transform alone, past its deadline, at several shard counts.
    auto embedded =
        FreqyWmScheme(options).Embed(Histogram::FromDataset(dataset));
    ASSERT_TRUE(embedded.ok()) << embedded.status();
    ExecContext late{pool.get()};
    late.deadline = Deadline::Expired();
    for (size_t shards : {1, 4, 16}) {
      const ShardedIdCounts counts =
          ExecContext{pool.get()}.CountIds(dataset, shards).value();
      Rng transform_rng(82);
      Result<Dataset> rows =
          TransformDataset(dataset, counts, nullptr,
                           embedded.value().watermarked, transform_rng, late);
      ASSERT_FALSE(rows.ok()) << "workers=" << workers << " shards=" << shards;
      EXPECT_EQ(rows.status().code(), StatusCode::kDeadlineExceeded);
    }
  }
}

}  // namespace
}  // namespace freqywm
