// AdmissionController suite (DESIGN.md §14): exact token-bucket
// decisions under an injected clock, the in-flight semaphore, the
// bounded waiting room, deadline-aware admission, the typed-shed
// contract (every rejection is kResourceExhausted), and permit RAII.
// The concurrent tests run under TSan in CI.

#include "exec/admission.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "exec/cancellation.h"

namespace freqywm {
namespace {

using std::chrono::milliseconds;

/// Controller driven by a hand-advanced fake clock: token-bucket
/// arithmetic becomes exact and instant.
struct FakeClockController {
  int64_t now_nanos = 0;

  AdmissionOptions WithClock(AdmissionOptions options) {
    options.clock_nanos = [this] { return now_nanos; };
    return options;
  }

  void AdvanceMillis(int64_t ms) { now_nanos += ms * 1'000'000; }
};

TEST(AdmissionTest, DefaultControllerAdmitsEverything) {
  AdmissionController controller;
  auto permit = controller.TryAdmit(1000);
  ASSERT_TRUE(permit.ok());
  EXPECT_EQ(permit.value().units(), 1000u);

  AdmissionStats stats = controller.stats();
  EXPECT_EQ(stats.admitted, 1000u);
  EXPECT_EQ(stats.in_flight, 1000u);
  EXPECT_EQ(stats.total_shed(), 0u);

  permit.value().Release();
  EXPECT_EQ(controller.stats().in_flight, 0u);
}

TEST(AdmissionTest, ZeroUnitsIsInvalidArgument) {
  AdmissionController controller;
  EXPECT_EQ(controller.TryAdmit(0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(controller.Admit(0, InterruptContext{}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(AdmissionTest, TokenBucketExactSequenceUnderFakeClock) {
  FakeClockController clock;
  AdmissionOptions options;
  options.rate_per_unit_time = 2.0;  // 2 units/s
  options.burst = 4.0;
  AdmissionController controller(clock.WithClock(options));

  // Bucket starts full: 4 tokens.
  auto first = controller.TryAdmit(4);
  ASSERT_TRUE(first.ok());

  // Empty bucket: the very next unit sheds with the typed code.
  auto shed = controller.TryAdmit(1);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(controller.stats().shed_rate, 1u);

  // 500 ms at 2 units/s = exactly 1 token.
  clock.AdvanceMillis(500);
  EXPECT_TRUE(controller.TryAdmit(1).ok());
  EXPECT_EQ(controller.TryAdmit(1).status().code(),
            StatusCode::kResourceExhausted);

  // A long idle period refills to burst, never beyond.
  clock.AdvanceMillis(60'000);
  EXPECT_TRUE(controller.TryAdmit(4).ok());
  auto over_burst = controller.TryAdmit(1);
  EXPECT_EQ(over_burst.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(controller.stats().shed_rate, 3u);
  // Rate sheds never consume tokens or in-flight units.
  EXPECT_EQ(controller.stats().admitted, 9u);
}

TEST(AdmissionTest, InFlightSemaphoreBoundsAdmittedWork) {
  AdmissionOptions options;
  options.max_in_flight = 4;
  AdmissionController controller(options);

  auto a = controller.TryAdmit(3);
  ASSERT_TRUE(a.ok());
  auto b = controller.TryAdmit(2);
  ASSERT_FALSE(b.ok());
  EXPECT_EQ(b.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(controller.stats().shed_capacity, 1u);

  a.value().Release();
  EXPECT_TRUE(controller.TryAdmit(2).ok());
}

TEST(AdmissionTest, PermitRaiiAndMoveSemantics) {
  AdmissionOptions options;
  options.max_in_flight = 4;
  AdmissionController controller(options);
  {
    auto permit = controller.TryAdmit(3);
    ASSERT_TRUE(permit.ok());

    // Move transfers the lease; the source becomes inert.
    AdmissionController::Permit moved = std::move(permit.value());
    EXPECT_FALSE(permit.value().active());
    EXPECT_TRUE(moved.active());
    EXPECT_EQ(controller.stats().in_flight, 3u);

    // Partial release per finished work unit.
    moved.ReleasePartial(2);
    EXPECT_EQ(moved.units(), 1u);
    EXPECT_EQ(controller.stats().in_flight, 1u);
  }  // destructor returns the remainder
  EXPECT_EQ(controller.stats().in_flight, 0u);
  // Release is idempotent: units were returned exactly once.
  EXPECT_TRUE(controller.TryAdmit(4).ok());
}

TEST(AdmissionTest, ExpiredDeadlineIsShedOnArrival) {
  AdmissionController controller;
  auto permit = controller.TryAdmit(1, Deadline::Expired());
  ASSERT_FALSE(permit.ok());
  EXPECT_EQ(permit.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(controller.stats().shed_deadline, 1u);
  EXPECT_EQ(controller.stats().admitted, 0u);
}

TEST(AdmissionTest, AdmitShedsNeverSatisfiableRequestsImmediately) {
  AdmissionOptions options;
  options.max_in_flight = 2;
  options.rate_per_unit_time = 1.0;
  options.burst = 2.0;
  AdmissionController controller(options);

  // More units than the semaphore can ever hold.
  auto oversized = controller.Admit(3, InterruptContext{});
  ASSERT_FALSE(oversized.ok());
  EXPECT_EQ(oversized.status().code(), StatusCode::kResourceExhausted);

  // Within the semaphore but beyond the bucket's burst capacity.
  AdmissionOptions rate_only;
  rate_only.rate_per_unit_time = 1.0;
  rate_only.burst = 2.0;
  AdmissionController rate_controller(rate_only);
  auto over_burst = rate_controller.Admit(3, InterruptContext{});
  ASSERT_FALSE(over_burst.ok());
  EXPECT_EQ(over_burst.status().code(), StatusCode::kResourceExhausted);
}

TEST(AdmissionTest, DeadlineAwareAdmissionRejectsDoomedWaits) {
  FakeClockController clock;
  AdmissionOptions options;
  options.rate_per_unit_time = 1.0;  // 1 unit/s
  options.burst = 1.0;
  AdmissionController controller(clock.WithClock(options));

  ASSERT_TRUE(controller.TryAdmit(1).ok());  // drain the bucket

  // Refilling one token takes 1 s; a 50 ms deadline can never make it.
  // The shed happens up front — no blocking, no dead work queued.
  InterruptContext interrupt{CancellationToken(),
                             Deadline::After(milliseconds(50))};
  auto doomed = controller.Admit(1, interrupt);
  ASSERT_FALSE(doomed.ok());
  EXPECT_EQ(doomed.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(controller.stats().shed_deadline, 1u);
  EXPECT_EQ(controller.stats().pending, 0u);
}

TEST(AdmissionTest, BoundedWaitingRoomShedsExcessPending) {
  AdmissionOptions options;
  options.max_in_flight = 1;
  options.max_pending = 1;
  AdmissionController controller(options);

  auto held = controller.TryAdmit(1);
  ASSERT_TRUE(held.ok());

  // One caller blocks in the waiting room...
  std::atomic<bool> admitted{false};
  std::thread waiter([&] {
    auto permit = controller.Admit(1, InterruptContext{});
    EXPECT_TRUE(permit.ok());
    admitted.store(true);
  });
  while (controller.stats().pending == 0) {
    std::this_thread::sleep_for(milliseconds(1));
  }

  // ...and the waiting room is now full: further callers shed instead
  // of queueing without bound.
  auto shed = controller.Admit(1, InterruptContext{});
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(controller.stats().shed_capacity, 1u);

  EXPECT_FALSE(admitted.load());
  held.value().Release();  // wakes the waiter
  waiter.join();
  EXPECT_TRUE(admitted.load());
  EXPECT_EQ(controller.stats().pending, 0u);
}

TEST(AdmissionTest, WaitingRoomNeverShedsImmediatelyAdmissibleWork) {
  AdmissionOptions options;
  options.max_in_flight = 8;
  options.max_pending = 4;
  AdmissionController controller(options);

  // 5 units exceed the waiting room but fit the idle semaphore: the
  // request needs no wait, so the waiting room does not apply.
  auto permit = controller.Admit(5, InterruptContext{});
  ASSERT_TRUE(permit.ok()) << permit.status().ToString();
  EXPECT_EQ(controller.stats().in_flight, 5u);
  EXPECT_EQ(controller.stats().pending, 0u);
  EXPECT_EQ(controller.stats().total_shed(), 0u);
}

TEST(AdmissionTest, CancellationWhileQueuedReturnsCancelled) {
  AdmissionOptions options;
  options.max_in_flight = 1;
  AdmissionController controller(options);
  auto held = controller.TryAdmit(1);
  ASSERT_TRUE(held.ok());

  CancellationSource source;
  std::thread canceller([&] {
    while (controller.stats().pending == 0) {
      std::this_thread::sleep_for(milliseconds(1));
    }
    source.Cancel();
  });
  auto permit =
      controller.Admit(1, InterruptContext{source.token(), Deadline()});
  canceller.join();
  ASSERT_FALSE(permit.ok());
  EXPECT_EQ(permit.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(controller.stats().pending, 0u);
}

TEST(AdmissionTest, DeadlineWhileQueuedForCapacityIsTypedShed) {
  AdmissionOptions options;
  options.max_in_flight = 1;
  AdmissionController controller(options);
  auto held = controller.TryAdmit(1);
  ASSERT_TRUE(held.ok());

  InterruptContext interrupt{CancellationToken(),
                             Deadline::After(milliseconds(30))};
  auto permit = controller.Admit(1, interrupt);
  ASSERT_FALSE(permit.ok());
  // Never admitted → the shed taxonomy owns the status (DESIGN.md §14).
  EXPECT_EQ(permit.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(controller.stats().shed_deadline, 1u);
}

TEST(AdmissionTest, ConcurrentAdmitReleaseKeepsInvariants) {
  AdmissionOptions options;
  options.max_in_flight = 4;
  AdmissionController controller(options);

  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  std::atomic<int> peak_violations{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        auto permit = controller.Admit(1, InterruptContext{});
        ASSERT_TRUE(permit.ok());
        if (controller.stats().in_flight > options.max_in_flight) {
          peak_violations.fetch_add(1);
        }
      }  // permit releases at scope exit
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(peak_violations.load(), 0);
  AdmissionStats stats = controller.stats();
  EXPECT_EQ(stats.admitted, static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(stats.in_flight, 0u);
  EXPECT_EQ(stats.pending, 0u);
  EXPECT_EQ(stats.total_shed(), 0u);
}

}  // namespace
}  // namespace freqywm
