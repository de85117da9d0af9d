// Overload chaos suite (DESIGN.md §14, the ISSUE 9 acceptance
// criterion): many producers offering ~10x the tenant's quota must
// degrade to typed kResourceExhausted sheds with pending memory bounded
// by the in-flight quota — never crash, never queue without bound, never
// change the bytes of admitted work. The armed part re-runs the spike with
// pseudo-random faults injected at every site at once (knob-gated, like
// tests/exec/fault_sweep_test.cc); every failure must stay typed and
// every evaluated cell must still match the clean reference.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "analysis/tenant.h"
#include "api/factory.h"
#include "common/random.h"
#include "datagen/power_law.h"
#include "exec/batch_detector.h"
#include "exec/cancellation.h"
#include "exec/fault_injection.h"

namespace freqywm {
namespace {

using std::chrono::milliseconds;

Histogram MakeHistogram(uint64_t seed) {
  Rng rng(seed);
  PowerLawSpec spec;
  spec.num_tokens = 150;
  spec.sample_size = 60000;
  spec.alpha = 0.6;
  return GeneratePowerLawHistogram(spec, rng);
}

/// Keys, the single chaos suspect, and its clean reference verdict row
/// (built once, injector disarmed).
struct ChaosFixture {
  std::vector<SchemeKey> keys;
  Histogram suspect;
  std::vector<DetectResult> reference_row;

  ChaosFixture() {
    FaultInjector::Global().Disarm();
    Histogram original = MakeHistogram(41);
    for (uint64_t seed : {701, 702}) {
      OptionBag bag;
      bag.Set("seed", std::to_string(seed));
      auto scheme = SchemeFactory::Create("freqywm", bag);
      EXPECT_TRUE(scheme.ok());
      auto outcome = scheme.value()->Embed(original);
      EXPECT_TRUE(outcome.ok()) << outcome.status();
      keys.push_back(outcome.value().key);
      if (suspect.total_count() == 0) suspect = outcome.value().watermarked;
    }
    BatchDetector::Session session(BatchDetectOptions{}, keys);
    session.AddSuspects({suspect});
    auto verdicts = session.DrainChecked(InterruptContext{}).verdicts;
    EXPECT_EQ(verdicts.size(), 1u);
    if (!verdicts.empty()) reference_row = verdicts[0];
  }
};

const ChaosFixture& Fixture() {
  static const ChaosFixture* fixture = new ChaosFixture();
  return *fixture;
}

/// Allowed failure codes under overload (and, when armed, under
/// injected faults): the shed taxonomy plus the interruption statuses
/// plus the injector's kUnavailable. Anything else is a bug.
bool IsTypedDegradation(const Status& status) {
  switch (status.code()) {
    case StatusCode::kResourceExhausted:
    case StatusCode::kCancelled:
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kUnavailable:
      return true;
    default:
      return false;
  }
}

/// Runs the spike: `kProducers` threads each offering `kPerProducer`
/// single-suspect batches against quotas sized for ~a tenth of that.
/// Returns via out-params so the armed and clean variants share it.
void RunSpike(TenantContext& tenant, uint64_t* admitted_out,
              uint64_t* drained_out, uint64_t* shed_out,
              size_t* peak_pending_out, bool* all_typed_out,
              uint64_t* identity_violations_out) {
  constexpr int kProducers = 6;
  constexpr int kPerProducer = 30;
  // Every queued suspect holds an admission unit, so the in-flight quota
  // bounds the queue.
  const size_t budget = tenant.quotas().max_in_flight_suspects;

  auto session = tenant.OpenSession(2);
  ASSERT_TRUE(session.ok()) << session.status();
  TenantSession& ts = *session.value();

  std::atomic<uint64_t> admitted{0};
  std::atomic<uint64_t> shed{0};
  std::atomic<bool> all_typed{true};
  std::atomic<bool> done{false};

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        std::vector<Histogram> batch{Fixture().suspect};
        Status status;
        if (p % 2 == 0) {
          status = ts.TrySubmit(std::move(batch));
        } else {
          status = ts.Submit(
              std::move(batch),
              InterruptContext{CancellationToken(),
                               Deadline::After(milliseconds(20))});
        }
        if (status.ok()) {
          admitted.fetch_add(1);
        } else {
          shed.fetch_add(1);
          if (!IsTypedDegradation(status)) all_typed.store(false);
        }
      }
    });
  }

  // The drainer: verifies every evaluated cell against the clean
  // reference and samples the bounded-memory invariant.
  uint64_t drained = 0;
  uint64_t identity_violations = 0;
  size_t peak_pending = 0;
  auto drain_once = [&] {
    peak_pending = std::max(peak_pending, ts.pending_suspects());
    SessionDrainResult result = ts.DrainChecked(InterruptContext{});
    const size_t cols = Fixture().keys.size();
    for (size_t i = 0; i < result.verdicts.size(); ++i) {
      for (size_t j = 0; j < cols; ++j) {
        if (result.evaluated[i * cols + j] &&
            !(result.verdicts[i][j] == Fixture().reference_row[j])) {
          ++identity_violations;
        }
      }
    }
    drained += result.verdicts.size();
  };
  std::thread drainer([&] {
    while (!done.load()) {
      drain_once();
      std::this_thread::sleep_for(milliseconds(1));
    }
  });

  for (auto& t : producers) t.join();
  done.store(true);
  drainer.join();
  // Final sweep: nothing may be left behind.
  drain_once();

  EXPECT_LE(ts.pending_suspects(), budget);
  *admitted_out = admitted.load();
  *shed_out = shed.load();
  *drained_out = drained;
  *peak_pending_out = peak_pending;
  *all_typed_out = all_typed.load();
  *identity_violations_out = identity_violations;
}

TenantQuotas SpikeQuotas() {
  TenantQuotas quotas;
  quotas.max_in_flight_suspects = 8;
  quotas.max_pending_suspects = 8;
  return quotas;
}

TEST(OverloadChaosTest, TenXSpikeShedsTypedBoundedAndByteIdentical) {
  TenantContext tenant("spiked", SpikeQuotas());
  for (size_t i = 0; i < Fixture().keys.size(); ++i) {
    ASSERT_TRUE(
        tenant.Escrow("buyer-" + std::to_string(i), Fixture().keys[i]).ok());
  }

  uint64_t admitted = 0, drained = 0, shed = 0, violations = 0;
  size_t peak_pending = 0;
  bool all_typed = false;
  RunSpike(tenant, &admitted, &drained, &shed, &peak_pending, &all_typed,
           &violations);

  // 180 offered against an 8-unit budget: some work was admitted, some
  // was shed, every shed was typed, and nothing was lost or invented.
  EXPECT_GT(admitted, 0u);
  EXPECT_GT(shed, 0u);
  EXPECT_TRUE(all_typed);
  EXPECT_EQ(drained, admitted);
  EXPECT_EQ(violations, 0u);
  // Bounded memory: the queue never outgrew the in-flight quota.
  EXPECT_LE(peak_pending, SpikeQuotas().max_in_flight_suspects);

  EngineHealthSnapshot health = tenant.Health();
  EXPECT_EQ(health.admission.in_flight, 0u);
  EXPECT_EQ(health.session_queue_depth, 0u);
  EXPECT_EQ(health.admission.admitted, admitted);
  EXPECT_GE(health.admission.total_shed(), 1u);
}

#if defined(FREQYWM_FAULT_INJECTION)

class ArmedOverloadChaosTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Global().Disarm(); }
  void TearDown() override { FaultInjector::Global().Disarm(); }
};

TEST_F(ArmedOverloadChaosTest, SpikeWithFaultsArmedStaysTypedAndIdentical) {
  (void)Fixture();  // build the clean reference before arming
  for (uint64_t seed : {3u, 17u, 40u}) {
    FaultInjector::Global().Disarm();
    // Escrow with the injector disarmed so the tenant always has its
    // keys; the spike itself runs with every site armed at 1-in-3.
    TenantContext tenant("chaos-" + std::to_string(seed), SpikeQuotas());
    for (size_t i = 0; i < Fixture().keys.size(); ++i) {
      ASSERT_TRUE(
          tenant.Escrow("buyer-" + std::to_string(i), Fixture().keys[i])
              .ok());
    }

    FaultInjector::Global().ArmSeeded(seed, 3);
    uint64_t admitted = 0, drained = 0, shed = 0, violations = 0;
    size_t peak_pending = 0;
    bool all_typed = false;
    RunSpike(tenant, &admitted, &drained, &shed, &peak_pending, &all_typed,
             &violations);
    FaultInjector::Global().Disarm();

    // Under faults + overload: still no untyped failure, still no
    // unbounded queue, still no wrong byte in any evaluated cell, and
    // the unit accounting still balances.
    EXPECT_TRUE(all_typed) << "seed " << seed;
    EXPECT_EQ(violations, 0u) << "seed " << seed;
    EXPECT_EQ(drained, admitted) << "seed " << seed;
    EXPECT_LE(peak_pending, SpikeQuotas().max_in_flight_suspects)
        << "seed " << seed;
    EXPECT_EQ(tenant.Health().admission.in_flight, 0u) << "seed " << seed;
  }
}

#endif  // FREQYWM_FAULT_INJECTION

}  // namespace
}  // namespace freqywm
