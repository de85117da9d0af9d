// TenantContext suite (DESIGN.md §14): per-tenant quotas with typed
// kResourceExhausted rejections (escrow, sessions, in-flight suspects),
// the RAII session lifecycle with unit accounting, the health snapshot,
// and the isolation contract of the acceptance criteria: one tenant
// saturating its quotas — or holding poisoned keys — cannot change
// another tenant's verdicts, cache contents or admission outcomes.

#include "analysis/tenant.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "api/factory.h"
#include "common/random.h"
#include "datagen/power_law.h"
#include "exec/batch_detector.h"

namespace freqywm {
namespace {

Histogram MakeHistogram(uint64_t seed) {
  Rng rng(seed);
  PowerLawSpec spec;
  spec.num_tokens = 150;
  spec.sample_size = 60000;
  spec.alpha = 0.6;
  return GeneratePowerLawHistogram(spec, rng);
}

struct TenantFixture {
  std::vector<SchemeKey> keys;
  std::vector<Histogram> suspects;

  TenantFixture() {
    Histogram original = MakeHistogram(91);
    for (uint64_t seed : {601, 602}) {
      OptionBag bag;
      bag.Set("seed", std::to_string(seed));
      auto scheme = SchemeFactory::Create("freqywm", bag);
      EXPECT_TRUE(scheme.ok());
      auto outcome = scheme.value()->Embed(original);
      EXPECT_TRUE(outcome.ok()) << outcome.status();
      keys.push_back(outcome.value().key);
      suspects.push_back(outcome.value().watermarked);
    }
    suspects.push_back(original);
  }
};

const TenantFixture& Fixture() {
  static const TenantFixture* fixture = new TenantFixture();
  return *fixture;
}

std::vector<Histogram> Batch(size_t from, size_t count) {
  std::vector<Histogram> out;
  for (size_t i = 0; i < count; ++i) {
    out.push_back(Fixture().suspects[(from + i) % Fixture().suspects.size()]);
  }
  return out;
}

void EscrowAll(TenantContext& tenant) {
  for (size_t i = 0; i < Fixture().keys.size(); ++i) {
    ASSERT_TRUE(
        tenant.Escrow("buyer-" + std::to_string(i), Fixture().keys[i]).ok());
  }
}

TEST(TenantTest, EscrowQuotaIsTypedResourceExhausted) {
  TenantQuotas quotas;
  quotas.max_escrowed_keys = 1;
  TenantContext tenant("acme", quotas);

  ASSERT_TRUE(tenant.Escrow("buyer-0", Fixture().keys[0]).ok());
  Status over = tenant.Escrow("buyer-1", Fixture().keys[1]);
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(tenant.escrowed_keys(), 1u);
}

TEST(TenantTest, SessionQuotaFreesOnDestruction) {
  TenantQuotas quotas;
  quotas.max_concurrent_sessions = 1;
  TenantContext tenant("acme", quotas);
  EscrowAll(tenant);

  auto first = tenant.OpenSession();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(tenant.open_sessions(), 1u);

  auto second = tenant.OpenSession();
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kResourceExhausted);

  first = Status::ResourceExhausted("drop");  // destroys the session
  EXPECT_EQ(tenant.open_sessions(), 0u);
  EXPECT_TRUE(tenant.OpenSession().ok());
}

TEST(TenantTest, SubmitDrainLifecycleAccountsUnits) {
  TenantQuotas quotas;
  quotas.max_in_flight_suspects = 8;
  TenantContext tenant("acme", quotas);
  EscrowAll(tenant);

  auto session = tenant.OpenSession();
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(
      session.value()->Submit(Batch(0, 3), InterruptContext{}).ok());

  EngineHealthSnapshot mid = tenant.Health();
  EXPECT_EQ(mid.admission.in_flight, 3u);
  EXPECT_EQ(mid.session_queue_depth, 3u);
  EXPECT_EQ(mid.open_sessions, 1u);

  SessionDrainResult result =
      session.value()->DrainChecked(InterruptContext{});
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.verdicts.size(), 3u);

  // Each drained row returned one admitted unit.
  EngineHealthSnapshot after = tenant.Health();
  EXPECT_EQ(after.admission.in_flight, 0u);
  EXPECT_EQ(after.session_queue_depth, 0u);
}

TEST(TenantTest, InFlightQuotaShedsTypedAndRecoversAfterDrain) {
  TenantQuotas quotas;
  quotas.max_in_flight_suspects = 2;
  TenantContext tenant("acme", quotas);
  EscrowAll(tenant);

  auto session = tenant.OpenSession();
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session.value()->TrySubmit(Batch(0, 2)).ok());

  Status shed = session.value()->TrySubmit(Batch(2, 1));
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.code(), StatusCode::kResourceExhausted);
  // The shed enqueued nothing and leased nothing.
  EXPECT_EQ(session.value()->pending_suspects(), 2u);
  EXPECT_EQ(tenant.Health().admission.in_flight, 2u);

  (void)session.value()->DrainChecked(InterruptContext{});
  EXPECT_TRUE(session.value()->TrySubmit(Batch(2, 1)).ok());
}

TEST(TenantTest, WaitingRoomQuotaDoesNotCapInFlight) {
  // `max_pending_suspects` sizes only the waiting room of blocking
  // `Submit`s; the in-flight quota alone bounds what may be queued.
  TenantQuotas quotas;
  quotas.max_in_flight_suspects = 8;
  quotas.max_pending_suspects = 4;
  TenantContext tenant("acme", quotas);
  EscrowAll(tenant);

  auto session = tenant.OpenSession();
  ASSERT_TRUE(session.ok());
  Status submitted = session.value()->TrySubmit(Batch(0, 5));
  ASSERT_TRUE(submitted.ok()) << submitted;

  EngineHealthSnapshot health = tenant.Health();
  EXPECT_EQ(health.admission.admitted, 5u);
  EXPECT_EQ(health.session_queue_depth, 5u);

  // 5 more would exceed the in-flight quota, so they must wait, and the
  // batch is larger than the waiting room: admission sheds it at once.
  Status shed = session.value()->Submit(Batch(0, 5), InterruptContext{});
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.code(), StatusCode::kResourceExhausted) << shed;
  EXPECT_EQ(tenant.admission().stats().total_shed(), 1u);
  EXPECT_EQ(session.value()->pending_suspects(), 5u);
}

TEST(TenantTest, AbandonedSessionReturnsLeasedUnits) {
  TenantQuotas quotas;
  quotas.max_in_flight_suspects = 2;
  TenantContext tenant("acme", quotas);
  EscrowAll(tenant);
  {
    auto session = tenant.OpenSession();
    ASSERT_TRUE(session.ok());
    ASSERT_TRUE(session.value()->TrySubmit(Batch(0, 2)).ok());
    // Abandoned without a drain.
  }
  EXPECT_EQ(tenant.Health().admission.in_flight, 0u);
  EXPECT_EQ(tenant.open_sessions(), 0u);
}

TEST(TenantTest, CacheSliceIsSizedByQuotaAndPrivate) {
  TenantQuotas quotas;
  quotas.max_cache_entries = 7;
  TenantContext tenant("acme", quotas);
  EXPECT_EQ(tenant.key_cache()->capacity(), 7u);

  TenantContext other("globex");
  EXPECT_EQ(other.key_cache()->capacity(),
            PreparedKeyCache::kDefaultCapacity);
  EXPECT_NE(tenant.key_cache().get(), other.key_cache().get());
}

TEST(TenantTest, VerdictsIdenticalToUntenantedSessionAnyThreads) {
  BatchDetector::Session reference(BatchDetectOptions{}, Fixture().keys);
  reference.AddSuspects(Batch(0, 3));
  const auto expected = reference.DrainChecked(InterruptContext{}).verdicts;

  for (size_t threads : {1u, 2u, 4u}) {
    TenantQuotas quotas;
    quotas.max_in_flight_suspects = 16;
    quotas.max_pending_suspects = 16;
    TenantContext tenant("acme", quotas);
    EscrowAll(tenant);
    auto session = tenant.OpenSession(threads);
    ASSERT_TRUE(session.ok());
    ASSERT_TRUE(
        session.value()->Submit(Batch(0, 3), InterruptContext{}).ok());
    SessionDrainResult result =
        session.value()->DrainChecked(InterruptContext{});
    ASSERT_TRUE(result.status.ok());
    ASSERT_EQ(result.verdicts.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      for (size_t j = 0; j < expected[i].size(); ++j) {
        EXPECT_TRUE(result.verdicts[i][j] == expected[i][j])
            << "threads=" << threads << " cell (" << i << "," << j << ")";
      }
    }
  }
}

TEST(TenantTest, SaturatedOrPoisonedTenantCannotPerturbAnother) {
  // Tenant A: tiny quotas, saturated, and a poisoned escrow entry (a
  // key whose scheme tag is not registered) ahead of the fixture keys —
  // the worst neighbor the acceptance criteria describe.
  TenantQuotas a_quotas;
  a_quotas.max_in_flight_suspects = 1;
  a_quotas.max_concurrent_sessions = 1;
  TenantContext tenant_a("noisy", a_quotas);
  const SchemeKey poisoned{"no-such-scheme", Fixture().keys[0].payload};
  ASSERT_TRUE(tenant_a.Escrow("buyer-poisoned", poisoned).ok());
  EscrowAll(tenant_a);
  auto a_session = tenant_a.OpenSession();
  ASSERT_TRUE(a_session.ok());
  ASSERT_TRUE(a_session.value()->TrySubmit(Batch(0, 1)).ok());
  // A is now fully saturated: in-flight quota consumed, session quota
  // consumed, and its poisoned column typed kNotFound.
  EXPECT_EQ(a_session.value()->key_statuses()[0].code(),
            StatusCode::kNotFound);
  EXPECT_FALSE(a_session.value()->TrySubmit(Batch(0, 1)).ok());
  EXPECT_FALSE(tenant_a.OpenSession().ok());

  // Tenant B (same escrowed keys): verdicts must equal the untenanted
  // reference, its key columns must be healthy, and its admissions must
  // succeed — A's saturation and poisoned key are invisible to B.
  BatchDetector::Session reference(BatchDetectOptions{}, Fixture().keys);
  reference.AddSuspects(Batch(0, 3));
  const auto expected = reference.DrainChecked(InterruptContext{}).verdicts;

  TenantContext tenant_b("quiet");
  EscrowAll(tenant_b);
  auto b_session = tenant_b.OpenSession();
  ASSERT_TRUE(b_session.ok());
  for (const Status& status : b_session.value()->key_statuses()) {
    EXPECT_TRUE(status.ok()) << status;
  }
  ASSERT_TRUE(
      b_session.value()->Submit(Batch(0, 3), InterruptContext{}).ok());
  SessionDrainResult result =
      b_session.value()->DrainChecked(InterruptContext{});
  ASSERT_TRUE(result.status.ok());
  ASSERT_EQ(result.verdicts.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    for (size_t j = 0; j < expected[i].size(); ++j) {
      EXPECT_TRUE(result.verdicts[i][j] == expected[i][j])
          << "cell (" << i << "," << j << ")";
    }
  }

  // B's cache slice saw only B's traffic (its own key preparations);
  // B's admission counters saw only B's submissions.
  EXPECT_EQ(tenant_b.Health().admission.total_shed(), 0u);
  EXPECT_EQ(tenant_b.key_cache()->stats().size, Fixture().keys.size());
}

TEST(TenantTest, TraceSuspectsMatchesRegistrySemantics) {
  TenantContext tenant("acme");
  EscrowAll(tenant);

  FingerprintRegistry reference;
  for (size_t i = 0; i < Fixture().keys.size(); ++i) {
    ASSERT_TRUE(
        reference.Register("buyer-" + std::to_string(i), Fixture().keys[i])
            .ok());
  }
  const auto expected = reference.TraceSuspects(Batch(0, 2));
  const auto actual = tenant.TraceSuspects(Batch(0, 2));
  ASSERT_TRUE(expected.ok()) << expected.status();
  ASSERT_TRUE(actual.ok()) << actual.status();
  ASSERT_EQ(actual.value().size(), expected.value().size());
  for (size_t i = 0; i < expected.value().size(); ++i) {
    EXPECT_EQ(actual.value()[i], expected.value()[i]) << "suspect " << i;
  }
}

}  // namespace
}  // namespace freqywm
