// FaultInjector suite (DESIGN.md §13). The injector's own semantics —
// seeded reproducibility, per-site forcing, keyed order-independence,
// disarm hygiene — hold in every build. The tests that need the fault
// *sites* compiled into product code (the PreparedKeyCache no-tombstone
// regression) are gated on the FREQYWM_FAULT_INJECTION knob and skip
// cleanly in a release configuration.

#include "exec/fault_injection.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/factory.h"
#include "common/random.h"
#include "datagen/power_law.h"
#include "exec/prepared_key_cache.h"

namespace freqywm {
namespace {

/// Every test arms through this fixture so a failing assertion can never
/// leak an armed injector into later tests (or other suites).
class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Global().Disarm(); }
  void TearDown() override { FaultInjector::Global().Disarm(); }
};

TEST_F(FaultInjectionTest, DisarmedChecksAlwaysPass) {
  auto& injector = FaultInjector::Global();
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(injector.Check("registry_io/write").ok());
    EXPECT_TRUE(injector.CheckKeyed("thread_pool/shard", i).ok());
  }
}

TEST_F(FaultInjectionTest, SeededScheduleIsReproducible) {
  auto& injector = FaultInjector::Global();
  auto schedule = [&](uint64_t seed) {
    injector.ArmSeeded(seed, 3);
    std::vector<bool> failed;
    for (int i = 0; i < 200; ++i) {
      failed.push_back(!injector.Check("session/prepare").ok());
    }
    return failed;
  };
  std::vector<bool> first = schedule(42);
  std::vector<bool> second = schedule(42);
  EXPECT_EQ(first, second);

  // With rate 1-in-3 over 200 hits, some must fail and some must pass.
  size_t failures = 0;
  for (bool f : first) failures += f ? 1 : 0;
  EXPECT_GT(failures, 0u);
  EXPECT_LT(failures, first.size());

  // A different seed yields a different schedule (astronomically likely).
  std::vector<bool> other = schedule(43);
  EXPECT_NE(first, other);
}

TEST_F(FaultInjectionTest, SeededSchedulesDifferPerSite) {
  auto& injector = FaultInjector::Global();
  injector.ArmSeeded(7, 2);
  std::vector<bool> site_a, site_b;
  for (int i = 0; i < 100; ++i) {
    site_a.push_back(!injector.Check("registry_io/write").ok());
  }
  for (int i = 0; i < 100; ++i) {
    site_b.push_back(!injector.Check("registry_io/fsync").ok());
  }
  EXPECT_NE(site_a, site_b);
}

TEST_F(FaultInjectionTest, KeyedDecisionIndependentOfArrivalOrder) {
  // The keyed form must give work unit k the same fate no matter when or
  // how often other units hit the site — that is what makes the fault
  // schedule thread-count independent.
  auto& injector = FaultInjector::Global();
  injector.ArmSeeded(99, 3);
  std::vector<bool> ascending;
  for (uint64_t k = 0; k < 64; ++k) {
    ascending.push_back(!injector.CheckKeyed("session/detect_cell", k).ok());
  }
  injector.ArmSeeded(99, 3);  // fresh arming, different arrival order
  std::vector<bool> descending(64);
  for (uint64_t k = 64; k-- > 0;) {
    descending[k] = !injector.CheckKeyed("session/detect_cell", k).ok();
  }
  EXPECT_EQ(ascending, descending);
}

TEST_F(FaultInjectionTest, FailNextHitsCountsDown) {
  auto& injector = FaultInjector::Global();
  injector.FailNextHits("registry_io/rename", 2);
  Status first = injector.Check("registry_io/rename");
  Status second = injector.Check("registry_io/rename");
  Status third = injector.Check("registry_io/rename");
  EXPECT_EQ(first.code(), StatusCode::kUnavailable);
  EXPECT_NE(first.message().find("registry_io/rename"), std::string::npos);
  EXPECT_EQ(second.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(third.ok());
  // Other sites are untouched by the forcing.
  injector.FailNextHits("registry_io/rename", 1);
  EXPECT_TRUE(injector.Check("registry_io/fsync").ok());
}

TEST_F(FaultInjectionTest, DisarmClearsForcedAndSeededState) {
  auto& injector = FaultInjector::Global();
  injector.ArmSeeded(1, 1);  // fail every hit
  injector.FailNextHits("registry_io/write", 100);
  EXPECT_FALSE(injector.Check("registry_io/write").ok());
  injector.Disarm();
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(injector.Check("registry_io/write").ok());
    EXPECT_TRUE(injector.CheckKeyed("thread_pool/shard", i).ok());
  }
}

TEST_F(FaultInjectionTest, RateOneFailsEveryHit) {
  auto& injector = FaultInjector::Global();
  injector.ArmSeeded(5, 1);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(injector.Check("session/prepare").code(),
              StatusCode::kUnavailable);
  }
}

// ------------------------------------------------- knob-gated site tests

#if defined(FREQYWM_FAULT_INJECTION)

SchemeKey MakeFreqywmKey(uint64_t seed) {
  Rng rng(seed);
  PowerLawSpec spec;
  spec.num_tokens = 120;
  spec.sample_size = 40000;
  Histogram original = GeneratePowerLawHistogram(spec, rng);
  OptionBag bag;
  bag.Set("seed", std::to_string(seed));
  auto scheme = SchemeFactory::Create("freqywm", bag);
  EXPECT_TRUE(scheme.ok());
  auto outcome = scheme.value()->Embed(original);
  EXPECT_TRUE(outcome.ok()) << outcome.status();
  return outcome.value().key;
}

TEST_F(FaultInjectionTest, CacheFailedPreparationLeavesNoTombstone) {
  // The no-tombstone regression (DESIGN.md §13): a failed preparation
  // must insert nothing, so the very next request for the same key
  // retries and succeeds — a transient fault never poisons the key.
  auto scheme_result = SchemeFactory::Create("freqywm");
  ASSERT_TRUE(scheme_result.ok());
  const WatermarkScheme& scheme = *scheme_result.value();
  SchemeKey key = MakeFreqywmKey(3);

  PreparedKeyCache cache;
  FaultInjector::Global().FailNextHits("prepared_key_cache/prepare", 1);
  auto failed = cache.TryGetOrPrepare(scheme, key);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(cache.size(), 0u);  // no tombstone, no negative entry

  auto retried = cache.TryGetOrPrepare(scheme, key);
  ASSERT_TRUE(retried.ok()) << retried.status();
  EXPECT_NE(retried.value(), nullptr);
  EXPECT_EQ(cache.size(), 1u);

  // And it is a real cache entry: the next lookup hits.
  auto hit = cache.Get(key);
  EXPECT_EQ(hit, retried.value());
  PreparedKeyCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);  // the failed attempt and the retry
}

TEST_F(FaultInjectionTest, CacheConcurrentRetryAfterInjectedFailure) {
  // TSan regression companion to the test above: many threads race
  // TryGetOrPrepare while the first hit at the fault site fails. Exactly
  // one thread eats the injected fault; every other thread (and the
  // loser's retry) converges on one shared entry with no data race and
  // no tombstone.
  auto scheme_result = SchemeFactory::Create("freqywm");
  ASSERT_TRUE(scheme_result.ok());
  const WatermarkScheme& scheme = *scheme_result.value();
  SchemeKey key = MakeFreqywmKey(4);

  PreparedKeyCache cache;
  FaultInjector::Global().FailNextHits("prepared_key_cache/prepare", 1);

  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const PreparedKey>> entries(kThreads);
  std::vector<int> failures(kThreads, 0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto result = cache.TryGetOrPrepare(scheme, key);
      if (result.ok()) {
        entries[t] = result.value();
      } else {
        failures[t] = 1;
        auto retry = cache.TryGetOrPrepare(scheme, key);
        if (retry.ok()) entries[t] = retry.value();
      }
    });
  }
  for (auto& th : threads) th.join();

  int failed = 0;
  for (int f : failures) failed += f;
  EXPECT_LE(failed, 1);  // the forcing fires at most once
  EXPECT_EQ(cache.size(), 1u);
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_NE(entries[t], nullptr) << "thread " << t;
  }
}

#else

TEST_F(FaultInjectionTest, SiteTestsRequireFaultInjectionBuild) {
  GTEST_SKIP() << "product fault sites compile away without "
                  "-DFREQYWM_FAULT_INJECTION=ON";
}

#endif  // FREQYWM_FAULT_INJECTION

}  // namespace
}  // namespace freqywm
