// PreparedKeyCache unit + concurrency suite (ISSUE 5): LRU semantics,
// fingerprint injectivity, eviction safety through borrowed shared_ptrs,
// and TSan-clean concurrent hit/miss/evict under contention (the suite is
// part of the ThreadSanitizer CI job's regex).

#include "exec/prepared_key_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/factory.h"
#include "common/random.h"
#include "datagen/power_law.h"

namespace freqywm {
namespace {

Histogram MakeCleanHistogram(uint64_t seed) {
  Rng rng(seed);
  PowerLawSpec spec;
  spec.num_tokens = 120;
  spec.sample_size = 60000;
  spec.alpha = 0.6;
  return GeneratePowerLawHistogram(spec, rng);
}

/// A FreqyWM key embedded with `seed` (real prepared state: the modulus
/// table), plus the scheme to prepare/detect with.
struct Escrowed {
  std::unique_ptr<WatermarkScheme> scheme;
  SchemeKey key;
  Histogram copy;
};

Escrowed MakeEscrowed(uint64_t seed, const Histogram& original) {
  OptionBag bag;
  bag.Set("seed", std::to_string(seed));
  bag.Set("strategy", "greedy");
  auto scheme = SchemeFactory::Create("freqywm", bag);
  EXPECT_TRUE(scheme.ok()) << scheme.status();
  auto outcome = scheme.value()->Embed(original);
  EXPECT_TRUE(outcome.ok()) << outcome.status();
  return Escrowed{std::move(scheme).value(), outcome.value().key,
                  std::move(outcome).value().watermarked};
}

TEST(PreparedKeyCacheTest, FingerprintSeparatesSchemeFromPayload) {
  // Length framing: moving bytes across the scheme/payload boundary must
  // change the digest, and so must each field independently.
  std::string ab_c = PreparedKeyCache::Fingerprint(SchemeKey{"ab", "c"});
  std::string a_bc = PreparedKeyCache::Fingerprint(SchemeKey{"a", "bc"});
  std::string a_cb = PreparedKeyCache::Fingerprint(SchemeKey{"a", "cb"});
  std::string b_bc = PreparedKeyCache::Fingerprint(SchemeKey{"b", "bc"});
  EXPECT_NE(ab_c, a_bc);
  EXPECT_NE(a_bc, a_cb);
  EXPECT_NE(a_bc, b_bc);
  EXPECT_EQ(a_bc, PreparedKeyCache::Fingerprint(SchemeKey{"a", "bc"}));
}

TEST(PreparedKeyCacheTest, GetOrPrepareHitsShareOneObject) {
  Histogram original = MakeCleanHistogram(11);
  Escrowed escrowed = MakeEscrowed(101, original);
  PreparedKeyCache cache(4);

  auto first = cache.TryGetOrPrepare(*escrowed.scheme, escrowed.key).value();
  auto second = cache.TryGetOrPrepare(*escrowed.scheme, escrowed.key).value();
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first.get(), second.get());

  PreparedKeyCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.size, 1u);
  EXPECT_EQ(stats.evictions, 0u);
}

TEST(PreparedKeyCacheTest, GetNeverPrepares) {
  Histogram original = MakeCleanHistogram(12);
  Escrowed escrowed = MakeEscrowed(102, original);
  PreparedKeyCache cache(4);
  EXPECT_EQ(cache.Get(escrowed.key), nullptr);
  EXPECT_EQ(cache.size(), 0u);
  auto prepared = cache.TryGetOrPrepare(*escrowed.scheme, escrowed.key).value();
  EXPECT_EQ(cache.Get(escrowed.key).get(), prepared.get());
}

TEST(PreparedKeyCacheTest, EvictsLeastRecentlyUsed) {
  Histogram original = MakeCleanHistogram(13);
  std::vector<Escrowed> escrowed;
  for (uint64_t seed : {201, 202, 203}) {
    escrowed.push_back(MakeEscrowed(seed, original));
  }
  PreparedKeyCache cache(2);
  auto p0 = cache.TryGetOrPrepare(*escrowed[0].scheme, escrowed[0].key).value();
  auto p1 = cache.TryGetOrPrepare(*escrowed[1].scheme, escrowed[1].key).value();
  // Touch key 0 so key 1 is the LRU victim when key 2 arrives.
  EXPECT_NE(cache.Get(escrowed[0].key), nullptr);
  auto p2 = cache.TryGetOrPrepare(*escrowed[2].scheme, escrowed[2].key).value();

  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.Get(escrowed[1].key), nullptr);  // evicted
  EXPECT_NE(cache.Get(escrowed[0].key), nullptr);
  EXPECT_NE(cache.Get(escrowed[2].key), nullptr);

  // The evicted entry stays alive and usable through the borrowed pointer:
  // detection through it equals a fresh key-path Detect.
  DetectOptions options =
      escrowed[1].scheme->RecommendedDetectOptions(escrowed[1].key);
  DetectResult via_evicted = p1->Detect(escrowed[1].copy, options);
  DetectResult via_key =
      escrowed[1].scheme->Detect(escrowed[1].copy, escrowed[1].key, options);
  EXPECT_TRUE(via_evicted == via_key);
  EXPECT_TRUE(via_evicted.accepted);
}

TEST(PreparedKeyCacheTest, CapacityFloorIsOne) {
  Histogram original = MakeCleanHistogram(14);
  Escrowed escrowed = MakeEscrowed(301, original);
  PreparedKeyCache cache(0);
  EXPECT_EQ(cache.capacity(), 1u);
  EXPECT_NE(cache.TryGetOrPrepare(*escrowed.scheme, escrowed.key).value(),
            nullptr);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(PreparedKeyCacheTest, CachedStateIsPureFunctionOfKey) {
  // Two differently configured scheme instances must resolve the same key
  // to interchangeable prepared state (the cache-sharing contract).
  Histogram original = MakeCleanHistogram(16);
  Escrowed escrowed = MakeEscrowed(501, original);
  OptionBag other_config;
  other_config.Set("budget", "5.0");
  other_config.Set("z", "257");
  auto other = SchemeFactory::Create("freqywm", other_config);
  ASSERT_TRUE(other.ok()) << other.status();

  PreparedKeyCache cache(4);
  auto via_other = cache.TryGetOrPrepare(*other.value(), escrowed.key).value();
  // The embedding scheme now hits the entry prepared by the other config.
  auto via_embedder =
      cache.TryGetOrPrepare(*escrowed.scheme, escrowed.key).value();
  EXPECT_EQ(via_other.get(), via_embedder.get());

  DetectOptions options =
      escrowed.scheme->RecommendedDetectOptions(escrowed.key);
  DetectResult via_cache = via_embedder->Detect(escrowed.copy, options);
  DetectResult via_key =
      escrowed.scheme->Detect(escrowed.copy, escrowed.key, options);
  EXPECT_TRUE(via_cache == via_key);
  EXPECT_TRUE(via_cache.accepted);
}

TEST(PreparedKeyCacheTest, StatsCountEveryLookupPathExactly) {
  // Regression for the health-snapshot wiring (DESIGN.md §14): the
  // `hits + misses == lookups` ledger must hold across both lookup paths
  // — Get and TryGetOrPrepare — so the overload bench's cache gauges are
  // trustworthy.
  Histogram original = MakeCleanHistogram(55);
  Escrowed a = MakeEscrowed(811, original);
  Escrowed b = MakeEscrowed(812, original);
  PreparedKeyCache cache(8);

  // a: miss, miss+insert, hit. b: miss+insert, hit, hit.
  EXPECT_EQ(cache.Get(a.key), nullptr);
  EXPECT_NE(cache.TryGetOrPrepare(*a.scheme, a.key).value(), nullptr);
  EXPECT_NE(cache.TryGetOrPrepare(*a.scheme, a.key).value(), nullptr);
  auto tried = cache.TryGetOrPrepare(*b.scheme, b.key);
  ASSERT_TRUE(tried.ok());
  tried = cache.TryGetOrPrepare(*b.scheme, b.key);
  ASSERT_TRUE(tried.ok());
  EXPECT_NE(cache.Get(b.key), nullptr);

  PreparedKeyCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.hits + stats.misses, 6u);
  EXPECT_EQ(stats.size, 2u);
  EXPECT_EQ(stats.evictions, 0u);
}

TEST(PreparedKeyCacheTest, StatsSnapshotIsConsistentUnderConcurrentTraffic) {
  // The snapshot is taken under the cache lock: a reader polling stats
  // while writers churn must never observe hits + misses exceeding the
  // number of lookups issued so far, nor size above capacity.
  Histogram original = MakeCleanHistogram(56);
  std::vector<Escrowed> keys;
  for (uint64_t seed : {821, 822, 823}) {
    keys.push_back(MakeEscrowed(seed, original));
  }
  PreparedKeyCache cache(2);  // forces evictions
  constexpr size_t kWriters = 4;
  constexpr size_t kIters = 300;

  std::atomic<bool> done{false};
  std::thread reader([&] {
    while (!done.load()) {
      PreparedKeyCacheStats snap = cache.stats();
      EXPECT_LE(snap.hits + snap.misses, kWriters * kIters);
      EXPECT_LE(snap.size, cache.capacity());
    }
  });
  std::vector<std::thread> writers;
  for (size_t t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t] {
      for (size_t i = 0; i < kIters; ++i) {
        const Escrowed& e = keys[(t + i) % keys.size()];
        EXPECT_NE(cache.TryGetOrPrepare(*e.scheme, e.key).value(), nullptr);
      }
    });
  }
  for (std::thread& w : writers) w.join();
  done.store(true);
  reader.join();

  PreparedKeyCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, kWriters * kIters);
  EXPECT_GE(stats.evictions, 1u);
}

TEST(PreparedKeyCacheTest, ConcurrentHitMissEvictUnderContention) {
  // More keys than capacity, hammered from several threads: every lookup
  // must return usable prepared state for exactly its key, the counters
  // must add up, and the run must be TSan-clean (the CI job runs this
  // suite under -fsanitize=thread).
  Histogram original = MakeCleanHistogram(17);
  constexpr size_t kKeys = 6;
  constexpr size_t kThreads = 4;
  constexpr size_t kItersPerThread = 40;
  std::vector<Escrowed> escrowed;
  for (size_t k = 0; k < kKeys; ++k) {
    escrowed.push_back(MakeEscrowed(600 + k, original));
  }

  PreparedKeyCache cache(kKeys / 2);  // forces steady-state eviction
  std::vector<int> failures(kThreads, 0);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = 0; i < kItersPerThread; ++i) {
        const Escrowed& e = escrowed[(t + i) % kKeys];
        auto prepared = cache.TryGetOrPrepare(*e.scheme, e.key).value();
        if (prepared == nullptr || !(prepared->key() == e.key)) {
          ++failures[t];
          continue;
        }
        DetectOptions options = e.scheme->RecommendedDetectOptions(e.key);
        DetectResult result = prepared->Detect(e.copy, options);
        if (!result.accepted) ++failures[t];
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[t], 0) << "thread " << t;
  }
  PreparedKeyCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, kThreads * kItersPerThread);
  EXPECT_LE(stats.size, cache.capacity());
  EXPECT_GE(stats.misses, kKeys);  // each key missed at least once
}

}  // namespace
}  // namespace freqywm
