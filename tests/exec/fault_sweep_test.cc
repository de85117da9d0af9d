// Seed-sweep fault harness (ISSUE 8 acceptance criterion): for every
// sweep seed, arm pseudo-random faults across ALL sites at once and run
// the failure-domain workload — a session drain, a registry trace,
// prepared-key cache traffic, and a registry save/load cycle. Every
// operation must either produce output byte-identical to the clean
// (disarmed) run or fail with a typed non-OK status. No crash, no hang,
// no leak (the CI job runs this under ASan and TSan), no silently wrong
// answer. Gated on the
// FREQYWM_FAULT_INJECTION knob; skips in a release configuration.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

#include "analysis/durable_registry.h"
#include "analysis/registry.h"
#include "analysis/tenant.h"
#include "api/factory.h"
#include "common/random.h"
#include "datagen/power_law.h"
#include "exec/batch_detector.h"
#include "exec/cancellation.h"
#include "exec/fault_injection.h"
#include "exec/prepared_key_cache.h"

namespace freqywm {
namespace {

#if defined(FREQYWM_FAULT_INJECTION)

constexpr uint64_t kSweepSeeds = 64;
constexpr uint32_t kFailOneIn = 3;

Histogram MakeHistogram(uint64_t seed) {
  Rng rng(seed);
  PowerLawSpec spec;
  spec.num_tokens = 150;
  spec.sample_size = 60000;
  spec.alpha = 0.6;
  return GeneratePowerLawHistogram(spec, rng);
}

/// Everything the sweep needs, built once with the injector disarmed:
/// the embedded keys, the suspect set, and the clean reference outputs.
struct SweepFixture {
  std::vector<SchemeKey> keys;
  std::vector<Histogram> suspects;
  std::vector<std::vector<DetectResult>> clean_verdicts;
  FingerprintRegistry registry;
  std::vector<std::vector<TraceMatch>> clean_trace;
  std::string clean_serialized;

  SweepFixture() {
    FaultInjector::Global().Disarm();
    Histogram original = MakeHistogram(21);
    for (const char* name : {"freqywm", "wm-rvs"}) {
      OptionBag bag;
      bag.Set("seed", std::to_string(301 + keys.size()));
      auto scheme = SchemeFactory::Create(name, bag);
      EXPECT_TRUE(scheme.ok());
      auto outcome = scheme.value()->Embed(original);
      EXPECT_TRUE(outcome.ok()) << outcome.status();
      keys.push_back(outcome.value().key);
      suspects.push_back(outcome.value().watermarked);
    }
    suspects.push_back(original);

    BatchDetectOptions options;
    options.num_threads = 2;
    BatchDetector::Session session(options, keys);
    session.AddSuspects(suspects);
    clean_verdicts = session.DrainChecked(InterruptContext{}).verdicts;

    EXPECT_TRUE(registry.Register("sweep-alpha", keys[0]).ok());
    EXPECT_TRUE(registry.Register("sweep-beta", keys[1]).ok());
    auto traced = registry.TraceSuspects(suspects);
    EXPECT_TRUE(traced.ok()) << traced.status();
    if (traced.ok()) clean_trace = traced.value();
    clean_serialized = registry.Serialize();
  }
};

const SweepFixture& Fixture() {
  static const SweepFixture* fixture = new SweepFixture();
  return *fixture;
}

class FaultSweepTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Global().Disarm(); }
  void TearDown() override { FaultInjector::Global().Disarm(); }
};

TEST_F(FaultSweepTest, SessionDrainUnderSweptFaults) {
  const SweepFixture& fx = Fixture();
  for (uint64_t seed = 0; seed < kSweepSeeds; ++seed) {
    FaultInjector::Global().ArmSeeded(seed, kFailOneIn);
    BatchDetectOptions options;
    options.num_threads = 2;
    options.key_cache = std::make_shared<PreparedKeyCache>();
    BatchDetector::Session session(options, fx.keys);
    session.AddSuspects(fx.suspects);
    SessionDrainResult result = session.DrainChecked(InterruptContext{});
    FaultInjector::Global().Disarm();

    // Drain-level: OK or a typed injected fault that escaped through a
    // shard/prepare boundary. Nothing else is acceptable.
    if (!result.status.ok()) {
      EXPECT_EQ(result.status.code(), StatusCode::kUnavailable)
          << "seed " << seed << ": " << result.status;
      continue;
    }
    ASSERT_EQ(result.verdicts.size(), fx.suspects.size()) << "seed " << seed;
    for (size_t j = 0; j < fx.keys.size(); ++j) {
      const Status& ks = result.key_status[j];
      if (!ks.ok()) {
        EXPECT_EQ(ks.code(), StatusCode::kUnavailable)
            << "seed " << seed << " key " << j << ": " << ks;
      }
    }
    for (const SessionCellError& e : result.cell_errors) {
      EXPECT_EQ(e.status.code(), StatusCode::kUnavailable)
          << "seed " << seed;
    }
    // The core sweep invariant: every evaluated cell is byte-identical
    // to the clean run — a fault may suppress a cell, never skew it.
    for (size_t i = 0; i < fx.suspects.size(); ++i) {
      for (size_t j = 0; j < fx.keys.size(); ++j) {
        if (result.evaluated[i * fx.keys.size() + j] == 0) continue;
        EXPECT_TRUE(result.verdicts[i][j] == fx.clean_verdicts[i][j])
            << "seed " << seed << " cell (" << i << "," << j << ")";
      }
    }
  }
}

TEST_F(FaultSweepTest, TraceSuspectsUnderSweptFaults) {
  // A trace returns its session's first failure — a failed drain, a
  // failed cell, or a key that failed to prepare — as its error, so an
  // injected fault can never pass as "no match": every trace equals the
  // clean one or fails with the injected, typed kUnavailable.
  const SweepFixture& fx = Fixture();
  ASSERT_EQ(fx.clean_trace.size(), fx.suspects.size());
  size_t failed = 0;
  for (uint64_t seed = 0; seed < kSweepSeeds; ++seed) {
    FaultInjector::Global().ArmSeeded(seed, kFailOneIn);
    BatchDetectOptions options;
    options.num_threads = 2;
    options.key_cache = std::make_shared<PreparedKeyCache>();
    auto traced = fx.registry.TraceSuspects(fx.suspects, options);
    FaultInjector::Global().Disarm();

    if (!traced.ok()) {
      EXPECT_EQ(traced.status().code(), StatusCode::kUnavailable)
          << "seed " << seed << ": " << traced.status();
      ++failed;
      continue;
    }
    EXPECT_TRUE(traced.value() == fx.clean_trace) << "seed " << seed;
  }
  // The sweep reached the error path: faults surface, not vanish.
  EXPECT_GT(failed, 0u);
}

TEST_F(FaultSweepTest, PreparedKeyCacheUnderSweptFaults) {
  const SweepFixture& fx = Fixture();
  auto scheme_result = SchemeFactory::Create("freqywm");
  ASSERT_TRUE(scheme_result.ok());
  const WatermarkScheme& scheme = *scheme_result.value();
  for (uint64_t seed = 0; seed < kSweepSeeds; ++seed) {
    FaultInjector::Global().ArmSeeded(seed, kFailOneIn);
    PreparedKeyCache cache(4);
    size_t successes = 0;
    for (int round = 0; round < 6; ++round) {
      auto entry = cache.TryGetOrPrepare(scheme, fx.keys[0]);
      if (entry.ok()) {
        EXPECT_NE(entry.value(), nullptr) << "seed " << seed;
        ++successes;
      } else {
        EXPECT_EQ(entry.status().code(), StatusCode::kUnavailable)
            << "seed " << seed << ": " << entry.status();
        // No tombstone: a failure leaves nothing cached for this key.
      }
    }
    FaultInjector::Global().Disarm();
    // After disarming, the same cache serves the key unconditionally.
    auto entry = cache.TryGetOrPrepare(scheme, fx.keys[0]);
    ASSERT_TRUE(entry.ok()) << "seed " << seed << ": " << entry.status();
    (void)successes;
  }
}

TEST_F(FaultSweepTest, AdmissionAndTenantPathUnderSweptFaults) {
  // Sweeps the admission and tenancy sites — admission/acquire,
  // tenant/quota — through the tenant-fronted submit/drain path. Sweep
  // invariants: every failure is typed (kUnavailable injections or the
  // quota/shed taxonomy), the unit accounting balances (drained rows ==
  // admitted suspects, in-flight returns to zero), and every evaluated
  // cell matches the clean run byte for byte.
  const SweepFixture& fx = Fixture();
  for (uint64_t seed = 0; seed < kSweepSeeds; ++seed) {
    FaultInjector::Global().Disarm();
    TenantQuotas quotas;
    quotas.max_escrowed_keys = fx.keys.size();
    quotas.max_in_flight_suspects = fx.suspects.size();
    quotas.max_pending_suspects = fx.suspects.size();
    TenantContext tenant("sweep", quotas);
    ASSERT_TRUE(tenant.Escrow("sweep-alpha", fx.keys[0]).ok());
    ASSERT_TRUE(tenant.Escrow("sweep-beta", fx.keys[1]).ok());

    FaultInjector::Global().ArmSeeded(seed, kFailOneIn);
    // tenant/quota fires inside Escrow: the over-quota attempt must be
    // typed either way — an injected kUnavailable or the quota's
    // kResourceExhausted — and never register partially.
    Status extra = tenant.Escrow("sweep-gamma", fx.keys[0]);
    ASSERT_FALSE(extra.ok()) << "seed " << seed;
    EXPECT_TRUE(extra.code() == StatusCode::kUnavailable ||
                extra.code() == StatusCode::kResourceExhausted)
        << "seed " << seed << ": " << extra;
    EXPECT_EQ(tenant.escrowed_keys(), fx.keys.size()) << "seed " << seed;

    auto session = tenant.OpenSession(2);
    ASSERT_TRUE(session.ok()) << "seed " << seed << ": " << session.status();
    uint64_t admitted = 0;
    for (const Histogram& suspect : fx.suspects) {
      Status submitted =
          session.value()->TrySubmit(std::vector<Histogram>{suspect});
      if (submitted.ok()) {
        ++admitted;
      } else {
        EXPECT_TRUE(submitted.code() == StatusCode::kUnavailable ||
                    submitted.code() == StatusCode::kResourceExhausted)
            << "seed " << seed << ": " << submitted;
      }
    }
    SessionDrainResult result =
        session.value()->DrainChecked(InterruptContext{});
    FaultInjector::Global().Disarm();

    if (!result.status.ok()) {
      EXPECT_EQ(result.status.code(), StatusCode::kUnavailable)
          << "seed " << seed << ": " << result.status;
      continue;
    }
    EXPECT_EQ(result.verdicts.size(), admitted) << "seed " << seed;
    // Accounting balance: every admitted unit returned by the drain.
    // A submission that clears admission always enqueues, so the
    // cumulative admitted counter equals the successful-submit count,
    // and the in-flight gauge must drain to zero.
    EXPECT_EQ(tenant.Health().admission.in_flight, 0u) << "seed " << seed;
    EXPECT_EQ(tenant.Health().admission.admitted, admitted)
        << "seed " << seed;

    // Identity: every evaluated cell of every drained row must be
    // byte-identical to SOME clean verdict row's cell set (which
    // suspects were admitted varies with the fault schedule, so
    // membership is free — the bytes of admitted work are not).
    for (size_t r = 0; r < result.verdicts.size(); ++r) {
      bool matches_some_clean_row = false;
      for (size_t i = 0; i < fx.suspects.size() && !matches_some_clean_row;
           ++i) {
        bool all_match = true;
        for (size_t j = 0; j < fx.keys.size(); ++j) {
          if (result.evaluated[r * fx.keys.size() + j] == 0) continue;
          if (!(result.verdicts[r][j] == fx.clean_verdicts[i][j])) {
            all_match = false;
            break;
          }
        }
        matches_some_clean_row = all_match;
      }
      EXPECT_TRUE(matches_some_clean_row)
          << "seed " << seed << " drained row " << r
          << " matches no clean verdict row";
    }
  }
}

TEST_F(FaultSweepTest, RegistryPersistenceUnderSweptFaults) {
  const SweepFixture& fx = Fixture();
  const std::string path =
      ::testing::TempDir() + "fault_sweep_registry_snapshot_" +
      std::to_string(::getpid());
  // Publish a known-good snapshot first: the sweep then asserts the
  // kill-during-save guarantee — the path NEVER stops being loadable.
  ASSERT_TRUE(fx.registry.SaveToFile(path).ok());
  for (uint64_t seed = 0; seed < kSweepSeeds; ++seed) {
    FaultInjector::Global().ArmSeeded(seed, kFailOneIn);
    Status saved = fx.registry.SaveToFile(path);
    auto loaded = FingerprintRegistry::LoadFromFile(path);
    FaultInjector::Global().Disarm();

    if (!saved.ok()) {
      EXPECT_EQ(saved.code(), StatusCode::kUnavailable)
          << "seed " << seed << ": " << saved;
    }
    // The load may itself have eaten an injected read fault; that is the
    // one typed escape. Any successful load must be byte-identical to
    // the clean registry — old or new snapshot, both serialize the same.
    if (loaded.ok()) {
      EXPECT_EQ(loaded.value().Serialize(), fx.clean_serialized)
          << "seed " << seed;
    } else {
      EXPECT_EQ(loaded.status().code(), StatusCode::kUnavailable)
          << "seed " << seed << ": " << loaded.status();
    }
    // With faults cleared the snapshot is always loadable — no schedule
    // of injected failures may leave a torn or missing file behind.
    auto verify = FingerprintRegistry::LoadFromFile(path);
    ASSERT_TRUE(verify.ok()) << "seed " << seed << ": " << verify.status();
    EXPECT_EQ(verify.value().Serialize(), fx.clean_serialized)
        << "seed " << seed;
  }
  std::remove(path.c_str());
}

TEST_F(FaultSweepTest, DurableRegistryUnderSweptFaults) {
  // Sweeps the ISSUE 10 sites — wal/append, wal/fsync, wal/rotate,
  // checkpoint/publish, plus the registry_io/* sites the checkpoint
  // reuses — through the WAL-before-ack escrow path with a checkpoint
  // threshold small enough that publish/rotate runs inside the sweep.
  // Sweep invariants: every failure is typed, and after the simulated
  // crash (dropping the instance) recovery loads a valid registry that
  // contains every acknowledged record and nothing never submitted
  // (tests/analysis/durable_registry_test.cc pins the per-site
  // contracts; this is the all-sites-at-once schedule).
  constexpr size_t kAttempts = 12;
  for (uint64_t seed = 0; seed < kSweepSeeds; ++seed) {
    const std::string dir = ::testing::TempDir() + "fault_sweep_durable_" +
                            std::to_string(::getpid()) + "_" +
                            std::to_string(seed);
    ::mkdir(dir.c_str(), 0755);
    DurableRegistryOptions options;
    options.checkpoint_threshold_bytes = 160;
    auto opened = DurableRegistry::Open(dir, options);
    ASSERT_TRUE(opened.ok()) << "seed " << seed << ": " << opened.status();

    FaultInjector::Global().ArmSeeded(seed, kFailOneIn);
    std::vector<std::string> acked;
    for (size_t i = 0; i < kAttempts; ++i) {
      const std::string buyer = "sweep-buyer-" + std::to_string(i);
      Status status = opened.value()->Register(
          buyer, SchemeKey{"wm-custom", "payload-" + std::to_string(i)});
      if (status.ok()) {
        acked.push_back(buyer);
      } else {
        EXPECT_EQ(status.code(), StatusCode::kUnavailable)
            << "seed " << seed << " attempt " << i << ": " << status;
      }
    }
    opened.value().reset();  // crash point
    FaultInjector::Global().Disarm();

    auto recovered = DurableRegistry::Open(dir);
    ASSERT_TRUE(recovered.ok()) << "seed " << seed << ": "
                                << recovered.status();
    const FingerprintRegistry registry = recovered.value()->Snapshot();
    for (const std::string& buyer : acked) {
      EXPECT_TRUE(registry.Contains(buyer))
          << "seed " << seed << ": lost acked " << buyer;
    }
    for (const FingerprintRecord& record : registry.records()) {
      EXPECT_EQ(record.buyer_id.rfind("sweep-buyer-", 0), 0u)
          << "seed " << seed << ": phantom " << record.buyer_id;
    }
    std::remove(DurableRegistry::SnapshotPath(dir).c_str());
    std::remove(DurableRegistry::WalPath(dir).c_str());
    ::rmdir(dir.c_str());
  }
}

#else

TEST(FaultSweepTest, RequiresFaultInjectionBuild) {
  GTEST_SKIP() << "seed sweep needs -DFREQYWM_FAULT_INJECTION=ON";
}

#endif  // FREQYWM_FAULT_INJECTION

}  // namespace
}  // namespace freqywm
