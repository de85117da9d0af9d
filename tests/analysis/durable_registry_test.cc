// DurableRegistry suite (DESIGN.md §15): WAL-before-ack recovery with
// and without a checkpoint, idempotent replay over the checkpoint/rotate
// crash window, auto-checkpointing, validation ordering (rejections log
// nothing), gauges — and, knob-gated, the crash-recovery invariant under
// both the 64-seed all-site sweep and a targeted kill at every I/O site:
// recovery always yields a valid registry containing every acknowledged
// record (fsync=every), never a corrupt registry, never a lost ack.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

#include <fstream>
#include <sstream>

#include "analysis/durable_registry.h"
#include "analysis/registry.h"
#include "analysis/tenant.h"
#include "exec/fault_injection.h"

namespace freqywm {
namespace {

// Unique per test and per process: suites run at once on one host (two
// build trees, say) share the temp directory.
std::string UniqueDir(const std::string& name) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string dir = ::testing::TempDir() + "durable_" +
                    std::to_string(::getpid()) + "_" +
                    std::string(info->name()) + "_" + name;
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

void RemoveDir(const std::string& dir) {
  std::remove(DurableRegistry::SnapshotPath(dir).c_str());
  std::remove(DurableRegistry::WalPath(dir).c_str());
  ::rmdir(dir.c_str());
}

SchemeKey KeyFor(size_t i) {
  return SchemeKey{"wm-custom", "payload-" + std::to_string(i)};
}

std::string BuyerFor(size_t i) { return "buyer-" + std::to_string(i); }

// Used by the knob-gated fault suite only; unused in plain builds.
[[maybe_unused]] std::set<std::string> BuyerIds(
    const FingerprintRegistry& registry) {
  std::set<std::string> ids;
  for (const FingerprintRecord& record : registry.records()) {
    ids.insert(record.buyer_id);
  }
  return ids;
}

TEST(DurableRegistryTest, OpensEmptyAndRecoversWalOnlyRegistrations) {
  const std::string dir = UniqueDir("wal_only");
  {
    auto opened = DurableRegistry::Open(dir);
    ASSERT_TRUE(opened.ok()) << opened.status();
    EXPECT_EQ(opened.value()->size(), 0u);
    EXPECT_FALSE(opened.value()->open_stats().snapshot_loaded);
    for (size_t i = 0; i < 5; ++i) {
      ASSERT_TRUE(opened.value()->Register(BuyerFor(i), KeyFor(i)).ok());
    }
  }
  // No checkpoint ever ran: recovery is pure WAL replay.
  auto reopened = DurableRegistry::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(reopened.value()->size(), 5u);
  EXPECT_FALSE(reopened.value()->open_stats().snapshot_loaded);
  EXPECT_EQ(reopened.value()->open_stats().records_replayed, 5u);
  EXPECT_EQ(reopened.value()->open_stats().duplicates_skipped, 0u);
  const FingerprintRegistry snapshot = reopened.value()->Snapshot();
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_TRUE(snapshot.Contains(BuyerFor(i))) << i;
    EXPECT_EQ(snapshot.records()[i].key, KeyFor(i)) << i;
  }
  RemoveDir(dir);
}

TEST(DurableRegistryTest, CheckpointPublishesSnapshotAndRotatesWal) {
  const std::string dir = UniqueDir("checkpoint");
  {
    auto opened = DurableRegistry::Open(dir);
    ASSERT_TRUE(opened.ok()) << opened.status();
    for (size_t i = 0; i < 4; ++i) {
      ASSERT_TRUE(opened.value()->Register(BuyerFor(i), KeyFor(i)).ok());
    }
    ASSERT_TRUE(opened.value()->Checkpoint().ok());
    EXPECT_EQ(opened.value()->gauges().checkpoints_published, 1u);
    EXPECT_EQ(opened.value()->gauges().wal_records_since_checkpoint, 0u);
    // Post-checkpoint registrations land in the rotated WAL.
    ASSERT_TRUE(opened.value()->Register(BuyerFor(4), KeyFor(4)).ok());
    EXPECT_EQ(opened.value()->gauges().wal_records_since_checkpoint, 1u);
  }
  auto reopened = DurableRegistry::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(reopened.value()->size(), 5u);
  EXPECT_TRUE(reopened.value()->open_stats().snapshot_loaded);
  // Only the post-checkpoint record replays; the rest came from the
  // snapshot.
  EXPECT_EQ(reopened.value()->open_stats().records_replayed, 1u);
  EXPECT_EQ(reopened.value()->open_stats().duplicates_skipped, 0u);
  RemoveDir(dir);
}

TEST(DurableRegistryTest, AutoCheckpointFiresOnThreshold) {
  const std::string dir = UniqueDir("auto");
  DurableRegistryOptions options;
  options.checkpoint_threshold_bytes = 256;  // a few records
  auto opened = DurableRegistry::Open(dir, options);
  ASSERT_TRUE(opened.ok()) << opened.status();
  for (size_t i = 0; i < 32; ++i) {
    ASSERT_TRUE(opened.value()->Register(BuyerFor(i), KeyFor(i)).ok());
  }
  const DurabilityGauges gauges = opened.value()->gauges();
  EXPECT_GE(gauges.checkpoints_published, 1u);
  EXPECT_EQ(gauges.checkpoint_failures, 0u);
  // The WAL never grows far past the threshold: each crossing rotates.
  EXPECT_LT(gauges.wal_size_bytes, 2 * 256 + 128);
  // And the published snapshot alone already covers the checkpointed
  // prefix.
  auto snapshot =
      FingerprintRegistry::LoadFromFile(DurableRegistry::SnapshotPath(dir));
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();
  EXPECT_GT(snapshot.value().size(), 0u);
  RemoveDir(dir);
}

TEST(DurableRegistryTest, RejectionsAreValidatedBeforeLogging) {
  const std::string dir = UniqueDir("reject");
  auto opened = DurableRegistry::Open(dir);
  ASSERT_TRUE(opened.ok()) << opened.status();
  ASSERT_TRUE(opened.value()->Register("dup", KeyFor(0)).ok());
  const uint64_t size_after_ack = opened.value()->gauges().wal_size_bytes;

  EXPECT_EQ(opened.value()->Register("dup", KeyFor(1)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(opened.value()->Register("", KeyFor(1)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(opened.value()->Register("two\nlines", KeyFor(1)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(opened.value()
                ->Register("ok-id", SchemeKey{"bad scheme", "p"})
                .code(),
            StatusCode::kInvalidArgument);
  // None of the rejections consumed log space.
  EXPECT_EQ(opened.value()->gauges().wal_size_bytes, size_after_ack);
  EXPECT_EQ(opened.value()->size(), 1u);
  RemoveDir(dir);
}

TEST(DurableRegistryTest, RegistrationRoundTripsBinaryPayloads) {
  const std::string dir = UniqueDir("binary");
  const SchemeKey key{"wm-custom",
                      std::string("raw\0bytes\nwith newlines\xff", 24)};
  {
    auto opened = DurableRegistry::Open(dir);
    ASSERT_TRUE(opened.ok()) << opened.status();
    ASSERT_TRUE(opened.value()->Register("binary-buyer", key).ok());
  }
  auto reopened = DurableRegistry::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  const FingerprintRegistry snapshot = reopened.value()->Snapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_EQ(snapshot.records()[0].key, key);
  RemoveDir(dir);
}

TEST(DurableRegistryTest, EncodeDecodeRegistrationRoundTrips) {
  const SchemeKey key{"wm-rvs", std::string("a\nb\0c", 5)};
  auto decoded = DecodeRegistration(EncodeRegistration("buyer x", key));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded.value().buyer_id, "buyer x");
  EXPECT_TRUE(decoded.value().key == key);
  // Malformed payloads are typed Corruption, never applied.
  EXPECT_EQ(DecodeRegistration("no newlines at all").status().code(),
            StatusCode::kCorruption);
  EXPECT_EQ(DecodeRegistration("id-only\n").status().code(),
            StatusCode::kCorruption);
  EXPECT_EQ(DecodeRegistration("\nscheme\npayload").status().code(),
            StatusCode::kCorruption);
}

TEST(DurableRegistryTest, TenantWiringRecoversEscrowAcrossReopen) {
  // The TenantQuotas::durable_dir opt-in end to end: a durable tenant's
  // acknowledged escrows survive dropping the whole TenantContext, the
  // recovered tenant enforces the same duplicate/quota rules, and
  // Health() carries the durability gauges.
  const std::string dir = UniqueDir("tenant");
  TenantQuotas quotas;
  quotas.durable_dir = dir;
  quotas.max_escrowed_keys = 3;
  {
    auto tenant = TenantContext::Open("acme", quotas);
    ASSERT_TRUE(tenant.ok()) << tenant.status();
    ASSERT_TRUE(tenant.value()->Escrow("buyer-a", KeyFor(0)).ok());
    ASSERT_TRUE(tenant.value()->Escrow("buyer-b", KeyFor(1)).ok());
    const EngineHealthSnapshot health = tenant.value()->Health();
    EXPECT_TRUE(health.durability.durable);
    EXPECT_EQ(health.durability.wal_records_since_checkpoint, 2u);
    EXPECT_EQ(health.durability.wal_unsynced_records, 0u);  // fsync=every
  }  // crash: the context (and its in-memory registry) is gone
  auto tenant = TenantContext::Open("acme", quotas);
  ASSERT_TRUE(tenant.ok()) << tenant.status();
  EXPECT_EQ(tenant.value()->escrowed_keys(), 2u);
  EXPECT_EQ(tenant.value()->Health().durability.records_replayed_at_open,
            2u);
  // Recovered state enforces the same rules: duplicate rejected, quota
  // counts the recovered records.
  EXPECT_EQ(tenant.value()->Escrow("buyer-a", KeyFor(0)).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(tenant.value()->Escrow("buyer-c", KeyFor(2)).ok());
  EXPECT_EQ(tenant.value()->Escrow("buyer-d", KeyFor(3)).code(),
            StatusCode::kResourceExhausted);
  RemoveDir(dir);
}

TEST(DurableRegistryTest, TenantOpenSurfacesDamagedStateTyped) {
  // A durable tenant over a damaged snapshot must fail at Open — typed,
  // immediately — and a directly-constructed context must surface the
  // same error on first Escrow instead of silently running in-memory.
  const std::string dir = UniqueDir("tenant_damaged");
  {
    auto registry = DurableRegistry::Open(dir);
    ASSERT_TRUE(registry.ok()) << registry.status();
    ASSERT_TRUE(registry.value()->Register("buyer-a", KeyFor(0)).ok());
    ASSERT_TRUE(registry.value()->Checkpoint().ok());
  }
  // Flip a byte in the published snapshot.
  const std::string snapshot_path = DurableRegistry::SnapshotPath(dir);
  std::string bytes;
  {
    std::ifstream in(snapshot_path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    bytes = buffer.str();
  }
  bytes[bytes.size() / 2] ^= 0x04;
  {
    std::ofstream out(snapshot_path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  TenantQuotas quotas;
  quotas.durable_dir = dir;
  auto tenant = TenantContext::Open("acme", quotas);
  ASSERT_FALSE(tenant.ok());
  EXPECT_EQ(tenant.status().code(), StatusCode::kCorruption);

  TenantContext direct("acme", quotas);
  EXPECT_EQ(direct.Escrow("buyer-b", KeyFor(1)).code(),
            StatusCode::kCorruption);
  EXPECT_EQ(direct.escrowed_keys(), 0u);
  RemoveDir(dir);
}

#if defined(FREQYWM_FAULT_INJECTION)

class DurableRegistryFaultTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Global().Disarm(); }
  void TearDown() override { FaultInjector::Global().Disarm(); }
};

/// Registers `attempts` buyers against `registry`, returning the set of
/// ACKNOWLEDGED ids (non-OK returns are unacked by contract). Failures
/// must be typed, never a crash.
std::set<std::string> RegisterUnderFaults(DurableRegistry& registry,
                                          size_t attempts) {
  std::set<std::string> acked;
  for (size_t i = 0; i < attempts; ++i) {
    Status status = registry.Register(BuyerFor(i), KeyFor(i));
    if (status.ok()) {
      acked.insert(BuyerFor(i));
    } else {
      EXPECT_TRUE(status.code() == StatusCode::kUnavailable ||
                  status.code() == StatusCode::kInvalidArgument)
          << BuyerFor(i) << ": " << status;
    }
  }
  return acked;
}

/// The crash-recovery invariant, checked after the simulated crash:
/// recovery succeeds, every acked record is present, and nothing that
/// was never submitted appears.
void VerifyRecovery(const std::string& dir,
                    const std::set<std::string>& acked, size_t attempts,
                    const std::string& label) {
  auto recovered = DurableRegistry::Open(dir);
  ASSERT_TRUE(recovered.ok()) << label << ": " << recovered.status();
  const FingerprintRegistry snapshot = recovered.value()->Snapshot();
  const std::set<std::string> ids = BuyerIds(snapshot);
  for (const std::string& id : acked) {
    EXPECT_TRUE(ids.count(id) > 0) << label << ": lost acked " << id;
  }
  std::set<std::string> submitted;
  for (size_t i = 0; i < attempts; ++i) submitted.insert(BuyerFor(i));
  for (const std::string& id : ids) {
    EXPECT_TRUE(submitted.count(id) > 0)
        << label << ": phantom record " << id;
  }
  // Recovered keys must be the exact bytes submitted for that buyer.
  for (const FingerprintRecord& record : snapshot.records()) {
    const size_t i = std::stoul(record.buyer_id.substr(6));
    EXPECT_TRUE(record.key == KeyFor(i)) << label << ": " << record.buyer_id;
  }
}

TEST_F(DurableRegistryFaultTest, SweptFaultsNeverLoseAnAckedRecord) {
  // ISSUE 10 acceptance sweep: 64 seeds, faults armed across ALL sites
  // (wal/append, wal/fsync, wal/rotate, checkpoint/publish, every
  // registry_io/* site) at rate 1-in-3, with an auto-checkpoint
  // threshold small enough that the publish/rotate path runs inside the
  // sweep. Crash = dropping the instance mid-stream; recovery must
  // yield every acked record under fsync=every.
  constexpr uint64_t kSweepSeeds = 64;
  constexpr size_t kAttempts = 24;
  for (uint64_t seed = 0; seed < kSweepSeeds; ++seed) {
    const std::string dir = UniqueDir("seed" + std::to_string(seed));
    DurableRegistryOptions options;
    options.checkpoint_threshold_bytes = 200;
    auto opened = DurableRegistry::Open(dir, options);
    ASSERT_TRUE(opened.ok()) << "seed " << seed << ": " << opened.status();

    FaultInjector::Global().ArmSeeded(seed, 3);
    const std::set<std::string> acked =
        RegisterUnderFaults(*opened.value(), kAttempts);
    opened.value().reset();  // crash point: whatever the disk holds, holds
    FaultInjector::Global().Disarm();

    VerifyRecovery(dir, acked, kAttempts, "seed " + std::to_string(seed));
    RemoveDir(dir);
  }
}

TEST_F(DurableRegistryFaultTest, KillAtEveryIoSiteRecoversAckedExactly) {
  // Targeted kill: force ONE failure at each I/O site on the durable
  // path, crash immediately at the failure, recover, and pin down the
  // per-site contract. For every site except wal/fsync the recovered
  // set is EXACTLY the acked set; a failed fsync may leave the one
  // unacked in-flight record durable (written, not synced) — never
  // fewer than acked, never more than acked plus that record.
  const struct SiteCase {
    const char* site;
    bool may_carry_one_unacked;
  } kSites[] = {
      {"wal/append", false},        {"wal/fsync", true},
      {"wal/rotate", false},        {"checkpoint/publish", false},
      {"registry_io/open_temp", false}, {"registry_io/write", false},
      {"registry_io/fsync", false}, {"registry_io/rename", false},
  };
  constexpr size_t kAttempts = 16;
  for (const SiteCase& site_case : kSites) {
    const std::string dir = UniqueDir(std::string("kill_") +
                                      (std::strchr(site_case.site, '/') + 1));
    DurableRegistryOptions options;
    options.checkpoint_threshold_bytes = 200;  // checkpoints inside the run
    auto opened = DurableRegistry::Open(dir, options);
    ASSERT_TRUE(opened.ok()) << site_case.site << ": " << opened.status();

    FaultInjector::Global().FailNextHits(site_case.site, 1);
    std::set<std::string> acked;
    bool fault_fired = false;
    for (size_t i = 0; i < kAttempts; ++i) {
      Status status = opened.value()->Register(BuyerFor(i), KeyFor(i));
      if (status.ok()) {
        acked.insert(BuyerFor(i));
        // Checkpoint-path failures (publish, rotate, registry_io/*) are
        // swallowed into the failure gauge — the record stays acked.
        if (opened.value()->gauges().checkpoint_failures > 0) {
          fault_fired = true;
          break;  // crash right at the swallowed checkpoint failure
        }
      } else {
        EXPECT_EQ(status.code(), StatusCode::kUnavailable)
            << site_case.site << ": " << status;
        fault_fired = true;
        break;  // crash right at the failure
      }
    }
    EXPECT_TRUE(fault_fired) << site_case.site << ": site never on path";
    opened.value().reset();  // the kill
    FaultInjector::Global().Disarm();

    auto recovered = DurableRegistry::Open(dir);
    ASSERT_TRUE(recovered.ok())
        << site_case.site << ": " << recovered.status();
    const std::set<std::string> ids =
        BuyerIds(recovered.value()->Snapshot());
    for (const std::string& id : acked) {
      EXPECT_TRUE(ids.count(id) > 0)
          << site_case.site << ": lost acked " << id;
    }
    EXPECT_LE(ids.size(), acked.size() + (site_case.may_carry_one_unacked
                                              ? 1u
                                              : 0u))
        << site_case.site;
    RemoveDir(dir);
  }
}

TEST_F(DurableRegistryFaultTest,
       CrashBetweenPublishAndRotateReplaysIdempotently) {
  // The checkpoint crash window: snapshot durably published, WAL not
  // yet rotated. Recovery must load the snapshot AND replay the stale
  // WAL records as duplicates — skipped by id, surfaced in the gauge.
  const std::string dir = UniqueDir("publish_rotate_window");
  {
    auto opened = DurableRegistry::Open(dir);
    ASSERT_TRUE(opened.ok()) << opened.status();
    for (size_t i = 0; i < 6; ++i) {
      ASSERT_TRUE(opened.value()->Register(BuyerFor(i), KeyFor(i)).ok());
    }
    FaultInjector::Global().FailNextHits("wal/rotate", 1);
    Status checkpoint = opened.value()->Checkpoint();
    ASSERT_FALSE(checkpoint.ok());
    EXPECT_EQ(checkpoint.code(), StatusCode::kUnavailable);
  }  // crash
  FaultInjector::Global().Disarm();
  auto recovered = DurableRegistry::Open(dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(recovered.value()->size(), 6u);
  EXPECT_TRUE(recovered.value()->open_stats().snapshot_loaded);
  EXPECT_EQ(recovered.value()->open_stats().duplicates_skipped, 6u);
  EXPECT_EQ(recovered.value()->open_stats().records_replayed, 0u);
  EXPECT_EQ(recovered.value()->gauges().duplicates_skipped_at_open, 6u);
  RemoveDir(dir);
}

TEST_F(DurableRegistryFaultTest, ParentDirFsyncWarningSurfacesInGauges) {
  // Satellite 2, gauge half: a checkpoint whose parent-directory fsync
  // fails still succeeds, and the warning lands in DurabilityGauges.
  const std::string dir = UniqueDir("fsync_dir_gauge");
  auto opened = DurableRegistry::Open(dir);
  ASSERT_TRUE(opened.ok()) << opened.status();
  ASSERT_TRUE(opened.value()->Register("warned", KeyFor(0)).ok());
  FaultInjector::Global().FailNextHits("registry_io/fsync_dir", 1);
  ASSERT_TRUE(opened.value()->Checkpoint().ok());
  EXPECT_EQ(opened.value()->gauges().parent_dir_fsync_warnings, 1u);
  EXPECT_EQ(opened.value()->gauges().checkpoints_published, 1u);
  RemoveDir(dir);
}

TEST_F(DurableRegistryFaultTest, FailedFsyncRetryReportsAlreadyRegistered) {
  // The documented caller protocol after a failed-sync ack loss: retry
  // of the same buyer id either succeeds (record never became durable)
  // or reports InvalidArgument/already-registered — both mean the
  // record is now escrowed exactly once.
  const std::string dir = UniqueDir("fsync_retry");
  auto opened = DurableRegistry::Open(dir);
  ASSERT_TRUE(opened.ok()) << opened.status();
  FaultInjector::Global().FailNextHits("wal/fsync", 1);
  ASSERT_FALSE(opened.value()->Register("retry-me", KeyFor(0)).ok());
  FaultInjector::Global().Disarm();
  // In-process, the in-memory state never applied the record, so the
  // retry succeeds and the WAL now holds it twice — which recovery
  // must collapse to one registration.
  ASSERT_TRUE(opened.value()->Register("retry-me", KeyFor(0)).ok());
  opened.value().reset();
  auto recovered = DurableRegistry::Open(dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(recovered.value()->size(), 1u);
  EXPECT_EQ(recovered.value()->open_stats().records_replayed +
                recovered.value()->open_stats().duplicates_skipped,
            2u);
  RemoveDir(dir);
}

#endif  // FREQYWM_FAULT_INJECTION

}  // namespace
}  // namespace freqywm
