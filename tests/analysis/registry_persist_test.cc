// Crash-safe registry persistence suite (DESIGN.md §13): SaveToFile/
// LoadFromFile round trips, the checksum footer rejecting truncation and
// bit rot with typed Corruption, NotFound for a missing path, and the
// atomic write-temp/fsync/rename discipline (no temp residue, old
// snapshot survives an injected crash-before-rename).

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <unistd.h>

#include "analysis/registry.h"
#include "exec/fault_injection.h"

namespace freqywm {
namespace {

FingerprintRegistry MakeRegistry() {
  FingerprintRegistry registry;
  EXPECT_TRUE(registry
                  .Register("buyer-alpha",
                            SchemeKey{"wm-custom", "payload alpha\nline 2\n"})
                  .ok());
  EXPECT_TRUE(
      registry.Register("buyer-beta", SchemeKey{"wm-rvs", "payload beta"})
          .ok());
  EXPECT_TRUE(
      registry.Register("buyer-gamma", SchemeKey{"wm-obt", ""}).ok());
  return registry;
}

// Unique per test and per process: suites run at once on one host (two
// build trees, say) share the temp directory.
std::string UniquePath(const std::string& name) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + "registry_persist_" +
         std::to_string(::getpid()) + "_" + std::string(info->name()) + "_" +
         name;
}

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void WriteFileOrDie(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

TEST(RegistryPersistTest, SnapshotRoundTripsInMemory) {
  FingerprintRegistry registry = MakeRegistry();
  std::string snapshot = registry.SerializeSnapshot();
  auto loaded = FingerprintRegistry::ParseSnapshot(snapshot);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded.value().Serialize(), registry.Serialize());
  EXPECT_EQ(loaded.value().size(), registry.size());
}

TEST(RegistryPersistTest, SaveThenLoadRoundTrips) {
  FingerprintRegistry registry = MakeRegistry();
  std::string path = UniquePath("roundtrip");
  ASSERT_TRUE(registry.SaveToFile(path).ok());
  auto loaded = FingerprintRegistry::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded.value().Serialize(), registry.Serialize());
  // The atomic discipline leaves no temp residue next to the snapshot.
  std::ifstream temp(path + ".tmp");
  EXPECT_FALSE(temp.good());
  std::remove(path.c_str());
}

TEST(RegistryPersistTest, EmptyRegistryRoundTrips) {
  FingerprintRegistry registry;
  std::string path = UniquePath("empty");
  ASSERT_TRUE(registry.SaveToFile(path).ok());
  auto loaded = FingerprintRegistry::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded.value().size(), 0u);
  std::remove(path.c_str());
}

TEST(RegistryPersistTest, SaveOverwritesPreviousSnapshot) {
  FingerprintRegistry small;
  ASSERT_TRUE(small.Register("only", SchemeKey{"wm-custom", "p"}).ok());
  FingerprintRegistry big = MakeRegistry();
  std::string path = UniquePath("overwrite");
  ASSERT_TRUE(small.SaveToFile(path).ok());
  ASSERT_TRUE(big.SaveToFile(path).ok());
  auto loaded = FingerprintRegistry::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().Serialize(), big.Serialize());
  std::remove(path.c_str());
}

TEST(RegistryPersistTest, LoadMissingFileIsNotFound) {
  auto loaded =
      FingerprintRegistry::LoadFromFile(UniquePath("never_written"));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST(RegistryPersistTest, EveryBitFlipIsDetected) {
  // Flip one bit at a sample of positions across the snapshot (payload
  // and footer alike): the load must fail typed — Corruption from the
  // checksum, or in principle a parse error — never succeed with
  // different records and never crash.
  FingerprintRegistry registry = MakeRegistry();
  std::string snapshot = registry.SerializeSnapshot();
  for (size_t pos = 0; pos < snapshot.size(); pos += 7) {
    std::string damaged = snapshot;
    damaged[pos] = static_cast<char>(damaged[pos] ^ 0x10);
    auto loaded = FingerprintRegistry::ParseSnapshot(damaged);
    ASSERT_FALSE(loaded.ok()) << "undetected flip at byte " << pos;
  }
}

TEST(RegistryPersistTest, EveryTruncationIsDetected) {
  FingerprintRegistry registry = MakeRegistry();
  std::string snapshot = registry.SerializeSnapshot();
  for (size_t keep = 0; keep < snapshot.size(); keep += 11) {
    auto loaded =
        FingerprintRegistry::ParseSnapshot(snapshot.substr(0, keep));
    ASSERT_FALSE(loaded.ok()) << "undetected truncation to " << keep;
    EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  }
}

TEST(RegistryPersistTest, MissingFooterIsCorruption) {
  // A bare Serialize() payload (the pre-§13 on-disk format) has no
  // footer: the snapshot parser must reject it typed rather than guess.
  FingerprintRegistry registry = MakeRegistry();
  auto loaded = FingerprintRegistry::ParseSnapshot(registry.Serialize());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

TEST(RegistryPersistTest, DamagedFileFailsLoadTyped) {
  FingerprintRegistry registry = MakeRegistry();
  std::string path = UniquePath("damaged");
  ASSERT_TRUE(registry.SaveToFile(path).ok());
  std::string bytes = ReadFileOrDie(path);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 1);
  WriteFileOrDie(path, bytes);
  auto loaded = FingerprintRegistry::LoadFromFile(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

#if defined(FREQYWM_FAULT_INJECTION)

/// Injected-crash tests: every registry_io fault site must leave the
/// previous snapshot loadable (the kill-during-save acceptance criterion).
class RegistryPersistFaultTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Global().Disarm(); }
  void TearDown() override { FaultInjector::Global().Disarm(); }
};

TEST_F(RegistryPersistFaultTest, CrashBeforeRenameKeepsOldSnapshot) {
  FingerprintRegistry old_registry;
  ASSERT_TRUE(
      old_registry.Register("old-buyer", SchemeKey{"wm-custom", "v1"}).ok());
  FingerprintRegistry new_registry = MakeRegistry();
  std::string path = UniquePath("crash_rename");
  ASSERT_TRUE(old_registry.SaveToFile(path).ok());

  // The widest crash window: everything written and fsynced, the rename
  // never happens. The published snapshot must still be the old one.
  FaultInjector::Global().FailNextHits("registry_io/rename", 1);
  Status failed = new_registry.SaveToFile(path);
  EXPECT_EQ(failed.code(), StatusCode::kUnavailable);
  auto loaded = FingerprintRegistry::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded.value().Serialize(), old_registry.Serialize());

  // And the save is retryable once the fault clears.
  ASSERT_TRUE(new_registry.SaveToFile(path).ok());
  auto reloaded = FingerprintRegistry::LoadFromFile(path);
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(reloaded.value().Serialize(), new_registry.Serialize());
  std::remove(path.c_str());
}

TEST_F(RegistryPersistFaultTest, EveryWriteSiteFailureLeavesOldLoadable) {
  FingerprintRegistry old_registry;
  ASSERT_TRUE(
      old_registry.Register("old-buyer", SchemeKey{"wm-custom", "v1"}).ok());
  FingerprintRegistry new_registry = MakeRegistry();
  for (const char* site : {"registry_io/open_temp", "registry_io/write",
                           "registry_io/fsync", "registry_io/rename"}) {
    std::string path = UniquePath(std::string("site_") +
                                  std::string(site).substr(12));
    ASSERT_TRUE(old_registry.SaveToFile(path).ok());
    FaultInjector::Global().FailNextHits(site, 1);
    Status failed = new_registry.SaveToFile(path);
    EXPECT_EQ(failed.code(), StatusCode::kUnavailable) << site;
    auto loaded = FingerprintRegistry::LoadFromFile(path);
    ASSERT_TRUE(loaded.ok()) << site << ": " << loaded.status();
    EXPECT_EQ(loaded.value().Serialize(), old_registry.Serialize()) << site;
    std::remove(path.c_str());
  }
}

TEST_F(RegistryPersistFaultTest, ParentDirFsyncFailureIsCountedWarning) {
  // ISSUE 10 satellite: the parent-directory fsync (which makes the
  // rename itself durable) was silently best-effort. Its failure must
  // not fail the save — the data file is synced and the snapshot is
  // loadable — but it must surface as a counted SaveReport warning.
  FingerprintRegistry registry = MakeRegistry();
  std::string path = UniquePath("fsync_dir");

  FaultInjector::Global().FailNextHits("registry_io/fsync_dir", 1);
  FingerprintRegistry::SaveReport report;
  ASSERT_TRUE(registry.SaveToFile(path, &report).ok());
  EXPECT_EQ(report.parent_dir_fsync_warnings, 1u);
  auto loaded = FingerprintRegistry::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded.value().Serialize(), registry.Serialize());

  // A clean save reports no warning (the counter is per-save, honest).
  FingerprintRegistry::SaveReport clean_report;
  ASSERT_TRUE(registry.SaveToFile(path, &clean_report).ok());
  EXPECT_EQ(clean_report.parent_dir_fsync_warnings, 0u);
  std::remove(path.c_str());
}

TEST_F(RegistryPersistFaultTest, InjectedReadFailureIsUnavailable) {
  FingerprintRegistry registry = MakeRegistry();
  std::string path = UniquePath("read_fault");
  ASSERT_TRUE(registry.SaveToFile(path).ok());
  FaultInjector::Global().FailNextHits("registry_io/read", 1);
  auto loaded = FingerprintRegistry::LoadFromFile(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kUnavailable);
  // Reads are side-effect free: the snapshot is intact afterwards.
  auto retried = FingerprintRegistry::LoadFromFile(path);
  ASSERT_TRUE(retried.ok());
  std::remove(path.c_str());
}

#endif  // FREQYWM_FAULT_INJECTION

}  // namespace
}  // namespace freqywm
