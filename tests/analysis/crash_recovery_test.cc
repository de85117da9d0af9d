// Fork-based real-crash recovery test (ISSUE 10): what fault injection
// cannot simulate — an actual process death with no destructors, no
// buffered-stream flushes, no cleanup — a child registers records under
// fsync=every, deliberately tears the WAL tail the way a mid-append
// power cut would, and dies with _exit(137); the parent then recovers
// from the on-disk state alone and must see exactly the acknowledged
// records. Runs in every build (no fault-injection knob needed); NOT
// thread-sanitizer compatible (fork) — the CI TSan job excludes it.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "analysis/durable_registry.h"
#include "analysis/registry.h"

namespace freqywm {
namespace {

// Unique per test and per process: suites run at once on one host (two
// build trees, say) share the temp directory.
std::string UniqueDir(const std::string& name) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string dir = ::testing::TempDir() + "crash_" +
                    std::to_string(::getpid()) + "_" +
                    std::string(info->name()) + "_" + name;
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

SchemeKey KeyFor(size_t i) {
  return SchemeKey{"wm-custom", "payload-" + std::to_string(i)};
}

std::string BuyerFor(size_t i) { return "buyer-" + std::to_string(i); }

size_t ReadAckedCount(const std::string& path) {
  std::ifstream in(path);
  size_t acked = 0;
  in >> acked;
  EXPECT_TRUE(in.good() || in.eof()) << path;
  return acked;
}

TEST(CrashRecoveryTest, ChildKilledMidAppendRecoversAckedPrefix) {
  const std::string dir = UniqueDir("mid_append");
  const std::string acked_path = dir + "/acked_count";
  constexpr size_t kAcked = 12;

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
    // ---- child: crashes; only _exit below this line, never return ----
    auto opened = DurableRegistry::Open(dir);  // fsync=every default
    if (!opened.ok()) ::_exit(1);
    for (size_t i = 0; i < kAcked; ++i) {
      if (!opened.value()->Register(BuyerFor(i), KeyFor(i)).ok()) {
        ::_exit(2);
      }
    }
    // Durably record what was acknowledged, THEN tear the log exactly
    // as a power cut mid-append would: half of the next record's frame
    // reaches the file, the ack never happens.
    const std::string text = std::to_string(kAcked);
    int fd = ::open(acked_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0 || ::write(fd, text.data(), text.size()) < 0 ||
        ::fsync(fd) != 0) {
      ::_exit(3);
    }
    const std::string frame = WriteAheadLog::EncodeFrame(
        EncodeRegistration(BuyerFor(kAcked), KeyFor(kAcked)));
    fd = ::open(DurableRegistry::WalPath(dir).c_str(),
                O_WRONLY | O_APPEND);
    if (fd < 0 ||
        ::write(fd, frame.data(), frame.size() / 2) !=
            static_cast<ssize_t>(frame.size() / 2)) {
      ::_exit(4);
    }
    ::_exit(137);  // SIGKILL's exit code: die with the tail torn
  }

  // ---- parent: reap, then recover from the on-disk state alone ----
  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus));
  ASSERT_EQ(WEXITSTATUS(wstatus), 137)
      << "child failed before the crash point";

  const size_t acked = ReadAckedCount(acked_path);
  ASSERT_EQ(acked, kAcked);

  auto recovered = DurableRegistry::Open(dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_TRUE(recovered.value()->open_stats().torn_tail_truncated);
  EXPECT_GT(recovered.value()->open_stats().truncated_bytes, 0u);
  const FingerprintRegistry registry = recovered.value()->Snapshot();
  ASSERT_EQ(registry.size(), acked);
  for (size_t i = 0; i < acked; ++i) {
    EXPECT_TRUE(registry.Contains(BuyerFor(i))) << i;
    EXPECT_TRUE(registry.records()[i].key == KeyFor(i)) << i;
  }
  // The torn record was never acknowledged and must not surface.
  EXPECT_FALSE(registry.Contains(BuyerFor(kAcked)));

  // Replay count: no checkpoint ever ran in the child, so every acked
  // record replays from the WAL.
  EXPECT_EQ(recovered.value()->open_stats().records_replayed, acked);

  // The recovered registry is fully operational: it accepts the record
  // the crash interrupted, durably.
  ASSERT_TRUE(
      recovered.value()->Register(BuyerFor(kAcked), KeyFor(kAcked)).ok());
  recovered.value().reset();
  auto reopened = DurableRegistry::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(reopened.value()->size(), acked + 1);

  std::remove(acked_path.c_str());
  std::remove(DurableRegistry::SnapshotPath(dir).c_str());
  std::remove(DurableRegistry::WalPath(dir).c_str());
  ::rmdir(dir.c_str());
}

TEST(CrashRecoveryTest, ChildKilledAfterCheckpointRecoversThroughSnapshot) {
  // Same real-crash shape, but the child checkpoints mid-stream: the
  // parent's recovery must compose snapshot-load + WAL replay.
  const std::string dir = UniqueDir("post_checkpoint");
  constexpr size_t kBeforeCheckpoint = 6;
  constexpr size_t kAfterCheckpoint = 5;

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
    auto opened = DurableRegistry::Open(dir);
    if (!opened.ok()) ::_exit(1);
    for (size_t i = 0; i < kBeforeCheckpoint; ++i) {
      if (!opened.value()->Register(BuyerFor(i), KeyFor(i)).ok()) {
        ::_exit(2);
      }
    }
    if (!opened.value()->Checkpoint().ok()) ::_exit(3);
    for (size_t i = kBeforeCheckpoint;
         i < kBeforeCheckpoint + kAfterCheckpoint; ++i) {
      if (!opened.value()->Register(BuyerFor(i), KeyFor(i)).ok()) {
        ::_exit(4);
      }
    }
    ::_exit(137);  // die with live WAL records past the snapshot
  }

  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus));
  ASSERT_EQ(WEXITSTATUS(wstatus), 137)
      << "child failed before the crash point";

  auto recovered = DurableRegistry::Open(dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_TRUE(recovered.value()->open_stats().snapshot_loaded);
  EXPECT_EQ(recovered.value()->open_stats().records_replayed,
            kAfterCheckpoint);
  EXPECT_EQ(recovered.value()->size(),
            kBeforeCheckpoint + kAfterCheckpoint);

  std::remove(DurableRegistry::SnapshotPath(dir).c_str());
  std::remove(DurableRegistry::WalPath(dir).c_str());
  ::rmdir(dir.c_str());
}

}  // namespace
}  // namespace freqywm
