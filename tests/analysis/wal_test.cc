// Write-ahead log format and recovery suite (DESIGN.md §15): round
// trips through Open/Append/reopen, torn-tail truncation at every cut
// point of an append, the final-frame-damage-truncates vs
// damage-before-the-tail-is-Corruption distinction, rotation, the
// group-commit unsynced window, and (knob-gated) the wal/* fault sites.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "analysis/wal.h"
#include "exec/fault_injection.h"

namespace freqywm {
namespace {

// Unique per test and per process: suites run at once on one host (two
// build trees, say) share the temp directory.
std::string UniquePath(const std::string& name) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + "wal_" + std::to_string(::getpid()) + "_" +
         std::string(info->name()) + "_" + name;
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

/// A complete on-disk image: magic plus one frame per payload.
std::string MakeImage(const std::vector<std::string>& payloads) {
  std::string image(kWalMagic, kWalMagicLen);
  for (const std::string& payload : payloads) {
    image += WriteAheadLog::EncodeFrame(payload);
  }
  return image;
}

TEST(WalTest, FreshLogIsEmptyAndReopens) {
  const std::string path = UniquePath("fresh");
  auto opened = WriteAheadLog::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status();
  EXPECT_TRUE(opened.value().records.empty());
  EXPECT_FALSE(opened.value().torn_tail_truncated);
  EXPECT_EQ(opened.value().log->size_bytes(), kWalMagicLen);
  opened.value().log.reset();

  // The created file starts with the magic and reopens empty.
  EXPECT_EQ(ReadFileOrDie(path), std::string(kWalMagic, kWalMagicLen));
  auto reopened = WriteAheadLog::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_TRUE(reopened.value().records.empty());
  std::remove(path.c_str());
}

TEST(WalTest, AppendedRecordsSurviveReopenInOrder) {
  const std::string path = UniquePath("roundtrip");
  const std::vector<std::string> payloads = {
      "first", "", std::string("binary\0\xff\n payload", 17), "last"};
  {
    auto opened = WriteAheadLog::Open(path);
    ASSERT_TRUE(opened.ok()) << opened.status();
    for (const std::string& payload : payloads) {
      ASSERT_TRUE(opened.value().log->Append(payload).ok());
    }
    EXPECT_EQ(opened.value().log->appended_records(), payloads.size());
    // fsync=every: nothing stays unsynced after an acknowledged append.
    EXPECT_EQ(opened.value().log->unsynced_records(), 0u);
    EXPECT_EQ(opened.value().log->unsynced_bytes(), 0u);
  }
  auto reopened = WriteAheadLog::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(reopened.value().records, payloads);
  EXPECT_FALSE(reopened.value().torn_tail_truncated);
  std::remove(path.c_str());
}

TEST(WalTest, TornTailAtEveryCutPointTruncatesToIntactPrefix) {
  // Cut the image after the intact second frame at EVERY byte offset of
  // the third: each cut is a possible crash-mid-append artifact, and
  // each must recover exactly the two intact records, truncate the
  // file, and leave it appendable.
  const std::vector<std::string> intact = {"alpha", "beta"};
  const std::string base = MakeImage(intact);
  const std::string torn_frame = WriteAheadLog::EncodeFrame("gamma");
  for (size_t cut = 1; cut < torn_frame.size(); ++cut) {
    const std::string path =
        UniquePath("cut" + std::to_string(cut));
    WriteFileOrDie(path, base + torn_frame.substr(0, cut));
    auto opened = WriteAheadLog::Open(path);
    ASSERT_TRUE(opened.ok()) << "cut " << cut << ": " << opened.status();
    EXPECT_EQ(opened.value().records, intact) << "cut " << cut;
    EXPECT_TRUE(opened.value().torn_tail_truncated) << "cut " << cut;
    EXPECT_EQ(opened.value().truncated_bytes, cut) << "cut " << cut;

    // The torn bytes are gone from disk; appending works and a second
    // open sees a clean log with the new record.
    ASSERT_TRUE(opened.value().log->Append("delta").ok()) << "cut " << cut;
    opened.value().log.reset();
    auto reopened = WriteAheadLog::Open(path);
    ASSERT_TRUE(reopened.ok()) << "cut " << cut;
    EXPECT_FALSE(reopened.value().torn_tail_truncated) << "cut " << cut;
    const std::vector<std::string> expected = {"alpha", "beta", "delta"};
    EXPECT_EQ(reopened.value().records, expected) << "cut " << cut;
    std::remove(path.c_str());
  }
}

TEST(WalTest, DamagedFinalFrameTruncates) {
  // A checksum-bad FINAL frame is indistinguishable from a torn write
  // whose length bytes landed — recovery truncates it.
  const std::string path = UniquePath("final_bitflip");
  std::string image = MakeImage({"alpha", "beta"});
  image.back() ^= 0x40;  // damage the last payload byte
  WriteFileOrDie(path, image);
  auto opened = WriteAheadLog::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status();
  const std::vector<std::string> expected = {"alpha"};
  EXPECT_EQ(opened.value().records, expected);
  EXPECT_TRUE(opened.value().torn_tail_truncated);
  std::remove(path.c_str());
}

TEST(WalTest, DamageBeforeTheTailIsCorruption) {
  // A bit flip inside a frame that intact frames FOLLOW is bit rot, not
  // a crash artifact: typed Corruption, the file untouched, and the
  // scanner never parses past the damage.
  const std::string path = UniquePath("mid_bitflip");
  std::string image = MakeImage({"alpha", "beta", "gamma"});
  const size_t first_payload_pos = kWalMagicLen + 8 + 32;
  std::string damaged = image;
  damaged[first_payload_pos] ^= 0x01;  // 'a' of "alpha"
  WriteFileOrDie(path, damaged);
  auto opened = WriteAheadLog::Open(path);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kCorruption);
  // Forensics: the damaged file is byte-identical to what we wrote.
  EXPECT_EQ(ReadFileOrDie(path), damaged);
  std::remove(path.c_str());
}

TEST(WalTest, BadMagicIsCorruption) {
  const std::string path = UniquePath("bad_magic");
  WriteFileOrDie(path, "definitely-not-a-wal v9\n");
  auto opened = WriteAheadLog::Open(path);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(WalTest, TornMagicPrefixRecoversAsEmpty) {
  // A crash between create and the magic fsync can leave a prefix of
  // the magic; that is a torn tail at offset zero, not corruption.
  for (size_t cut = 1; cut < kWalMagicLen; ++cut) {
    const std::string path = UniquePath("magic" + std::to_string(cut));
    WriteFileOrDie(path, std::string(kWalMagic, cut));
    auto opened = WriteAheadLog::Open(path);
    ASSERT_TRUE(opened.ok()) << "cut " << cut << ": " << opened.status();
    EXPECT_TRUE(opened.value().records.empty()) << "cut " << cut;
    EXPECT_TRUE(opened.value().torn_tail_truncated) << "cut " << cut;
    ASSERT_TRUE(opened.value().log->Append("after").ok()) << "cut " << cut;
    std::remove(path.c_str());
  }
}

TEST(WalTest, OverlongDeclaredLengthIsTornNotOom) {
  // Garbage length bytes from a torn append may declare a 2^63-byte
  // payload; the scanner must classify (no allocation) and truncate.
  const std::string path = UniquePath("overlong");
  std::string image(kWalMagic, kWalMagicLen);
  image += std::string("\xff\xff\xff\xff\xff\xff\xff\x7f", 8);
  image += std::string(32, '\0');  // digest placeholder
  WriteFileOrDie(path, image);
  auto opened = WriteAheadLog::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status();
  EXPECT_TRUE(opened.value().records.empty());
  EXPECT_TRUE(opened.value().torn_tail_truncated);
  std::remove(path.c_str());
}

TEST(WalTest, RotateResetsToEmptyDurably) {
  const std::string path = UniquePath("rotate");
  auto opened = WriteAheadLog::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status();
  ASSERT_TRUE(opened.value().log->Append("one").ok());
  ASSERT_TRUE(opened.value().log->Append("two").ok());
  ASSERT_TRUE(opened.value().log->Rotate().ok());
  EXPECT_EQ(opened.value().log->size_bytes(), kWalMagicLen);
  // Appends after rotation land in the truncated log.
  ASSERT_TRUE(opened.value().log->Append("three").ok());
  opened.value().log.reset();
  auto reopened = WriteAheadLog::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  const std::vector<std::string> expected = {"three"};
  EXPECT_EQ(reopened.value().records, expected);
  std::remove(path.c_str());
}

TEST(WalTest, GroupCommitBoundsTheUnsyncedWindow) {
  const std::string path = UniquePath("group_commit");
  WalOptions options;
  options.sync_policy = WalSyncPolicy::kGroupCommit;
  options.group_commit_max_records = 3;
  options.group_commit_max_bytes = 1 << 20;
  auto opened = WriteAheadLog::Open(path, options);
  ASSERT_TRUE(opened.ok()) << opened.status();
  WriteAheadLog& log = *opened.value().log;
  ASSERT_TRUE(log.Append("a").ok());
  ASSERT_TRUE(log.Append("b").ok());
  EXPECT_EQ(log.unsynced_records(), 2u);
  EXPECT_GT(log.unsynced_bytes(), 0u);
  // The third append crosses the record bound and syncs the batch.
  ASSERT_TRUE(log.Append("c").ok());
  EXPECT_EQ(log.unsynced_records(), 0u);
  EXPECT_EQ(log.unsynced_bytes(), 0u);
  // Explicit Sync drains a partial window.
  ASSERT_TRUE(log.Append("d").ok());
  EXPECT_EQ(log.unsynced_records(), 1u);
  ASSERT_TRUE(log.Sync().ok());
  EXPECT_EQ(log.unsynced_records(), 0u);
  std::remove(path.c_str());
}

TEST(WalTest, ScanOfEmptyBytesIsEmptyLog) {
  auto scan = WriteAheadLog::Scan("");
  ASSERT_TRUE(scan.ok());
  EXPECT_TRUE(scan.value().records.empty());
  EXPECT_FALSE(scan.value().torn_tail);
}

#if defined(FREQYWM_FAULT_INJECTION)

class WalFaultTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Global().Disarm(); }
  void TearDown() override { FaultInjector::Global().Disarm(); }
};

TEST_F(WalFaultTest, InjectedAppendFaultIsTypedAndLogsNothing) {
  const std::string path = UniquePath("fault_append");
  auto opened = WriteAheadLog::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status();
  ASSERT_TRUE(opened.value().log->Append("kept").ok());
  FaultInjector::Global().FailNextHits("wal/append", 1);
  Status failed = opened.value().log->Append("dropped");
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.code(), StatusCode::kUnavailable);
  // The fault fires before any byte is written: the log is unchanged
  // and the next append succeeds.
  ASSERT_TRUE(opened.value().log->Append("next").ok());
  opened.value().log.reset();
  auto reopened = WriteAheadLog::Open(path);
  ASSERT_TRUE(reopened.ok());
  const std::vector<std::string> expected = {"kept", "next"};
  EXPECT_EQ(reopened.value().records, expected);
  std::remove(path.c_str());
}

TEST_F(WalFaultTest, InjectedFsyncFaultLeavesRecordUnacked) {
  const std::string path = UniquePath("fault_fsync");
  auto opened = WriteAheadLog::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status();
  FaultInjector::Global().FailNextHits("wal/fsync", 1);
  Status failed = opened.value().log->Append("maybe-durable");
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.code(), StatusCode::kUnavailable);
  // The bytes were written but the sync failed: the unsynced window
  // still reports them (the caller must not ack).
  EXPECT_EQ(opened.value().log->unsynced_records(), 1u);
  ASSERT_TRUE(opened.value().log->Sync().ok());
  EXPECT_EQ(opened.value().log->unsynced_records(), 0u);
  std::remove(path.c_str());
}

TEST_F(WalFaultTest, InjectedRotateFaultKeepsTheLogIntact) {
  const std::string path = UniquePath("fault_rotate");
  auto opened = WriteAheadLog::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status();
  ASSERT_TRUE(opened.value().log->Append("sticky").ok());
  FaultInjector::Global().FailNextHits("wal/rotate", 1);
  Status failed = opened.value().log->Rotate();
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.code(), StatusCode::kUnavailable);
  opened.value().log.reset();
  auto reopened = WriteAheadLog::Open(path);
  ASSERT_TRUE(reopened.ok());
  const std::vector<std::string> expected = {"sticky"};
  EXPECT_EQ(reopened.value().records, expected);
  std::remove(path.c_str());
}

#endif  // FREQYWM_FAULT_INJECTION

}  // namespace
}  // namespace freqywm
