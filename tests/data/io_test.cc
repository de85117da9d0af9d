#include "data/io.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "api/scheme.h"
#include "core/secrets.h"

namespace freqywm {
namespace {

class IoTest : public ::testing::Test {
 protected:
  std::string TempPath(const std::string& name) {
    return testing::TempDir() + "/freqywm_io_" + name;
  }
};

TEST_F(IoTest, TokenFileRoundTrip) {
  std::string path = TempPath("tokens.txt");
  Dataset d({"youtube.com", "facebook.com", "youtube.com"});
  ASSERT_TRUE(WriteTokenFile(d, path).ok());
  auto loaded = ReadTokenFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().tokens(), d.tokens());
  std::remove(path.c_str());
}

TEST_F(IoTest, TokenFileSkipsBlankLinesAndStrips) {
  std::string path = TempPath("blank.txt");
  {
    std::ofstream out(path);
    out << "a\n\n  b  \n\t\nc\n";
  }
  auto loaded = ReadTokenFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().tokens(), (std::vector<Token>{"a", "b", "c"}));
  std::remove(path.c_str());
}

TEST_F(IoTest, ReadMissingTokenFileFails) {
  auto loaded = ReadTokenFile("/nonexistent/never/here.txt");
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST_F(IoTest, WritersReportFullDisk) {
  // /dev/full accepts the open and fails every write with ENOSPC. The
  // small payloads below sit in the stream buffer until it is flushed, so
  // a writer that checks the stream before closing it reports OK.
  const std::string full = "/dev/full";
  if (::access(full.c_str(), W_OK) != 0) GTEST_SKIP() << "no /dev/full";

  const SchemeKey key{"freqywm", "payload"};
  EXPECT_FALSE(key.SaveToFile(full).ok());
  WatermarkSecrets secrets;
  secrets.z = 131;
  secrets.pairs.push_back(SecretPair{"a", "b"});
  EXPECT_FALSE(secrets.SaveToFile(full).ok());
  EXPECT_FALSE(WriteTokenFile(Dataset({"a", "b"}), full).ok());
}

}  // namespace
}  // namespace freqywm
