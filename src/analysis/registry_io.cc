// Crash-safe persistence of the fingerprint registry (DESIGN.md §13).
//
// Split out of registry.cc so the in-memory data structure stays free of
// platform I/O: snapshot open/write/fsync/rename lives here (the WAL's
// append-side I/O lives in analysis/wal.cc), plus the checksum-footer
// snapshot format that makes on-disk damage a typed `Corruption` instead
// of a parse surprise.
#include <algorithm>
#include <cerrno>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "analysis/posix_io.h"
#include "analysis/registry.h"
#include "common/hex.h"
#include "crypto/sha256.h"
#include "exec/fault_injection.h"

namespace freqywm {

namespace {

using posix_io::ErrnoMessage;
using posix_io::WriteAll;

constexpr char kChecksumPrefix[] = "checksum sha256 ";
constexpr size_t kChecksumPrefixLen = sizeof(kChecksumPrefix) - 1;
constexpr size_t kHexDigestLen = 2 * Sha256::kDigestSize;
// "checksum sha256 <64 hex>\n"
constexpr size_t kFooterLen = kChecksumPrefixLen + kHexDigestLen + 1;

/// Fsync of the directory containing `path`, so the rename itself is
/// durable. Failure does not fail the save (the data file is already
/// synced, and not every filesystem supports directory fsync) but is no
/// longer silent: the caller counts a `SaveReport` warning.
bool SyncParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash + 1);
  if (!FREQYWM_FAULT_STATUS("registry_io/fsync_dir").ok()) return false;
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return false;
  const bool synced = ::fsync(fd) == 0;
  (void)::close(fd);
  return synced;
}

}  // namespace

std::string FingerprintRegistry::SerializeSnapshot() const {
  std::string payload = Serialize();
  const Sha256::Digest digest = Sha256::Hash(payload);
  payload += kChecksumPrefix;
  payload += HexEncode(digest.data(), digest.size());
  payload += '\n';
  return payload;
}

Result<FingerprintRegistry> FingerprintRegistry::ParseSnapshot(
    const std::string& text) {
  if (text.size() < kFooterLen || text.back() != '\n') {
    return Status::Corruption(
        "snapshot truncated: missing checksum footer line");
  }
  const size_t footer_pos = text.size() - kFooterLen;
  if (footer_pos != 0 && text[footer_pos - 1] != '\n') {
    // The 80 bytes before the end don't start a line — either the footer
    // line is malformed or the payload's tail was torn off with the
    // correct total length destroyed.
    return Status::Corruption("snapshot corrupt: malformed checksum footer");
  }
  const std::string_view footer(text.data() + footer_pos, kFooterLen);
  if (footer.substr(0, kChecksumPrefixLen) != kChecksumPrefix) {
    return Status::Corruption("snapshot corrupt: malformed checksum footer");
  }
  const std::string_view hex_digest =
      footer.substr(kChecksumPrefixLen, kHexDigestLen);
  Result<std::vector<uint8_t>> expected = HexDecode(hex_digest);
  if (!expected.ok() || expected.value().size() != Sha256::kDigestSize) {
    return Status::Corruption("snapshot corrupt: malformed checksum footer");
  }
  const std::string_view payload(text.data(), footer_pos);
  const Sha256::Digest actual = Sha256::Hash(payload);
  if (!std::equal(actual.begin(), actual.end(),
                  expected.value().begin())) {
    return Status::Corruption(
        "snapshot corrupt: checksum mismatch (bit rot, truncation, or a "
        "torn write)");
  }
  return Deserialize(std::string(payload));
}

Status FingerprintRegistry::SaveToFile(const std::string& path,
                                       SaveReport* report) const {
  const std::string snapshot = SerializeSnapshot();
  const std::string temp = path + ".tmp";

  FREQYWM_FAULT_POINT("registry_io/open_temp");
  int fd = ::open(temp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Status::Unavailable(ErrnoMessage("open", temp));

  Status status = FREQYWM_FAULT_STATUS("registry_io/write");
  if (status.ok()) status = WriteAll(fd, snapshot, temp);

  if (status.ok()) {
    status = FREQYWM_FAULT_STATUS("registry_io/fsync");
    if (status.ok() && ::fsync(fd) != 0) {
      status = Status::Unavailable(ErrnoMessage("fsync", temp));
    }
  }
  if (::close(fd) != 0 && status.ok()) {
    status = Status::Unavailable(ErrnoMessage("close", temp));
  }

  // The kill-during-save window: the temp file is complete and durable,
  // the target not yet replaced. A fault (or crash) here must leave the
  // previous snapshot untouched and loadable — which it does, because
  // nothing has touched `path` yet.
  if (status.ok()) status = FREQYWM_FAULT_STATUS("registry_io/rename");

  if (status.ok() && ::rename(temp.c_str(), path.c_str()) != 0) {
    status = Status::Unavailable(ErrnoMessage("rename", temp));
  }
  if (!status.ok()) {
    (void)::unlink(temp.c_str());  // best-effort cleanup of the temp file
    return status;
  }
  if (!SyncParentDir(path) && report != nullptr) {
    ++report->parent_dir_fsync_warnings;
  }
  return Status::OK();
}

Result<FingerprintRegistry> FingerprintRegistry::LoadFromFile(
    const std::string& path) {
  FREQYWM_FAULT_POINT("registry_io/read");
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) {
      return Status::NotFound("no registry snapshot at '" + path + "'");
    }
    return Status::Unavailable(ErrnoMessage("open", path));
  }
  Result<std::string> text = posix_io::ReadWhole(fd, path);
  (void)::close(fd);
  if (!text.ok()) return text.status();
  return ParseSnapshot(text.value());
}

}  // namespace freqywm
