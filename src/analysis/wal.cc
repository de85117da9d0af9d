// Append-only checksummed write-ahead log (DESIGN.md §15).
//
// Like analysis/registry_io.cc (the snapshot side of durability), this
// file confines platform I/O — open/write/fsync/ftruncate — so the WAL
// format logic stays testable on in-memory byte strings via `Scan`.
#include "analysis/wal.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include <fcntl.h>
#include <unistd.h>

#include "analysis/posix_io.h"
#include "crypto/sha256.h"
#include "exec/fault_injection.h"

namespace freqywm {

namespace {

using posix_io::ErrnoMessage;
using posix_io::ReadWhole;
using posix_io::WriteAll;

constexpr size_t kFrameLengthLen = 8;
constexpr size_t kFrameHeaderLen = kFrameLengthLen + Sha256::kDigestSize;

void EncodeLengthLe(uint64_t value, uint8_t out[kFrameLengthLen]) {
  for (size_t i = 0; i < kFrameLengthLen; ++i) {
    out[i] = static_cast<uint8_t>(value >> (8 * i));
  }
}

uint64_t DecodeLengthLe(const uint8_t* bytes) {
  uint64_t value = 0;
  for (size_t i = 0; i < kFrameLengthLen; ++i) {
    value |= static_cast<uint64_t>(bytes[i]) << (8 * i);
  }
  return value;
}

Sha256::Digest FrameDigest(const uint8_t length_bytes[kFrameLengthLen],
                           std::string_view payload) {
  Sha256 hasher;
  hasher.Update(length_bytes, kFrameLengthLen);
  hasher.Update(payload);
  return hasher.Finish();
}

}  // namespace

std::string WriteAheadLog::EncodeFrame(std::string_view payload) {
  uint8_t length_bytes[kFrameLengthLen];
  EncodeLengthLe(payload.size(), length_bytes);
  const Sha256::Digest digest = FrameDigest(length_bytes, payload);
  std::string frame;
  frame.reserve(kFrameHeaderLen + payload.size());
  frame.append(reinterpret_cast<const char*>(length_bytes), kFrameLengthLen);
  frame.append(reinterpret_cast<const char*>(digest.data()), digest.size());
  frame.append(payload);
  return frame;
}

Result<WalScanResult> WriteAheadLog::Scan(std::string_view bytes) {
  WalScanResult result;
  if (bytes.size() < kWalMagicLen) {
    // A file shorter than the magic is either a crash between create and
    // header write (a magic *prefix* — recoverable as an empty log) or
    // not a WAL at all.
    if (std::string_view(kWalMagic, bytes.size()) == bytes) {
      result.valid_bytes = 0;
      result.torn_tail = !bytes.empty();
      return result;
    }
    return Status::Corruption("WAL: bad magic header");
  }
  if (bytes.substr(0, kWalMagicLen) != kWalMagic) {
    return Status::Corruption("WAL: bad magic header");
  }
  size_t pos = kWalMagicLen;
  result.valid_bytes = pos;
  while (pos < bytes.size()) {
    const size_t remaining = bytes.size() - pos;
    if (remaining < kFrameHeaderLen) {
      // Crash mid-header: an incomplete frame is by definition the tail.
      result.torn_tail = true;
      return result;
    }
    const uint8_t* header =
        reinterpret_cast<const uint8_t*>(bytes.data()) + pos;
    const uint64_t payload_len = DecodeLengthLe(header);
    if (payload_len > remaining - kFrameHeaderLen) {
      // The declared payload runs past EOF: a torn append (or garbage
      // length bytes from one). Checked BEFORE any allocation so a
      // hostile 2^63 length cannot OOM the scanner.
      result.torn_tail = true;
      return result;
    }
    const std::string_view payload(
        bytes.data() + pos + kFrameHeaderLen,
        static_cast<size_t>(payload_len));
    const Sha256::Digest actual = FrameDigest(header, payload);
    if (std::memcmp(actual.data(), header + kFrameLengthLen,
                    Sha256::kDigestSize) != 0) {
      if (pos + kFrameHeaderLen + payload_len == bytes.size()) {
        // A damaged FINAL frame is indistinguishable from a torn write
        // whose length bytes landed (sector reordering): truncate.
        result.torn_tail = true;
        return result;
      }
      // Damage with intact data after it is bit rot, not a crash tail —
      // refusing is the only honest answer (truncating here would throw
      // away the intact records that follow).
      return Status::Corruption("WAL: checksum mismatch before the tail");
    }
    result.records.emplace_back(payload);
    pos += kFrameHeaderLen + static_cast<size_t>(payload_len);
    result.valid_bytes = pos;
  }
  return result;
}

Result<WriteAheadLog::OpenResult> WriteAheadLog::Open(const std::string& path,
                                                      WalOptions options) {
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd < 0) return Status::Unavailable(ErrnoMessage("open", path));

  Result<std::string> bytes = ReadWhole(fd, path);
  if (!bytes.ok()) {
    (void)::close(fd);
    return bytes.status();
  }
  Result<WalScanResult> scan = Scan(bytes.value());
  if (!scan.ok()) {
    (void)::close(fd);  // damaged file left untouched for forensics
    return scan.status();
  }

  OpenResult result;
  result.records = std::move(scan.value().records);
  result.torn_tail_truncated = scan.value().torn_tail;
  result.truncated_bytes = bytes.value().size() - scan.value().valid_bytes;

  uint64_t size = scan.value().valid_bytes;
  if (scan.value().torn_tail) {
    // Cut the torn tail off NOW and make the cut durable, so a second
    // crash cannot resurrect half a record behind a later append.
    if (::ftruncate(fd, static_cast<off_t>(size)) != 0) {
      const Status status =
          Status::Unavailable(ErrnoMessage("ftruncate", path));
      (void)::close(fd);
      return status;
    }
    if (::fsync(fd) != 0) {
      const Status status = Status::Unavailable(ErrnoMessage("fsync", path));
      (void)::close(fd);
      return status;
    }
  }
  if (size < kWalMagicLen) {
    // Fresh (or header-torn) file: write the magic before any record.
    if (::lseek(fd, 0, SEEK_SET) < 0) {
      const Status status = Status::Unavailable(ErrnoMessage("lseek", path));
      (void)::close(fd);
      return status;
    }
    Status wrote = WriteAll(fd, std::string_view(kWalMagic, kWalMagicLen),
                            path);
    if (wrote.ok() && ::fsync(fd) != 0) {
      wrote = Status::Unavailable(ErrnoMessage("fsync", path));
    }
    if (!wrote.ok()) {
      (void)::close(fd);
      return wrote;
    }
    size = kWalMagicLen;
  } else if (::lseek(fd, static_cast<off_t>(size), SEEK_SET) < 0) {
    const Status status = Status::Unavailable(ErrnoMessage("lseek", path));
    (void)::close(fd);
    return status;
  }

  result.log = std::unique_ptr<WriteAheadLog>(
      new WriteAheadLog(path, fd, size, options));
  return result;
}

WriteAheadLog::WriteAheadLog(std::string path, int fd, uint64_t size,
                             WalOptions options)
    : path_(std::move(path)), options_(options), fd_(fd), size_bytes_(size) {}

WriteAheadLog::~WriteAheadLog() {
  if (fd_ >= 0) {
    // Destruction is not an acknowledgement point: anything unsynced
    // follows the policy's contract (it may or may not survive), so a
    // failed close changes no durability promise.
    (void)::close(fd_);
  }
}

Status WriteAheadLog::Append(std::string_view payload) {
  FREQYWM_FAULT_POINT("wal/append");
  const std::string frame = EncodeFrame(payload);
  FREQYWM_RETURN_NOT_OK(WriteAll(fd_, frame, path_));
  size_bytes_ += frame.size();
  ++appended_records_;
  ++unsynced_records_;
  unsynced_bytes_ += frame.size();
  switch (options_.sync_policy) {
    case WalSyncPolicy::kEveryRecord:
      return Sync();
    case WalSyncPolicy::kGroupCommit:
      if (unsynced_records_ >= options_.group_commit_max_records ||
          unsynced_bytes_ >= options_.group_commit_max_bytes) {
        return Sync();
      }
      return Status::OK();
    case WalSyncPolicy::kNone:
      return Status::OK();
  }
  return Status::OK();
}

Status WriteAheadLog::Sync() {
  if (unsynced_records_ == 0 && unsynced_bytes_ == 0) return Status::OK();
  FREQYWM_FAULT_POINT("wal/fsync");
  if (::fsync(fd_) != 0) {
    return Status::Unavailable(ErrnoMessage("fsync", path_));
  }
  unsynced_records_ = 0;
  unsynced_bytes_ = 0;
  return Status::OK();
}

Status WriteAheadLog::Rotate() {
  FREQYWM_FAULT_POINT("wal/rotate");
  if (::ftruncate(fd_, static_cast<off_t>(kWalMagicLen)) != 0) {
    return Status::Unavailable(ErrnoMessage("ftruncate", path_));
  }
  if (::lseek(fd_, static_cast<off_t>(kWalMagicLen), SEEK_SET) < 0) {
    return Status::Unavailable(ErrnoMessage("lseek", path_));
  }
  if (::fsync(fd_) != 0) {
    return Status::Unavailable(ErrnoMessage("fsync", path_));
  }
  size_bytes_ = kWalMagicLen;
  unsynced_records_ = 0;
  unsynced_bytes_ = 0;
  return Status::OK();
}

}  // namespace freqywm
