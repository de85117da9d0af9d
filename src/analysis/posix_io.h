#ifndef FREQYWM_ANALYSIS_POSIX_IO_H_
#define FREQYWM_ANALYSIS_POSIX_IO_H_

#include <string>
#include <string_view>

#include "common/result.h"
#include "common/status.h"

// Internal to analysis/: the POSIX file helpers shared by the snapshot
// side (registry_io.cc) and the log side (wal.cc) of durability. Fault
// sites stay with their callers.

namespace freqywm {
namespace posix_io {

/// "<what> '<path>': <strerror(errno)>".
std::string ErrnoMessage(const char* what, const std::string& path);

/// Writes all of `data` to `fd`, resuming on EINTR and short writes.
Status WriteAll(int fd, std::string_view data, const std::string& path);

/// Reads `fd` from its current offset to end of file, resuming on EINTR.
/// Does not close `fd`.
Result<std::string> ReadWhole(int fd, const std::string& path);

}  // namespace posix_io
}  // namespace freqywm

#endif  // FREQYWM_ANALYSIS_POSIX_IO_H_
