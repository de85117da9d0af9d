#include "analysis/posix_io.h"

#include <cerrno>
#include <cstring>

#include <unistd.h>

namespace freqywm {
namespace posix_io {

std::string ErrnoMessage(const char* what, const std::string& path) {
  return std::string(what) + " '" + path + "': " + std::strerror(errno);
}

Status WriteAll(int fd, std::string_view data, const std::string& path) {
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Unavailable(ErrnoMessage("write", path));
    }
    off += static_cast<size_t>(n);
  }
  return Status::OK();
}

Result<std::string> ReadWhole(int fd, const std::string& path) {
  std::string text;
  char buf[1 << 16];
  while (true) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Unavailable(ErrnoMessage("read", path));
    }
    if (n == 0) break;
    text.append(buf, static_cast<size_t>(n));
  }
  return text;
}

}  // namespace posix_io
}  // namespace freqywm
