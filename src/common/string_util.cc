#include "common/string_util.h"

#include <charconv>
#include <cmath>

namespace freqywm {

std::vector<std::string> Split(std::string_view text, char sep) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (true) {
    size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      parts.emplace_back(text.substr(start));
      break;
    }
    parts.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
  return parts;
}

std::string Join(const std::vector<std::string>& parts, char sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.push_back(sep);
    out += parts[i];
  }
  return out;
}

std::string_view StripWhitespace(std::string_view text) {
  size_t b = 0;
  size_t e = text.size();
  while (b < e && (text[b] == ' ' || text[b] == '\t' || text[b] == '\r' ||
                   text[b] == '\n')) {
    ++b;
  }
  while (e > b && (text[e - 1] == ' ' || text[e - 1] == '\t' ||
                   text[e - 1] == '\r' || text[e - 1] == '\n')) {
    --e;
  }
  return text.substr(b, e - b);
}

Result<uint64_t> ParseU64(std::string_view text) {
  // Unsigned from_chars takes digits only: no sign, space or prefix.
  uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error == std::errc::invalid_argument || stop != end) {
    return Status::InvalidArgument("'" + std::string(text) +
                                   "' is not a non-negative integer");
  }
  if (error == std::errc::result_out_of_range) {
    return Status::InvalidArgument("'" + std::string(text) +
                                   "' overflows uint64");
  }
  return value;
}

Result<double> ParseFiniteDouble(std::string_view text) {
  // from_chars takes no whitespace and no '+', reads '.' in any locale,
  // and reports a value beyond double's range as out of range.
  double value = 0;
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error == std::errc::invalid_argument || stop != end) {
    return Status::InvalidArgument("'" + std::string(text) +
                                   "' is not a number");
  }
  if (error == std::errc::result_out_of_range || !std::isfinite(value)) {
    return Status::InvalidArgument("'" + std::string(text) +
                                   "' is not a finite number");
  }
  return value;
}

}  // namespace freqywm
