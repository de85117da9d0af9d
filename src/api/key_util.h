#ifndef FREQYWM_API_KEY_UTIL_H_
#define FREQYWM_API_KEY_UTIL_H_

#include <cstdint>
#include <cstdio>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/string_util.h"

namespace freqywm {

/// Helpers shared by the baseline schemes' key (de)serializers: their keys
/// are flat "name value" line files behind a magic line.

/// Upper bound on a WM-OBT partition count, from options or from a key:
/// embed and detect allocate per-partition state, so an unchecked count
/// would drive a giant allocation.
inline constexpr uint64_t kWmObtMaxPartitions = uint64_t{1} << 20;

/// Upper bounds on the WM-OBT GA options: embed sizes its population
/// buffers by `population` (times the partition size) and runs
/// `generations` rounds per partition, so unchecked values would drive a
/// giant allocation or an endless embed.
inline constexpr uint64_t kWmObtMaxPopulation = uint64_t{1} << 12;
inline constexpr uint64_t kWmObtMaxGenerations = uint64_t{1} << 16;

/// Renders watermark bits as a compact bit string ("11010").
inline std::string BitsToString(const std::vector<int>& bits) {
  std::string out;
  out.reserve(bits.size());
  for (int b : bits) out.push_back(b ? '1' : '0');
  return out;
}

/// Parses a bit string; fails on empty input or non-binary characters.
inline Result<std::vector<int>> ParseBitString(std::string_view text) {
  if (text.empty()) {
    return Status::InvalidArgument("bit string must be non-empty");
  }
  std::vector<int> bits;
  bits.reserve(text.size());
  for (char c : text) {
    if (c != '0' && c != '1') {
      return Status::InvalidArgument("bit string must contain only 0/1");
    }
    bits.push_back(c == '1' ? 1 : 0);
  }
  return bits;
}

/// Round-trip-exact double formatting for key files.
inline std::string FormatDouble(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return std::string(buf);
}

/// Parses "<magic>\n(<name> <value>\n)*" into a field map. The magic line
/// must match exactly (modulo surrounding whitespace); duplicate fields
/// are corruption.
///
/// Key files travel between platforms and editors, so the parser is
/// liberal in the whitespace dimension only: lines may end in CRLF (the
/// trailing '\r' is stripped) and name/value may be separated by any run
/// of spaces or tabs — a tab-separated key written on another platform is
/// the same key, not a malformed one.
inline Result<std::map<std::string, std::string>> ParseKeyFields(
    const std::string& payload, const std::string& magic) {
  // Compare the magic with every run of spaces/tabs collapsed to one
  // space, so "wm-obt-key\tv1\r\n" still identifies as "wm-obt-key v1".
  auto collapse = [](std::string_view text) {
    std::string out;
    bool in_gap = false;
    for (char c : StripWhitespace(text)) {
      if (c == ' ' || c == '\t') {
        in_gap = true;
        continue;
      }
      if (in_gap) out.push_back(' ');
      in_gap = false;
      out.push_back(c);
    }
    return out;
  };
  std::istringstream in(payload);
  std::string line;
  if (!std::getline(in, line) || collapse(line) != collapse(magic)) {
    return Status::Corruption("bad key magic (want '" + magic + "')");
  }
  std::map<std::string, std::string> fields;
  while (std::getline(in, line)) {
    std::string_view stripped = StripWhitespace(line);
    if (stripped.empty()) continue;
    size_t sep = stripped.find_first_of(" \t");
    if (sep == std::string_view::npos || sep == 0) {
      return Status::Corruption("malformed key line '" + line + "'");
    }
    std::string name(stripped.substr(0, sep));
    std::string_view value = StripWhitespace(stripped.substr(sep + 1));
    if (!fields.emplace(name, std::string(value)).second) {
      return Status::Corruption("duplicate key field '" + name + "'");
    }
  }
  return fields;
}

/// Fetches a required field from a parsed key map.
inline Result<std::string> RequireField(
    const std::map<std::string, std::string>& fields,
    const std::string& name) {
  auto it = fields.find(name);
  if (it == fields.end()) {
    return Status::Corruption("key is missing field '" + name + "'");
  }
  return it->second;
}

/// Fetches a required numeric field through `parse` (`ParseU64` or
/// `ParseFiniteDouble`); a value that does not parse is "bad <name>".
template <typename T>
Result<T> RequireNumericField(const std::map<std::string, std::string>& fields,
                              const std::string& name,
                              Result<T> (*parse)(std::string_view)) {
  FREQYWM_ASSIGN_OR_RETURN(std::string text, RequireField(fields, name));
  Result<T> value = parse(text);
  if (!value.ok()) return Status::Corruption("bad " + name);
  return value;
}

}  // namespace freqywm

#endif  // FREQYWM_API_KEY_UTIL_H_
