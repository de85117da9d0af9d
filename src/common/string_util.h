#ifndef FREQYWM_COMMON_STRING_UTIL_H_
#define FREQYWM_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace freqywm {

/// Splits `text` on `sep`, keeping empty fields ("a,,b" -> {"a","","b"}).
std::vector<std::string> Split(std::string_view text, char sep);

/// Joins `parts` with `sep` between consecutive elements.
std::string Join(const std::vector<std::string>& parts, char sep);

/// Removes ASCII whitespace from both ends.
std::string_view StripWhitespace(std::string_view text);

/// The one parser for an unsigned integer in outside text (DESIGN.md §11):
/// the whole token must be ASCII digits (no sign, no whitespace) and at
/// most 2^64 - 1. Fails with `InvalidArgument`, which callers re-wrap.
Result<uint64_t> ParseU64(std::string_view text);

/// The one parser for a real number in outside text: the whole token, in
/// `std::from_chars` syntax (no whitespace, no '+'), and the value finite
/// and in double's range. Fails with `InvalidArgument`.
Result<double> ParseFiniteDouble(std::string_view text);

}  // namespace freqywm

#endif  // FREQYWM_COMMON_STRING_UTIL_H_
