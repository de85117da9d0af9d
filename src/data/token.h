#ifndef FREQYWM_DATA_TOKEN_H_
#define FREQYWM_DATA_TOKEN_H_

#include <string>
#include <vector>

namespace freqywm {

/// A token is any repeating value in a dataset (a URL, a taxi id, an age, or
/// a joined combination of attributes). FreqyWM is token-type agnostic, so
/// the library represents every token as an opaque byte string.
using Token = std::string;

/// Separator used when joining several attributes into one composite token
/// (paper §IV-C, e.g. `[Age, WorkClass]`). ASCII Unit Separator never occurs
/// in realistic attribute values, so joins are unambiguous.
inline constexpr char kTokenAttributeSeparator = '\x1f';

/// Joins multi-dimensional attribute values into a single composite token.
Token JoinAttributes(const std::vector<std::string>& attributes);

}  // namespace freqywm

#endif  // FREQYWM_DATA_TOKEN_H_
