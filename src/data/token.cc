#include "data/token.h"

#include "common/string_util.h"

namespace freqywm {

Token JoinAttributes(const std::vector<std::string>& attributes) {
  return Join(attributes, kTokenAttributeSeparator);
}

}  // namespace freqywm
