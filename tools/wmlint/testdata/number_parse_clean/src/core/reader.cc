#include <string>

#include "vendor/converter.h"

namespace fixture {

// Member calls, comments ("std::stoull(") and strings are not the family,
// nor is a name that only starts like it.
int Read(const vendor::Converter& c, const vendor::Converter* p,
         const std::string& text) {
  const char* doc = "atoi(text) is banned";
  int stod_count = 0;
  return c.stoi(text) + p->stoi(doc) + stod_count;
}

}  // namespace fixture
