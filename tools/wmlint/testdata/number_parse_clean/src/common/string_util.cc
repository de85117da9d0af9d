#include <cstdlib>
#include <string>

namespace fixture {

// The one parser may call the family itself.
double ParseFiniteDouble(const std::string& text) {
  return std::strtod(text.c_str(), nullptr);
}

}  // namespace fixture
