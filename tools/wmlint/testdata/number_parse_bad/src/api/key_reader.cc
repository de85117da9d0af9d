#include <cstdlib>
#include <string>

namespace fixture {

// Hand-rolled parses of outside text: each skips a check the one parser
// makes (sign, partial token, overflow, non-finite).
unsigned long long Seed(const std::string& text) {
  return std::stoull(text);
}

double Threshold(const std::string& text) {
  return strtod(text.c_str(), nullptr);
}

int Position(const std::string& text) { return ::atoi(text.c_str()); }

}  // namespace fixture
