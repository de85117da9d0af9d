#include <vector>

#include "vendor/options.h"

namespace fixture {

// Other attributes, a `target` that is not one, and the constructs in
// comments (#include <immintrin.h>, __get_cpuid) or strings are not ISA code.
__attribute__((hot)) int Scan(const vendor::Options& options,
                              const std::vector<int>& x) {
  const char* doc = "__attribute__((target(\"avx2\")))";
  int target = options.target(doc);
  return target + static_cast<int>(x.size());
}

}  // namespace fixture
