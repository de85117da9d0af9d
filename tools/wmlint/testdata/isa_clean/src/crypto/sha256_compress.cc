#include <cpuid.h>
#include <immintrin.h>

namespace fixture {

// The dispatching file: its kernels run only after the CPUID probe.
bool HasAvx2() {
  unsigned int a = 0, b = 0, c = 0, d = 0;
  return __get_cpuid_count(7, 0, &a, &b, &c, &d) && ((b >> 5) & 1);
}

__attribute__((target("avx2"))) int Sum8(const int* x) {
  __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x));
  return _mm256_extract_epi32(v, 0);
}

}  // namespace fixture
