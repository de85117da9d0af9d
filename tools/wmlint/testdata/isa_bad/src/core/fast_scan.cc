#include <immintrin.h>

namespace fixture {

// A kernel outside the dispatching file: reached on any CPU.
__attribute__((target("avx2"))) int Sum8(const int* x) {
  __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x));
  return _mm256_extract_epi32(v, 0);
}

[[gnu::target("avx512f")]] int Sum16(const int* x) { return x[0]; }

int Sum(const int* x) {
  return __builtin_cpu_supports("avx2") ? Sum8(x) : x[0];
}

}  // namespace fixture
