// AVX-512F building blocks shared by the int64 merge and sort kernels:
// the one CPUID probe that picks their vector path, and the 8-lane
// bitonic compare-exchange step both networks are made of.  Callers
// guard every use with cpu_has_avx512f(); the functions carry their own
// target attribute, so the library builds without -mavx512f.
#pragma once

#if defined(__x86_64__)
#include <immintrin.h>

namespace mlm::sort::detail {

/// Whether the CPU (and OS) support AVX-512F; probed once.
inline bool cpu_has_avx512f() {
  static const bool has = __builtin_cpu_supports("avx512f");
  return has;
}

/// One bitonic compare-exchange level: lane i pairs with lane
/// partner[i]; lanes in `upper` keep the larger of the pair, the others
/// the smaller.  (The masked forms avoid GCC 12's intrinsics with an
/// undefined source, which trip -Wmaybe-uninitialized.)
__attribute__((target("avx512f"))) inline __m512i bitonic_level(
    __m512i v, __m512i partner, __mmask8 upper) {
  const __m512i p = _mm512_permutex2var_epi64(v, partner, v);
  const __m512i lo =
      _mm512_mask_min_epi64(v, static_cast<__mmask8>(~upper), v, p);
  return _mm512_mask_max_epi64(lo, upper, v, p);
}

/// Lane-wise signed minimum and maximum (masked forms, as above).
__attribute__((target("avx512f"))) inline __m512i min_epi64(__m512i a,
                                                          __m512i b) {
  return _mm512_mask_min_epi64(a, 0xFF, a, b);
}
__attribute__((target("avx512f"))) inline __m512i max_epi64(__m512i a,
                                                          __m512i b) {
  return _mm512_mask_max_epi64(a, 0xFF, a, b);
}

/// Sorts a bitonic 8-lane vector ascending: three compare-exchange
/// levels at lane distances 4, 2 and 1.
__attribute__((target("avx512f"))) inline __m512i bitonic_sort8(
    __m512i v) {
  v = bitonic_level(v, _mm512_set_epi64(3, 2, 1, 0, 7, 6, 5, 4), 0xF0);
  v = bitonic_level(v, _mm512_set_epi64(5, 4, 7, 6, 1, 0, 3, 2), 0xCC);
  return bitonic_level(v, _mm512_set_epi64(6, 7, 4, 5, 2, 3, 0, 1), 0xAA);
}

}  // namespace mlm::sort::detail
#endif
