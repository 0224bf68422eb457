#pragma once

// Runtime SIMD dispatch for the handful of block kernels whose throughput
// decides the per-pair measure budget. Binaries stay baseline x86-64 (CI
// runners and older fleets run them unchanged); the hot kernels carry
// per-function target attributes and are selected once per process from
// CPUID, so AVX2/AVX-512 machines get vectorized LCG loops from the same
// build. On other platforms/toolchains the portable scalar
// fallbacks are the only path.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define RESLOC_X86_SIMD 1
#else
#define RESLOC_X86_SIMD 0
#endif

namespace resloc::math {

#if RESLOC_X86_SIMD
/// AVX-512 subset the kernels use: F for the 512-bit integer core, DQ for
/// 64-bit lane multiplies, BW for byte-granular masks, VL for the 256-bit
/// forms. Evaluated once; __builtin_cpu_supports self-initializes.
inline bool cpu_has_avx512_kernels() {
  static const bool ok = __builtin_cpu_supports("avx512f") &&
                         __builtin_cpu_supports("avx512dq") &&
                         __builtin_cpu_supports("avx512bw") &&
                         __builtin_cpu_supports("avx512vl");
  return ok;
}

inline bool cpu_has_avx2_kernels() {
  static const bool ok = __builtin_cpu_supports("avx2");
  return ok;
}
#else
inline bool cpu_has_avx512_kernels() { return false; }
inline bool cpu_has_avx2_kernels() { return false; }
#endif

}  // namespace resloc::math
