// Dispatch variants of Rng::fill_bernoulli_mask_block,
// Rng::fill_uniform_bits_block and the ziggurat fast path of
// Rng::fill_gaussian_block.
//
// Internal to the math layer: rng.cpp picks one variant per call from CPUID,
// the kernel tests include this header to check every variant the host can
// run against the sequential definition, and bench_ranging_goertzel to time
// the dispatched Bernoulli mask against the portable one. Everything else
// calls the Rng members. The avx2 and avx512 variants require cpu_has_avx2_kernels() and
// cpu_has_avx512_kernels().
#pragma once

#include <cstddef>
#include <cstdint>

#include "math/rng.hpp"
#include "math/simd_dispatch.hpp"

namespace resloc::math {

/// The raw LCG words of a generator, so a test can run one variant on it.
struct RngState {
  static std::uint64_t& state(Rng& rng) { return rng.state_; }
  static std::uint64_t inc(const Rng& rng) { return rng.inc_; }
};

namespace uniform_bits {

/// Every variant writes `groups` * 8 uniform_bits() draws of the PCG32
/// stream at LCG state `state` with increment `inc` to `out` and returns the
/// LCG state after them.
std::uint64_t portable(std::uint64_t state, std::uint64_t inc, std::uint64_t* out,
                       std::size_t groups);
#if RESLOC_X86_SIMD
std::uint64_t avx2(std::uint64_t state, std::uint64_t inc, std::uint64_t* out,
                   std::size_t groups);
std::uint64_t avx512(std::uint64_t state, std::uint64_t inc, std::uint64_t* out,
                     std::size_t groups);
#endif

}  // namespace uniform_bits

namespace bernoulli_mask {

/// Every variant draws n samples from the PCG32 stream at LCG state `state`
/// with increment `inc`, writes `mask` as Rng::fill_bernoulli_mask_block
/// documents, and returns the LCG state after the 2n raw steps.
std::uint64_t portable(std::uint64_t state, std::uint64_t inc, const BernoulliRun* runs,
                       std::size_t n, std::uint64_t* mask);
#if RESLOC_X86_SIMD
std::uint64_t avx2(std::uint64_t state, std::uint64_t inc, const BernoulliRun* runs,
                   std::size_t n, std::uint64_t* mask);
std::uint64_t avx512(std::uint64_t state, std::uint64_t inc, const BernoulliRun* runs,
                     std::size_t n, std::uint64_t* mask);
#endif

}  // namespace bernoulli_mask

namespace gaussian_fast_path {

/// Every variant takes `out` holding n uniform_bits() words (as bit
/// patterns, the state fill_gaussian_block leaves after its step 1) and
/// turns them in place into the block's normals: steps 2-4 of the ziggurat
/// v1 stream, the rejected words resolved in index order with sequential
/// draws from `rng`.
void portable(Rng& rng, double* out, std::size_t n);
#if RESLOC_X86_SIMD
void avx512(Rng& rng, double* out, std::size_t n);
#endif

}  // namespace gaussian_fast_path
}  // namespace resloc::math
