#include "ranging/signal_detection.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "math/simd_dispatch.hpp"

#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ != __ORDER_LITTLE_ENDIAN__
#error "SignalScanner's counter packing loads eight counters per little-endian word"
#endif

#if RESLOC_X86_SIMD
#include <immintrin.h>
#endif

namespace resloc::ranging {

namespace {

#if RESLOC_X86_SIMD

/// AVX-512 saturating 4-bit counter update: 64 counters per iteration. The
/// fired mask and the < 15 saturation test are byte-mask compares, the
/// update one masked packed-byte add.
__attribute__((target("avx512f,avx512bw")))
void accumulate_fired_avx512(std::uint8_t* s, const std::uint8_t* fired, std::size_t n) {
  const __m512i one = _mm512_set1_epi8(1);
  const __m512i fifteen = _mm512_set1_epi8(15);
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    const __m512i sv = _mm512_loadu_si512(s + i);
    const __mmask64 hit =
        _mm512_test_epi8_mask(_mm512_loadu_si512(fired + i), _mm512_set1_epi8(-1)) &
        _mm512_cmplt_epu8_mask(sv, fifteen);
    _mm512_storeu_si512(s + i, _mm512_mask_add_epi8(sv, hit, sv, one));
  }
  for (; i < n; ++i) {
    s[i] += static_cast<std::uint8_t>((fired[i] != 0) & (s[i] < 15));
  }
}

/// AVX-512 counter update straight from a fired bitmask: each mask word is
/// the byte mask of 64 counters, the last word's live bytes masked in.
__attribute__((target("avx512f,avx512bw")))
void accumulate_mask_avx512(std::uint8_t* s, const std::uint64_t* mask, std::size_t n) {
  const __m512i one = _mm512_set1_epi8(1);
  const __m512i fifteen = _mm512_set1_epi8(15);
  for (std::size_t i = 0; i < n; i += 64) {
    const __mmask64 live = n - i >= 64 ? ~__mmask64{0} : (__mmask64{1} << (n - i)) - 1;
    const __m512i sv = _mm512_maskz_loadu_epi8(live, s + i);
    const __mmask64 hit = mask[i / 64] & live & _mm512_cmplt_epu8_mask(sv, fifteen);
    _mm512_mask_storeu_epi8(s + i, hit, _mm512_add_epi8(sv, one));
  }
}

#endif  // RESLOC_X86_SIMD

/// Saturating 4-bit counter update for a whole chirp window: one byte add
/// per sample, no branches.
void accumulate_fired(std::uint8_t* s, const std::uint8_t* fired, std::size_t n) {
#if RESLOC_X86_SIMD
  if (resloc::math::cpu_has_avx512_kernels()) {
    accumulate_fired_avx512(s, fired, n);
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) {
    s[i] += static_cast<std::uint8_t>((fired[i] != 0) & (s[i] < 15));
  }
}

/// Saturating counter update from a fired bitmask (bit i of mask[i / 64]).
void accumulate_mask(std::uint8_t* s, const std::uint64_t* mask, std::size_t n) {
#if RESLOC_X86_SIMD
  if (resloc::math::cpu_has_avx512_kernels()) {
    accumulate_mask_avx512(s, mask, n);
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) {
    const auto fired = static_cast<std::uint8_t>((mask[i / 64] >> (i % 64)) & 1u);
    s[i] += static_cast<std::uint8_t>(fired & (s[i] < 15));
  }
}

/// Bit i of mask[i / 64] = (s[i] >= threshold), eight bytes per step: with
/// each byte's high bit forced on, subtracting t <= 128 cannot borrow across
/// bytes and keeps the high bit iff b >= t (or b >= 128); for t > 128, b >= t
/// iff b >= 128 and b - 128 >= t - 128. A multiply gathers the high bits.
void pack_qualifying(const std::uint8_t* s, std::size_t n, int threshold, std::uint64_t* mask) {
  constexpr std::uint64_t kLow = 0x0101010101010101;
  constexpr std::uint64_t kHigh = kLow << 7;
  const auto t = static_cast<std::uint64_t>(std::min(std::max(threshold, 0), 256));
  const bool low = t <= 128;
  const std::uint64_t sub = (low ? t : t - 128) * kLow;
  std::fill(mask, mask + (n + 63) / 64, std::uint64_t{0});
  for (std::size_t i = 0; i < n; i += 8) {
    std::uint64_t x = 0;
    if (n - i >= 8) {
      std::memcpy(&x, s + i, 8);  // byte k in bits 8k..8k+7 (little-endian host)
    } else {
      for (std::size_t k = 0; i + k < n; ++k) x |= std::uint64_t{s[i + k]} << (8 * k);
    }
    const std::uint64_t d = (x | kHigh) - sub;
    const std::uint64_t hi = (low ? d | x : d & x) & kHigh;
    mask[i / 64] |= (((hi >> 7) * 0x0102040810204080) >> 56) << (i % 64);
  }
  if (n % 64 != 0) mask[n / 64] &= (std::uint64_t{1} << (n % 64)) - 1;
}

}  // namespace

SignalAccumulator::SignalAccumulator(std::size_t num_samples) { reset(num_samples); }

void SignalAccumulator::reset(std::size_t num_samples) {
  samples_.assign(num_samples, 0);
  fired_mask_.resize((num_samples + 63) / 64);
  chirps_ = 0;
}

void SignalAccumulator::record_chirp_block(const std::uint8_t* fired, std::size_t n) {
  assert(n == samples_.size());
  if (chirps_ >= kMaxChirps) return;  // 4-bit counters are full
  ++chirps_;
  accumulate_fired(samples_.data(), fired, n);
}

void SignalAccumulator::record_chirp_bernoulli(
    resloc::math::Rng& rng, const std::vector<resloc::math::BernoulliRun>& runs) {
  const std::size_t n = samples_.size();
  // Draw one bernoulli per sample whether or not the counters are full, so
  // a chirp's RNG consumption never depends on how many came before it.
  rng.fill_bernoulli_mask_block(runs, n, fired_mask_.data());
  if (chirps_ >= kMaxChirps) return;
  ++chirps_;
  accumulate_mask(samples_.data(), fired_mask_.data(), n);
}

void SignalScanner::reset(const std::vector<std::uint8_t>& samples, const DetectionParams& params) {
  qualifying_.resize((samples.size() + 63) / 64);
  params_ = params;
  n_ = static_cast<int>(samples.size());
  start_ = 0;
  pack_qualifying(samples.data(), samples.size(), params.threshold, qualifying_.data());
}

int SignalScanner::count_qualifying(int lo, int hi) const {
  auto w = static_cast<std::size_t>(lo / 64);
  const auto last = static_cast<std::size_t>((hi - 1) / 64);
  std::uint64_t bits = qualifying_[w] & (~std::uint64_t{0} << (lo % 64));
  int count = 0;
  for (; w < last; bits = qualifying_[++w]) count += __builtin_popcountll(bits);
  if (hi % 64 != 0) bits &= (std::uint64_t{1} << (hi % 64)) - 1;
  return count + __builtin_popcountll(bits);
}

int SignalScanner::next() {
  const int m = params_.window;
  if (m <= 0) return -1;
  // A window starting at s qualifies when s itself qualifies and at least
  // min_detections of [s, s + m) do, so only qualifying starts are examined:
  // jump to the next set bit, then popcount its window.
  const int last_start = n_ - m;
  while (start_ <= last_start) {
    auto w = static_cast<std::size_t>(start_ / 64);
    std::uint64_t bits = qualifying_[w] & (~std::uint64_t{0} << (start_ % 64));
    while (bits == 0 && ++w < qualifying_.size()) bits = qualifying_[w];
    if (bits == 0) break;
    const int s = static_cast<int>(w * 64) + __builtin_ctzll(bits);
    if (s > last_start) break;
    start_ = s + 1;
    if (count_qualifying(s, s + m) >= params_.min_detections) return s;
  }
  return -1;
}

bool SignalScanner::quiet_before(int index, int gap, int max_noisy) const {
  if (index < 0) return false;
  const int lo = std::max(0, index - gap);
  return (lo < index ? count_qualifying(lo, index) : 0) <= max_noisy;
}

}  // namespace resloc::ranging
