#include "ranging/signal_detection.hpp"

#include <algorithm>
#include <cassert>

#include "math/simd_dispatch.hpp"

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

int detect_signal(const std::vector<std::uint8_t>& samples, const DetectionParams& params) {
  return detect_signal(samples, params, 0);
}

int detect_signal(const std::vector<std::uint8_t>& samples, const DetectionParams& params,
                  int start_index) {
  const int n = static_cast<int>(samples.size());
  const int m = params.window;
  if (m <= 0 || start_index < 0 || start_index + m > n) return -1;

  const auto qualifies = [&](int i) { return samples[static_cast<std::size_t>(i)] >= params.threshold; };

  // Prime the sliding count over the first window [start_index, start_index + m).
  int count = 0;
  for (int i = start_index; i < start_index + m; ++i) {
    if (qualifies(i)) ++count;
  }
  if (count >= params.min_detections && qualifies(start_index)) return start_index;

  // Slide: window [start, start + m).
  for (int start = start_index + 1; start + m <= n; ++start) {
    if (qualifies(start - 1)) --count;
    if (qualifies(start + m - 1)) ++count;
    if (count >= params.min_detections && qualifies(start)) return start;
  }
  return -1;
}

SignalScanner::SignalScanner(const std::vector<std::uint8_t>& samples,
                             const DetectionParams& params)
    : samples_(samples), params_(params) {}

int SignalScanner::next() {
  const int n = static_cast<int>(samples_.size());
  const int m = params_.window;
  if (m <= 0) return -1;

  const auto qualifies = [&](int i) {
    return samples_[static_cast<std::size_t>(i)] >= params_.threshold;
  };

  // Invariant: whenever primed_, count_ is the number of qualifying samples
  // in [start_, start_ + m). The count is primed once and slid one position
  // per examined window -- including across next() boundaries, which is what
  // makes the whole rejection loop O(n) instead of O(window * rejections).
  while (start_ + m <= n) {
    if (!primed_) {
      count_ = 0;
      for (int i = start_; i < start_ + m; ++i) {
        if (qualifies(i)) ++count_;
      }
      primed_ = true;
    }
    const bool hit = count_ >= params_.min_detections && qualifies(start_);
    if (start_ + 1 + m <= n) {  // slide to [start_ + 1, start_ + 1 + m)
      if (qualifies(start_)) --count_;
      if (qualifies(start_ + m)) ++count_;
    }
    const int found = start_;
    ++start_;
    if (hit) return found;
  }
  return -1;
}

bool verify_preceding_silence(const std::vector<std::uint8_t>& samples, int index, int gap,
                              int threshold, int max_noisy) {
  if (index < 0) return false;
  const int start = std::max(0, index - gap);
  int noisy = 0;
  for (int i = start; i < index; ++i) {
    if (samples[static_cast<std::size_t>(i)] >= threshold) ++noisy;
  }
  return noisy <= max_noisy;
}

}  // namespace resloc::ranging
