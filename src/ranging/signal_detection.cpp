#include "ranging/signal_detection.hpp"

#include <algorithm>

namespace resloc::ranging {

SignalAccumulator::SignalAccumulator(std::size_t num_samples) { reset(num_samples); }

void SignalAccumulator::reset(std::size_t num_samples) {
  n_ = num_samples;
  planes_.assign(kPlanes * ((num_samples + 63) / 64), 0);
  chirps_ = 0;
}

void SignalAccumulator::record_chirp(const std::uint64_t* fired) {
  if (chirps_ >= kMaxChirps) return;  // 4-bit counters are full
  ++chirps_;
  // Ripple-carry add of the fired bits, plane by plane. At most 15 chirps
  // are added, so no carry leaves the top plane.
  for (std::size_t w = 0; w < planes_.size() / kPlanes; ++w) {
    std::uint64_t carry = fired[w];
    for (std::size_t b = 0; b < kPlanes; ++b) {
      std::uint64_t& plane = planes_[kPlanes * w + b];
      const std::uint64_t next = plane & carry;
      plane ^= carry;
      carry = next;
    }
  }
}

int SignalAccumulator::count(std::size_t i) const {
  const std::uint64_t* word = &planes_[kPlanes * (i / 64)];
  int c = 0;
  for (std::size_t b = 0; b < kPlanes; ++b) {
    c |= static_cast<int>((word[b] >> (i % 64)) & 1u) << b;
  }
  return c;
}

void SignalAccumulator::at_least(int threshold, std::uint64_t* mask) const {
  const auto t = static_cast<unsigned>(std::clamp(threshold, 0, 16));
  const std::size_t words = planes_.size() / kPlanes;
  for (std::size_t w = 0; w < words; ++w) {
    // Bit-sliced count >= t, most significant plane first: `greater` holds
    // the samples already above t's leading bits, `equal` those that match
    // them so far. A t of 16 needs a fifth bit no count has.
    std::uint64_t greater = 0;
    std::uint64_t equal = t < 16 ? ~std::uint64_t{0} : 0;
    for (std::size_t b = kPlanes; b-- > 0;) {
      const std::uint64_t plane = planes_[kPlanes * w + b];
      if ((t >> b) & 1u) {
        equal &= plane;
      } else {
        greater |= equal & plane;
        equal &= ~plane;
      }
    }
    mask[w] = greater | equal;
  }
  if (n_ % 64 != 0) mask[words - 1] &= (std::uint64_t{1} << (n_ % 64)) - 1;
}

void SignalScanner::reset(const SignalAccumulator& counts, const DetectionParams& params) {
  qualifying_.resize((counts.size() + 63) / 64);
  params_ = params;
  n_ = static_cast<int>(counts.size());
  start_ = 0;
  counts.at_least(params.threshold, qualifying_.data());
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
