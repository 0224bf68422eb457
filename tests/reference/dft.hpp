// Direct-summation reference for the sliding single-bin tone filter.
//
// ranging::GoertzelSlidingFilter updates one DFT bin in O(1) per sample.
// This is the naive alternative it replaced: recompute the bin by explicit
// summation over the whole window on every step, O(window) per sample -- the
// cost a per-chirp-per-pair DFT would pay. Tests pin the fast path's
// numerics against it and bench_ranging_goertzel times the two. Test and
// bench code only.
#pragma once

#include <cstddef>
#include <vector>

#include "ranging/dft_detector.hpp"

namespace resloc::reference {

/// Single-bin power |X_k|^2 of `window` samples by direct summation, with
/// the twiddle index equal to the sample's position in the buffer.
double direct_bin_power(const double* samples, std::size_t window, int bin);

/// Sliding single-bin detector that recomputes the bin by direct summation
/// over its ring on every step.
class DirectDftFilter {
 public:
  explicit DirectDftFilter(std::size_t window = ranging::SlidingDftFilter::kWindow, int bin = 9);

  /// Consumes one sample and returns the current window's bin power.
  double step(double sample);

 private:
  std::vector<double> samples_;  ///< ring buffer; index = absolute index mod N
  std::size_t n_ = 0;
  int bin_;
};

}  // namespace resloc::reference
