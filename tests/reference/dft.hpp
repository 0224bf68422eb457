// References for the sliding single-bin tone filter.
//
// ranging::GoertzelSlidingFilter updates one DFT bin in O(1) per sample.
// DirectDftFilter is the naive alternative it replaced: recompute the bin by
// explicit summation over the whole window on every step, O(window) per
// sample -- the cost a per-chirp-per-pair DFT would pay. Tests pin the fast
// path's numerics against it and bench_ranging_goertzel times the two.
// GoertzelOracle is the noise-subtracting Goertzel detector written from its
// definition, one sample at a time, sharing no code with the production
// recurrence. Test and bench code only.
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

/// Per-sample oracle of ranging::GoertzelToneDetector, written from its
/// definition in dft_detector.hpp: a ring of the last N samples whose
/// twiddle index is the absolute sample index mod N, one complex
/// multiply-accumulate per sample, an exact direct-sum resync every
/// GoertzelSlidingFilter::kResyncPeriod steps, and metric = |X|^2 -
/// kToneNoiseScale * energy - 1e-6 (the detector's numeric floor). The
/// production detector must match it bit for bit at any block split.
class GoertzelOracle {
 public:
  GoertzelOracle(double tone_frequency_hz, double sample_rate_hz);

  /// Consumes one sample and returns the detection metric.
  double step(double sample);

 private:
  std::vector<double> ring_;
  std::vector<double> cos_;
  std::vector<double> sin_;
  std::size_t k_ = 0;      ///< absolute sample index
  std::size_t steps_ = 0;  ///< steps since the last resync
  double re_ = 0.0;
  double im_ = 0.0;
  double energy_ = 0.0;
};

}  // namespace resloc::reference
