// Software tone detection for platforms without a hardware tone detector
// (Section 3.7 / Figure 9: the XSM signal detection routine).
//
// A sliding-window DFT over the last 36 samples tracks the amplitude of two
// beacon bands at fs/4 and fs/6. These frequencies are chosen so the complex
// roots of unity are (0, +/-1, +/-2, +/- the sqrt(3) absorbed into the output
// scaling), avoiding multiplications on the mote. The wrapper subtracts an
// automatic noise estimate -- the average power across all DFT bins, obtained
// from the window's total energy via Parseval -- so that a positive output
// indicates a tone (the paper: "isolate the amplitude of noise and subtract
// it from the DFT output; a positive result indicates detection of a tone").
//
// Beyond the Figure 9 bands, this header provides the campaign hot path:
//   - GoertzelSlidingFilter: the O(1) per-sample single-bin recurrence (the
//     sliding form of the Goertzel filter) with periodic exact resync so its
//     output never drifts measurably from the direct sum,
//   - GoertzelToneDetector: the noise-subtracting wrapper over the fast path
//     for an arbitrary beacon frequency (the grass campaign chirps at
//     4.3 kHz, which is not one of the two multiplication-free bands).
#pragma once

#include <array>
#include <cstddef>
#include <vector>

namespace resloc::ranging {

/// Band powers produced by one filter step, matching Figure 9's return value
/// [(re4^2 + im4^2), (re6^2 + 3*im6^2)/2].
struct BandPowers {
  double band_fs4 = 0.0;  ///< power around sample_rate / 4
  double band_fs6 = 0.0;  ///< power around sample_rate / 6
};

/// Verbatim implementation of the Figure 9 sliding-DFT filter.
class SlidingDftFilter {
 public:
  static constexpr std::size_t kWindow = 36;  // divisible by both 4 and 6

  SlidingDftFilter() { reset(); }

  /// Resets to the all-zero window (init() in Figure 9).
  void reset();

  /// Consumes one raw sample and returns the two band powers (filter() in
  /// Figure 9).
  BandPowers filter(double sample);

  /// Sum of squared samples in the current window; by Parseval this equals
  /// the mean DFT bin power, used as the automatic noise estimate.
  double window_energy() const { return energy_; }

 private:
  std::array<double, kWindow> samples_{};
  std::size_t n_ = 0;  // index mod 36 (and mod 4 derived from it)
  std::size_t k_ = 0;  // index mod 6
  double re4_ = 0.0, im4_ = 0.0;
  double re6_ = 0.0, im6_ = 0.0;
  double energy_ = 0.0;
};

/// Margin both tone detectors apply to the Parseval noise estimate before
/// subtracting it; higher values demand more dominant tones. For white noise
/// the expected band power roughly equals the window energy, but adjacent
/// sliding-window outputs are strongly correlated, so a margin of ~6x is
/// needed to keep noise excursions from forming detection-length runs.
inline constexpr double kToneNoiseScale = 6.0;

/// Nearest DFT bin of `window` samples at `sample_rate_hz` to a target tone
/// frequency (what a mote picks at compile time; exposed for tests/benches).
int nearest_bin(double tone_frequency_hz, double sample_rate_hz, std::size_t window);

/// Fast sliding single-bin filter: the Goertzel recurrence in its sliding
/// form. With the twiddle phase anchored to the absolute sample index, the
/// sample entering the window and the sample leaving it share one twiddle
/// factor, so each step is a single complex multiply-accumulate:
///     S += (x[t] - x[t-N]) * e^(-j*2*pi*bin*(t mod N)/N)
/// -- the generalization of the Figure 9 trick to bins whose roots of unity
/// are not 0/+-1/+-2. Floating-point drift from the incremental update is
/// bounded by an exact direct-sum resync every kResyncPeriod steps, keeping
/// the output within ~1e-12 of the direct sum while staying O(1) amortized
/// (the O(window) direct-summation filter is the test-only
/// reference::DirectDftFilter).
class GoertzelSlidingFilter {
 public:
  /// Steps between exact recomputations of the running sums.
  static constexpr std::size_t kResyncPeriod = 256;

  explicit GoertzelSlidingFilter(std::size_t window = SlidingDftFilter::kWindow, int bin = 9);

  /// Consumes one sample and returns the current window's bin power.
  double step(double sample);

  /// Sum of squared samples in the current window (Parseval noise estimate).
  double window_energy() const { return energy_; }

  void reset();
  std::size_t window() const { return samples_.size(); }
  int bin() const { return bin_; }

 private:
  friend class GoertzelToneDetector;  // run_block drives run()

  /// The sliding recurrence over x[0, n): after each sample i, calls
  /// emit(i, band power, window energy). step() is run() over one sample.
  /// The running sums, ring index and resync count live in locals for the
  /// whole block, so the stores `emit` makes cannot force them through
  /// memory on every sample.
  template <typename Emit>
  void run(const double* x, std::size_t n, Emit&& emit);

  void resync();

  std::vector<double> samples_;  ///< ring buffer; index = absolute index mod N
  std::vector<double> cos_;      ///< cos(2*pi*bin*i/N) for i in [0, N)
  std::vector<double> sin_;
  std::size_t n_ = 0;
  std::size_t steps_since_resync_ = 0;
  int bin_;
  double re_ = 0.0, im_ = 0.0;
  double energy_ = 0.0;
};

/// Noise-subtracting tone detector for an arbitrary beacon frequency, built
/// on the Goertzel sliding fast path over the Figure 9 window. Drop-in
/// analogue of DftToneDetector for tones off the two multiplication-free
/// Figure 9 bands.
class GoertzelToneDetector {
 public:
  explicit GoertzelToneDetector(double tone_frequency_hz = 4000.0,
                                double sample_rate_hz = 16000.0);

  /// Feeds one sample; returns the noise-subtracted detection metric
  /// (positive indicates a tone).
  double step(double sample);

  /// Block entry point: metric[i] = step(x[i]) for i in [0, n) -- the same
  /// sliding recurrence, resync cadence, and rounding as n scalar calls
  /// (both run GoertzelSlidingFilter's one recurrence loop, here over the
  /// whole contiguous buffer with the running sums held in registers).
  void run_block(const double* x, std::size_t n, double* metric);

  void reset();
  int bin() const { return filter_.bin(); }

 private:
  GoertzelSlidingFilter filter_;
};

/// Noise-subtracting tone detector built on the sliding DFT.
class DftToneDetector {
 public:
  /// `band` selects which Figure 9 band carries the beacon: 4 for fs/4,
  /// 6 for fs/6.
  explicit DftToneDetector(int band = 4);

  /// Feeds one sample; returns the noise-subtracted detection metric
  /// (positive indicates a tone).
  double step(double sample);

  /// Runs the detector over a whole waveform and returns the per-sample
  /// metric series.
  std::vector<double> run(const std::vector<double>& waveform);

  /// Counts distinct detections in a metric series: a detection is a run of
  /// at least `min_run` consecutive samples with metric > 0; runs separated
  /// by fewer than `merge_gap` samples are merged. The default min_run of 16
  /// (1 ms at 16 kHz, well under the 8 ms chirp) suppresses short
  /// noise-excursion runs.
  static int count_detections(const std::vector<double>& metric, int min_run = 16,
                              int merge_gap = 16);

  void reset();

 private:
  SlidingDftFilter filter_;
  int band_;
};

}  // namespace resloc::ranging
