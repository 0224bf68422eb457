// Hardware tone detector model.
//
// The MICA sensor board's phase-locked-loop tone detector outputs one bit per
// sample: "tone in the 4.0-4.5 kHz band present". The paper found it
// unreliable -- misses under attenuation, false positives from noise -- but
// with the crucial separation P[b(t)=1 | signal] >> P[b(t)=1 | no signal]
// (Section 3.5) that the accumulation detector exploits. This model samples
// that binary process from a ReceivedWindow.
#pragma once

#include <cstdint>
#include <vector>

#include "acoustics/channel.hpp"
#include "math/rng.hpp"

namespace resloc::acoustics {

/// One interval's exact sample span and the Bernoulli threshold it imposes
/// (ToneDetectorModel::fire_runs working storage).
struct FireSpan {
  std::size_t lo = 0;
  std::size_t hi = 0;
  std::uint64_t threshold = 0;
  bool tone = false;  ///< a tone interval (else a noise burst)
};

/// Reusable buffers for ToneDetectorModel::fire_runs and the sampled-audio
/// envelope; keep one per worker thread and reuse it across a campaign's
/// pairs.
struct DetectorScratch {
  std::vector<std::uint8_t> burst;      ///< 1 = a noise burst covers the sample
  std::vector<FireSpan> fire_spans;     ///< every interval's span (fire_runs)
  std::vector<std::size_t> fire_edges;  ///< sorted span edges (fire_runs)
};

/// Conservative sample-index bracket of [start_s, end_s) within a window of
/// `num_samples` starting at `window_start_s` with period `sample_period_s`:
/// one sample of slack on each side absorbs the division rounding, and the
/// exact edge refinement in interval_sample_span decides inside it. Shared by
/// the hardware detector model and the software (Goertzel) path so both
/// rasterize intervals identically.
void sample_bracket(double window_start_s, double sample_period_s, std::size_t num_samples,
                    double start_s, double end_s, std::size_t& lo, std::size_t& hi);

/// Contiguous index range [lo, hi) of the sample set the interval covers.
struct SampleSpan {
  std::size_t lo = 0;
  std::size_t hi = 0;
};

/// Block variant of interval rasterization: the exact index range of every
/// sample whose time t = window_start_s + i * sample_period_s satisfies
/// t >= start_s && t < end_s. Sample times are strictly increasing, so the
/// predicate selects a contiguous range; the bracket is refined at its two
/// edges with the same exact comparison the retired per-sample loop applied
/// at every index, which is why callers can fill [lo, hi) wholesale and
/// produce bit-identical rasterizations. All interval rasterization
/// (hardware detector model, software envelope) goes through here so the
/// paths cannot drift apart.
SampleSpan interval_sample_span(double window_start_s, double sample_period_s,
                                std::size_t num_samples, double start_s, double end_s);

/// Samples the binary tone-detector output over a received window.
class ToneDetectorModel {
 public:
  /// `sample_rate_hz` is the rate at which the microcontroller polls the
  /// detector (16 kHz in the paper's experiments).
  ToneDetectorModel(EnvironmentProfile env, double sample_rate_hz = 16000.0);

  /// False-positive floor of a faulty microphone: persistent elevated false
  /// positives (Section 3.4, source 3/7), folded into both off-tone rates.
  static constexpr double kFaultyMicFalsePositiveRate = 0.15;

  /// The window's binary detector output as ascending Bernoulli threshold
  /// runs (see math::BernoulliRun) covering [0, num_samples): sample i fires
  /// with the probability of the strongest tone covering it, else the noise
  /// burst rate, else the base false-positive rate, a faulty mic's floor
  /// folded into both off-tone rates. Each stretch between interval edges
  /// takes the max threshold of the tones covering it (threshold-of-
  /// probability is monotone in SNR, so max of thresholds equals the
  /// threshold of the best-SNR max, bit for bit). Adjacent equal stretches
  /// merge. Costs O(intervals^2) with a handful of intervals per window, not
  /// O(num_samples), and consumes no randomness; pair it with
  /// Rng::fill_bernoulli_mask_block, which draws one uniform per sample into
  /// the fired bitmask SignalAccumulator::record_chirp adds.
  void fire_runs(const ReceivedWindow& window, std::size_t num_samples, const MicUnit& mic,
                 DetectorScratch& scratch, std::vector<resloc::math::BernoulliRun>& runs) const;

  double sample_rate_hz() const { return sample_rate_hz_; }
  double sample_period_s() const { return 1.0 / sample_rate_hz_; }

 private:
  EnvironmentProfile env_;
  double sample_rate_hz_;
};

}  // namespace resloc::acoustics
