// Per-sample reference implementations of the ranging measure path.
//
// The production measure path runs every chirp window as block kernels: a
// Bernoulli bitmask over threshold runs for the hardware detector, staged
// synthesis and scan blocks for the sampled-audio detectors. These are the
// straightforward per-sample loops the kernels replaced, kept as oracles:
// they draw the identical RNG stream in the identical order, so tests
// require bit-equal estimates, counters and post-call generator state, and
// the ratio benches time the kernels against them. Test and bench code only.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "acoustics/channel.hpp"
#include "acoustics/environment.hpp"
#include "acoustics/signal_synth.hpp"
#include "acoustics/units.hpp"
#include "math/rng.hpp"
#include "ranging/matched_filter.hpp"
#include "ranging/ranging_service.hpp"

namespace resloc::reference {

/// Working buffers of the per-sample hardware detector.
struct DetectorBuffers {
  std::vector<double> best_snr;     ///< strongest audible tone per sample
  std::vector<std::uint8_t> tone;   ///< 1 = some tone interval covers the sample
  std::vector<std::uint8_t> burst;  ///< 1 = a noise burst covers the sample
};

/// The hardware tone detector sampled one sample at a time: each interval
/// rasterized onto its exact sample span, then one rng.bernoulli(p_i) per
/// sample with p_i the detection probability of the strongest tone covering
/// it, else the noise-burst rate, else the base false-positive rate (a
/// faulty mic raising both off-tone rates to its floor). `out` receives the
/// num_samples binary outputs.
void sample_window_into(const acoustics::EnvironmentProfile& env, double sample_rate_hz,
                        const acoustics::ReceivedWindow& window, std::size_t num_samples,
                        const acoustics::MicUnit& mic, math::Rng& rng, DetectorBuffers& buffers,
                        std::vector<bool>& out);

/// sample_window_into with its own buffers.
std::vector<bool> sample_window(const acoustics::EnvironmentProfile& env, double sample_rate_hz,
                                const acoustics::ReceivedWindow& window, std::size_t num_samples,
                                const acoustics::MicUnit& mic, math::Rng& rng);

/// The restart-based detect-signal of Figure 3: the index of the first
/// sample of the first window of `params.window` consecutive samples, starting
/// at or after `start_index`, that holds at least `params.min_detections`
/// samples with count >= params.threshold and whose first sample qualifies;
/// -1 if none. One sliding count, primed at `start_index` -- the oracle of
/// ranging::SignalScanner, whose next() must return what this returns
/// restarted at the previous result + 1.
int detect_signal(const std::vector<std::uint8_t>& samples, const ranging::DetectionParams& params,
                  int start_index = 0);

/// Pattern verification byte by byte, the oracle of
/// ranging::SignalScanner::quiet_before: true when the `gap` samples before
/// `index` hold at most `max_noisy` samples with count >= threshold (false
/// for index < 0).
bool verify_preceding_silence(const std::vector<std::uint8_t>& samples, int index, int gap,
                              int threshold, int max_noisy);

/// Working buffers of measure_per_sample, reused across calls with one
/// service (a campaign worker keeps one).
struct MeasureScratch {
  std::vector<double> starts;
  acoustics::ExchangeChannel exchange;
  acoustics::ReceivedWindow received;
  DetectorBuffers detector;
  std::vector<bool> fired;
  std::vector<std::uint8_t> counts;
  std::vector<double> amplitude;
  std::vector<std::uint8_t> burst;
  std::vector<double> noise;
  std::vector<double> audio;
  /// sin/cos(2*pi*f/fs*i) over the window, built here rather than read from
  /// the service so the oracle stays independent of the production tables;
  /// keyed by what they were built for.
  std::vector<double> tone_sin;
  std::vector<double> tone_cos;
  double tone_frequency_hz = 0.0;
  double tone_sample_rate_hz = 0.0;
  std::vector<std::uint8_t> marks;
  std::optional<ranging::MatchedFilterNcc> ncc;
};

/// service.measure() with every chirp window run sample by sample: the
/// per-sample hardware detector above, or a fused synthesize-and-filter loop
/// stepping the Goertzel detector, or a per-sample synthesis loop feeding the
/// NCC scanner; a per-sample 4-bit accumulate into scratch.counts; and a
/// restart-based detect_signal scan over the pattern check's rejections.
ranging::RangingAttempt measure_per_sample(const ranging::RangingService& service,
                                           double true_distance_m,
                                           const acoustics::SpeakerUnit& speaker,
                                           const acoustics::MicUnit& mic, math::Rng& rng,
                                           MeasureScratch& scratch);

}  // namespace resloc::reference
