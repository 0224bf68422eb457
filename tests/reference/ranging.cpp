#include "reference/ranging.hpp"

#include <algorithm>
#include <cmath>

#include "acoustics/chirp_pattern.hpp"
#include "acoustics/propagation.hpp"
#include "acoustics/tone_detector.hpp"
#include "math/constants.hpp"
#include "ranging/signal_detection.hpp"
#include "ranging/tdoa.hpp"
#include "ranging/window_model.hpp"
#include "reference/dft.hpp"

namespace resloc::reference {

namespace rd = ranging::detail;

void sample_window_into(const acoustics::EnvironmentProfile& env, double sample_rate_hz,
                        const acoustics::ReceivedWindow& window, std::size_t num_samples,
                        const acoustics::MicUnit& mic, math::Rng& rng, DetectorBuffers& buffers,
                        std::vector<bool>& out) {
  const double dt = 1.0 / sample_rate_hz;
  buffers.best_snr.assign(num_samples, -1e9);
  buffers.tone.assign(num_samples, 0);
  buffers.burst.assign(num_samples, 0);
  for (const acoustics::SignalInterval& s : window.signals) {
    const acoustics::SampleSpan span =
        acoustics::interval_sample_span(window.start_s, dt, num_samples, s.start_s, s.end_s);
    for (std::size_t i = span.lo; i < span.hi; ++i) {
      buffers.tone[i] = 1;
      buffers.best_snr[i] = std::max(buffers.best_snr[i], s.snr_db);
    }
  }
  for (const acoustics::NoiseBurst& b : window.bursts) {
    const acoustics::SampleSpan span =
        acoustics::interval_sample_span(window.start_s, dt, num_samples, b.start_s, b.end_s);
    for (std::size_t i = span.lo; i < span.hi; ++i) buffers.burst[i] = 1;
  }

  out.assign(num_samples, false);
  for (std::size_t i = 0; i < num_samples; ++i) {
    double p;
    if (buffers.tone[i] != 0) {
      p = acoustics::detection_probability(buffers.best_snr[i]);
    } else {
      p = buffers.burst[i] != 0 ? env.noise_burst_false_positive_rate : env.false_positive_rate;
      if (mic.faulty) p = std::max(p, acoustics::ToneDetectorModel::kFaultyMicFalsePositiveRate);
    }
    out[i] = rng.bernoulli(p);
  }
}

std::vector<bool> sample_window(const acoustics::EnvironmentProfile& env, double sample_rate_hz,
                                const acoustics::ReceivedWindow& window, std::size_t num_samples,
                                const acoustics::MicUnit& mic, math::Rng& rng) {
  DetectorBuffers buffers;
  std::vector<bool> out;
  sample_window_into(env, sample_rate_hz, window, num_samples, mic, rng, buffers, out);
  return out;
}

int detect_signal(const std::vector<std::uint8_t>& samples, const ranging::DetectionParams& params,
                  int start_index) {
  const int n = static_cast<int>(samples.size());
  const int m = params.window;
  if (m <= 0 || start_index < 0 || start_index + m > n) return -1;

  const auto qualifies = [&](int i) {
    return samples[static_cast<std::size_t>(i)] >= params.threshold;
  };

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

std::vector<std::uint64_t> fired_mask(const std::vector<bool>& fired) {
  std::vector<std::uint64_t> mask((fired.size() + 63) / 64, 0);
  for (std::size_t i = 0; i < fired.size(); ++i) {
    if (fired[i]) mask[i / 64] |= std::uint64_t{1} << (i % 64);
  }
  return mask;
}

ranging::SignalAccumulator accumulator_from_counts(const std::vector<std::uint8_t>& counts) {
  ranging::SignalAccumulator acc(counts.size());
  std::vector<bool> fired(counts.size());
  for (int chirp = 0; chirp < ranging::SignalAccumulator::kMaxChirps; ++chirp) {
    for (std::size_t i = 0; i < counts.size(); ++i) fired[i] = counts[i] > chirp;
    acc.record_chirp(fired_mask(fired).data());
  }
  return acc;
}

std::vector<std::uint8_t> counts_of(const ranging::SignalAccumulator& acc) {
  std::vector<std::uint8_t> counts(acc.size());
  for (std::size_t i = 0; i < acc.size(); ++i) counts[i] = static_cast<std::uint8_t>(acc.count(i));
  return counts;
}

namespace {

/// The window's tone tables, rebuilt only when the service's tuning or
/// window changes.
void build_tone_tables(const ranging::RangingConfig& config, std::size_t n,
                       MeasureScratch& scratch) {
  const double fs = config.tdoa.sample_rate_hz;
  const double frequency_hz = config.pattern.tone_frequency_hz;
  if (scratch.tone_sin.size() == n && scratch.tone_frequency_hz == frequency_hz &&
      scratch.tone_sample_rate_hz == fs) {
    return;
  }
  scratch.tone_sin.resize(n);
  scratch.tone_cos.resize(n);
  const double step = 2.0 * math::kPi * frequency_hz / fs;
  for (std::size_t i = 0; i < n; ++i) {
    scratch.tone_sin[i] = std::sin(step * static_cast<double>(i));
    scratch.tone_cos[i] = std::cos(step * static_cast<double>(i));
  }
  scratch.tone_frequency_hz = frequency_hz;
  scratch.tone_sample_rate_hz = fs;
}

/// Goertzel front end: synthesizes each sample (tone envelope on the tone
/// table plus scaled noise) and steps the oracle detector on it in one loop;
/// the binary series is the sign of the metric, shifted left by the group
/// delay.
void goertzel_window(const ranging::RangingConfig& config, std::size_t n,
                     const acoustics::MicUnit& mic, math::Rng& rng, MeasureScratch& scratch) {
  const double fs = config.tdoa.sample_rate_hz;
  build_tone_tables(config, n, scratch);
  rd::rasterize_window_envelope(scratch.received, mic, fs, n, scratch.amplitude, scratch.burst);
  scratch.noise.resize(n);
  rng.fill_gaussian_block(scratch.noise.data(), n);

  GoertzelOracle detector(config.pattern.tone_frequency_hz, fs);
  scratch.fired.assign(n, false);
  scratch.metric.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double sigma = scratch.burst[i] != 0 ? rd::kBurstNoiseSigma : 1.0;
    const double sample = scratch.amplitude[i] * scratch.tone_sin[i] + sigma * scratch.noise[i];
    scratch.metric[i] = detector.step(sample);
    const bool fired = scratch.metric[i] > 0.0;
    if (fired && i >= rd::kGoertzelGroupDelay) scratch.fired[i - rd::kGoertzelGroupDelay] = true;
  }
}

/// Matched-filter front end: synthesizes the window's audio sample by sample
/// (same draws and arithmetic as the Goertzel loop) and marks the scalar NCC
/// scan's picked onsets.
void ncc_window(const ranging::RangingConfig& config, std::size_t n,
                const acoustics::MicUnit& mic, math::Rng& rng, MeasureScratch& scratch) {
  const double fs = config.tdoa.sample_rate_hz;
  rd::rasterize_window_envelope(scratch.received, mic, fs, n, scratch.amplitude, scratch.burst);
  build_tone_tables(config, n, scratch);
  const acoustics::ToneTemplateView tpl{scratch.tone_sin.data(), scratch.tone_cos.data(), n};
  scratch.noise.resize(n);
  rng.fill_gaussian_block(scratch.noise.data(), n);
  scratch.audio.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double sigma = scratch.burst[i] != 0 ? rd::kBurstNoiseSigma : 1.0;
    scratch.audio[i] = scratch.amplitude[i] * tpl.sin_t[i] + sigma * scratch.noise[i];
  }

  const auto chirp_samples =
      static_cast<std::size_t>(std::llround(config.pattern.chirp_duration_s * fs));
  scratch.marks.resize((n + 63) / 64);
  scratch.ncc.detect_into(scratch.audio.data(), n, chirp_samples, tpl, scratch.marks.data());
  scratch.fired.assign(n, false);
  for (std::size_t i = 0; i < n; ++i) scratch.fired[i] = (scratch.marks[i / 64] >> (i % 64)) & 1u;
}

}  // namespace

ranging::RangingAttempt measure_per_sample(const ranging::RangingService& service,
                                           double true_distance_m,
                                           const acoustics::SpeakerUnit& speaker,
                                           const acoustics::MicUnit& mic, math::Rng& rng,
                                           MeasureScratch& scratch) {
  const ranging::RangingConfig& config = service.config();
  const std::size_t n = service.window_samples();
  ranging::RangingAttempt attempt;

  acoustics::ChirpPattern pattern = config.pattern;
  if (config.baseline) pattern.num_chirps = 1;
  acoustics::chirp_start_times_into(pattern, rng, scratch.starts);

  const double window_duration_s = static_cast<double>(n) / config.tdoa.sample_rate_hz;
  const double calibration_bias_s =
      config.tdoa.delta_const_true_s - config.tdoa.delta_const_calibrated_s;

  scratch.counts.assign(n, 0);
  int chirps = 0;
  // Channel v2 (acoustics/channel.hpp): one realization per exchange, then
  // per window its sync error, its clip of that realization and its bursts.
  acoustics::realize_exchange(scratch.exchange, scratch.starts, pattern.chirp_duration_s,
                              true_distance_m, speaker, mic, config.environment,
                              config.channel_jitter, rng);
  for (const double start_s : scratch.starts) {
    const double sync_error_s =
        calibration_bias_s + rng.gaussian(0.0, config.tdoa.sync_jitter_s);
    acoustics::clip_window(scratch.received, scratch.exchange, start_s - sync_error_s,
                           window_duration_s);
    acoustics::draw_noise_bursts(scratch.received, config.environment, rng);
    switch (service.detector_mode()) {
      case ranging::DetectorMode::kHardware:
        sample_window_into(config.environment, config.tdoa.sample_rate_hz, scratch.received, n,
                           mic, rng, scratch.detector, scratch.fired);
        break;
      case ranging::DetectorMode::kGoertzel:
        goertzel_window(config, n, mic, rng, scratch);
        break;
      case ranging::DetectorMode::kMatchedFilter:
        ncc_window(config, n, mic, rng, scratch);
        break;
    }
    // 4-bit counters; chirps past the cap are drawn but not recorded.
    if (chirps >= ranging::SignalAccumulator::kMaxChirps) continue;
    ++chirps;
    for (std::size_t i = 0; i < n; ++i) {
      if (scratch.fired[i] && scratch.counts[i] < 15) ++scratch.counts[i];
    }
  }

  const ranging::DetectionParams detection =
      config.baseline ? rd::kBaselineDetection : config.detection;
  int index = detect_signal(scratch.counts, detection, 0);
  if (!config.baseline && config.verify_pattern) {
    while (index >= 0 &&
           !verify_preceding_silence(scratch.counts, index, ranging::kSilenceGapSamples,
                                     detection.threshold, ranging::kSilenceMaxNoisy)) {
      ++attempt.rejected_detections;
      index = detect_signal(scratch.counts, detection, index + 1);
    }
  }
  if (index >= 0) {
    attempt.detection_index = index;
    attempt.distance_m = ranging::distance_from_detection_index(index, config.tdoa);
  }
  return attempt;
}

}  // namespace resloc::reference
