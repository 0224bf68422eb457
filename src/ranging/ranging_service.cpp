#include "ranging/ranging_service.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "math/constants.hpp"
#include "obs/telemetry.hpp"
#include "ranging/dft_detector.hpp"
#include "ranging/window_model.hpp"

namespace resloc::ranging {

namespace {

/// Returns the configured front end, rejecting out-of-range enum values
/// loudly.
DetectorMode resolve_detector_mode(const RangingConfig& config) {
  switch (config.detector_mode) {
    case DetectorMode::kHardware:
    case DetectorMode::kGoertzel:
    case DetectorMode::kMatchedFilter:
      return config.detector_mode;
  }
  throw std::invalid_argument(
      "RangingConfig.detector_mode holds unknown DetectorMode value " +
      std::to_string(static_cast<int>(config.detector_mode)) +
      " (known: hardware, goertzel, ncc)");
}

}  // namespace

DetectorMode detector_mode_by_name(const std::string& name) {
  if (name == "hardware") return DetectorMode::kHardware;
  if (name == "goertzel") return DetectorMode::kGoertzel;
  if (name == "ncc") return DetectorMode::kMatchedFilter;
  throw std::invalid_argument("unknown detector mode '" + name +
                              "' (known: hardware, goertzel, ncc)");
}

std::string detector_mode_name(DetectorMode mode) {
  switch (mode) {
    case DetectorMode::kHardware: return "hardware";
    case DetectorMode::kGoertzel: return "goertzel";
    case DetectorMode::kMatchedFilter: return "ncc";
  }
  return "unknown";
}

RangingService::RangingService(RangingConfig config)
    : config_(std::move(config)),
      window_samples_(window_samples_for_range(config_.max_window_range_m,
                                               config_.pattern.chirp_duration_s, config_.tdoa)),
      mode_(resolve_detector_mode(config_)),
      detector_(config_.environment, config_.tdoa.sample_rate_hz) {
  if (mode_ == DetectorMode::kHardware) return;
  // The tone tables cover the whole window because both the synthesized
  // tone and the NCC prefix sums are phased by absolute sample index; the
  // single-bin power is phase-origin independent.
  const double frequency_hz = config_.pattern.tone_frequency_hz;
  const double fs = config_.tdoa.sample_rate_hz;
  const double step = 2.0 * resloc::math::kPi * frequency_hz / fs;
  tone_sin_.resize(window_samples_);
  tone_cos_.resize(window_samples_);
  for (std::size_t i = 0; i < window_samples_; ++i) {
    const double angle = step * static_cast<double>(i);
    tone_sin_[i] = std::sin(angle);
    tone_cos_[i] = std::cos(angle);
  }
  goertzel_.emplace(frequency_hz, fs);
}

RangingAttempt RangingService::measure(double true_distance_m,
                                       const acoustics::SpeakerUnit& speaker,
                                       const acoustics::MicUnit& mic, resloc::math::Rng& rng,
                                       RangingScratch& scratch) const {
  RESLOC_SPAN("ranging/measure");
  obs::add(obs::Counter::kMeasureCalls);
  RangingAttempt attempt;

  acoustics::ChirpPattern pattern = config_.pattern;
  if (config_.baseline) pattern.num_chirps = 1;

  const double window_duration_s =
      static_cast<double>(window_samples_) / config_.tdoa.sample_rate_hz;
  const double calibration_bias_s =
      config_.tdoa.delta_const_true_s - config_.tdoa.delta_const_calibrated_s;

  // One span chain times the stages back to back, sharing each boundary's
  // clock read: schedule, the exchange's channel realization (channel v2,
  // see channel.hpp), accumulation over every chirp window, scan.
  obs::SpanChain stages;
  RESLOC_SPAN_ENTER(stages, "ranging/synthesis/schedule");
  acoustics::chirp_start_times_into(pattern, rng, scratch.starts);
  RESLOC_SPAN_ENTER(stages, "ranging/channel");
  acoustics::realize_exchange(scratch.exchange, scratch.starts, pattern.chirp_duration_s,
                              true_distance_m, speaker, mic, config_.environment,
                              config_.channel_jitter, rng);
  RESLOC_SPAN_ENTER(stages, "ranging/detection/accumulate");
  scratch.accumulator.reset(window_samples_);
  scratch.fired.resize((window_samples_ + 63) / 64);
  obs::add(obs::Counter::kChirpWindows, scratch.starts.size());
  for (const double start_s : scratch.starts) {
    // The window's set-up: the receiver-side onset estimate (true start
    // shifted by the calibration bias plus the per-chirp clock-sync jitter),
    // the exchange's intervals clipped to the window, and the window's own
    // noise bursts. Two draws and a binary search, so it runs inside the
    // accumulate stage: timing it as a stage of its own cost more clock reads
    // than the work.
    RESLOC_SPAN_ENTER(stages, "ranging/detection/accumulate");
    const double sync_error_s =
        calibration_bias_s + rng.gaussian(0.0, config_.tdoa.sync_jitter_s);
    acoustics::clip_window(scratch.received, scratch.exchange, start_s - sync_error_s,
                           window_duration_s);
    acoustics::draw_noise_bursts(scratch.received, config_.environment, rng);
    if (mode_ == DetectorMode::kHardware) {
      // The window's threshold runs (a per-interval cost, not per-sample),
      // then the Bernoulli mask draw, exactly one uniform per sample, and
      // the add into the counters. The draw happens even once the counters
      // are full, so a chirp's draws never depend on the ones before it.
      detector_.fire_runs(scratch.received, window_samples_, mic, scratch.detector,
                          scratch.fire_runs);
      rng.fill_bernoulli_mask_block(scratch.fire_runs, window_samples_, scratch.fired.data());
      scratch.accumulator.record_chirp(scratch.fired.data());
      continue;
    }
    stages.end();
    sample_window(mic, rng, scratch);
    // Fold the window's binary series into the 4-bit counters.
    RESLOC_SPAN("ranging/detection/accumulate");
    scratch.accumulator.record_chirp(scratch.fired.data());
  }

  const DetectionParams detection =
      config_.baseline ? detail::kBaselineDetection : config_.detection;

  // One resumable pass over the accumulated counters' threshold bitmask:
  // pattern-verification rejections resume the scan instead of restarting it.
  RESLOC_SPAN_ENTER(stages, "ranging/detection/scan");
  SignalScanner& scanner = scratch.scanner;
  scanner.reset(scratch.accumulator, detection);
  int index = scanner.next();
  if (!config_.baseline && config_.verify_pattern) {
    while (index >= 0 &&
           !scanner.quiet_before(index, kSilenceGapSamples, kSilenceMaxNoisy)) {
      ++attempt.rejected_detections;
      index = scanner.next();
    }
  }
  stages.end();

  if (index >= 0) {
    attempt.detection_index = index;
    attempt.distance_m = distance_from_detection_index(index, config_.tdoa);
    obs::add(obs::Counter::kMeasureDetections);
  }
  return attempt;
}

void RangingService::sample_window(const acoustics::MicUnit& mic, resloc::math::Rng& rng,
                                   RangingScratch& scratch) const {
  const std::size_t n = window_samples_;
  // Window buffers: resize is a no-op once a worker's scratch has seen this
  // service's window.
  scratch.noise.resize(n);
  scratch.audio.resize(n);

  // Synthesis as staged block kernels over contiguous buffers: envelope
  // rasterization, standard-normal noise fill (one fill_gaussian_block call,
  // the versioned ziggurat stream of the sampled-audio modes), tone + noise
  // mix against the service's sin table. Both modes take the same draws, so
  // switching between them never shifts any other draw in the campaign.
  {
    RESLOC_SPAN("ranging/synthesis/envelope");
    detail::rasterize_window_envelope(scratch.received, mic, config_.tdoa.sample_rate_hz, n,
                                      scratch.amplitude, scratch.detector.burst);
  }
  {
    RESLOC_SPAN("ranging/synthesis/noise");
    rng.fill_gaussian_block(scratch.noise.data(), n);
  }
  {
    RESLOC_SPAN("ranging/synthesis/tone");
    acoustics::mix_tone_noise_block(scratch.amplitude.data(), tone_sin_.data(),
                                    scratch.noise.data(), scratch.detector.burst.data(),
                                    detail::kBurstNoiseSigma, scratch.audio.data(), n);
  }

  if (mode_ == DetectorMode::kGoertzel) {
    // Goertzel metric, then the group-delay-compensated sign threshold,
    // packed into the fired bitmask.
    RESLOC_SPAN("ranging/detection/goertzel");
    scratch.metric.resize(n);
    scratch.goertzel = *goertzel_;  // copy-assign: the fresh-window state
    scratch.goertzel->run_block(scratch.audio.data(), n, scratch.metric.data());
    constexpr std::size_t kGroupDelay = detail::kGoertzelGroupDelay;
    const std::size_t live = n > kGroupDelay ? n - kGroupDelay : 0;
    for (std::size_t w = 0; w < scratch.fired.size(); ++w) {
      // Each word's samples walk downward, so every step is one doubling
      // add rather than a variable shift.
      std::uint64_t bits = 0;
      for (std::size_t j = std::min(live, 64 * w + 64); j-- > 64 * w;) {
        bits = 2 * bits + (scratch.metric[j + kGroupDelay] > 0.0);
      }
      scratch.fired[w] = bits;
    }
    return;
  }

  // Matched filter: correlate against the same tone tables the synthesis
  // mixed and mark the picked chirp onsets.
  if (!scratch.ncc) scratch.ncc.emplace();
  const acoustics::ToneTemplateView tpl{tone_sin_.data(), tone_cos_.data(), n};
  const auto chirp_samples = static_cast<std::size_t>(
      std::llround(config_.pattern.chirp_duration_s * config_.tdoa.sample_rate_hz));
  RESLOC_SPAN("ranging/detection/ncc");
  scratch.ncc->detect_into(scratch.audio.data(), n, chirp_samples, tpl, scratch.fired.data());
}

namespace detail {

void rasterize_window_envelope(const acoustics::ReceivedWindow& window,
                               const acoustics::MicUnit& mic, double sample_rate_hz,
                               std::size_t num_samples, std::vector<double>& amplitude,
                               std::vector<std::uint8_t>& burst) {
  const double dt = 1.0 / sample_rate_hz;
  amplitude.assign(num_samples, mic.faulty ? kFaultyMicLeakAmplitude : 0.0);
  for (const acoustics::SignalInterval& s : window.signals) {
    const double amp = amplitude_from_snr_db(s.snr_db);
    const acoustics::SampleSpan span =
        acoustics::interval_sample_span(window.start_s, dt, num_samples, s.start_s, s.end_s);
    for (std::size_t i = span.lo; i < span.hi; ++i) amplitude[i] = std::max(amplitude[i], amp);
  }
  burst.assign(num_samples, 0);
  for (const acoustics::NoiseBurst& b : window.bursts) {
    const acoustics::SampleSpan span =
        acoustics::interval_sample_span(window.start_s, dt, num_samples, b.start_s, b.end_s);
    std::fill(burst.begin() + static_cast<std::ptrdiff_t>(span.lo),
              burst.begin() + static_cast<std::ptrdiff_t>(span.hi), std::uint8_t{1});
  }
}

}  // namespace detail

}  // namespace resloc::ranging
