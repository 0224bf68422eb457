#include "ranging/ranging_service.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "math/constants.hpp"
#include "obs/telemetry.hpp"
#include "ranging/dft_detector.hpp"

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
/// Baseline detection: the raw tone detector's first sustained firing -- one
/// chirp, counts are 0/1, and a short 3-of-4 debounce stands in for the
/// hardware detector's own output latching.
constexpr DetectionParams kBaselineDetection{/*threshold=*/1, /*window=*/4,
                                             /*min_detections=*/3};

/// Software-detector mode: tone amplitude over the unit-variance sample noise
/// that reproduces an interval's SNR (tone power A^2/2 against sigma^2 = 1).
double amplitude_from_snr_db(double snr_db) {
  return std::sqrt(2.0 * std::pow(10.0, snr_db / 10.0));
}

/// Wide-band noise burst: the sample noise floor rises by ~12 dB for its
/// duration. Unlike the hardware detector's fixed false-positive bump, the
/// DFT path's Parseval noise estimate tracks the elevated floor, so bursts
/// mostly mask marginal tones rather than injecting detections -- the
/// robustness Section 3.7 buys at the price of raw sampling.
constexpr double kBurstNoiseSigma = 4.0;

/// Faulty microphone: a persistent in-band self-oscillation leak at borderline
/// amplitude, the software-path analogue of the hardware model's elevated
/// false-positive rate (Section 3.4, source 3/7).
constexpr double kFaultyMicLeakAmplitude = 1.0;
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
      detector_(config_.environment, config_.tdoa.sample_rate_hz) {}

std::optional<double> RangingService::measure(double true_distance_m,
                                              const acoustics::SpeakerUnit& speaker,
                                              const acoustics::MicUnit& mic,
                                              resloc::math::Rng& rng) const {
  RangingScratch scratch;
  return measure(true_distance_m, speaker, mic, rng, scratch);
}

std::optional<double> RangingService::measure(double true_distance_m,
                                              const acoustics::SpeakerUnit& speaker,
                                              const acoustics::MicUnit& mic,
                                              resloc::math::Rng& rng,
                                              RangingScratch& scratch) const {
  return measure_impl(true_distance_m, speaker, mic, rng, scratch, /*link=*/nullptr,
                      /*want_accumulated=*/false)
      .distance_m;
}

std::optional<double> RangingService::measure(double true_distance_m,
                                              const acoustics::SpeakerUnit& speaker,
                                              const acoustics::MicUnit& mic,
                                              resloc::math::Rng& rng, RangingScratch& scratch,
                                              const acoustics::LinkResponse& link) const {
  return measure_impl(true_distance_m, speaker, mic, rng, scratch, &link,
                      /*want_accumulated=*/false)
      .distance_m;
}

RangingAttempt RangingService::measure_with_diagnostics(double true_distance_m,
                                                        const acoustics::SpeakerUnit& speaker,
                                                        const acoustics::MicUnit& mic,
                                                        resloc::math::Rng& rng) const {
  RangingScratch scratch;
  return measure_impl(true_distance_m, speaker, mic, rng, scratch, /*link=*/nullptr,
                      /*want_accumulated=*/true);
}

RangingAttempt RangingService::measure_impl(double true_distance_m,
                                            const acoustics::SpeakerUnit& speaker,
                                            const acoustics::MicUnit& mic,
                                            resloc::math::Rng& rng, RangingScratch& scratch,
                                            const acoustics::LinkResponse* link,
                                            bool want_accumulated) const {
  // The per-pair acoustic-physics budget (~110 us/measure at survey density
  // on the per-sample reference path) is the wall ROADMAP item 1 targets; the
  // sub-stage spans below attribute it to the block kernels so regressions
  // land on a named stage instead of "measure got slower".
  RESLOC_SPAN("ranging/measure");
  obs::add(obs::Counter::kMeasureCalls);
  RangingAttempt attempt;

  acoustics::ChirpPattern pattern = config_.pattern;
  if (config_.baseline) pattern.num_chirps = 1;

  {
    RESLOC_SPAN("ranging/synthesis/schedule");
    acoustics::chirp_start_times_into(pattern, rng, scratch.starts);
    scratch.emissions.clear();
    scratch.emissions.reserve(scratch.starts.size());
    for (double s : scratch.starts) {
      scratch.emissions.push_back({s, pattern.chirp_duration_s});
    }
  }

  const double window_duration_s =
      static_cast<double>(window_samples_) / config_.tdoa.sample_rate_hz;
  const double calibration_bias_s =
      config_.tdoa.delta_const_true_s - config_.tdoa.delta_const_calibrated_s;

  // The distance-dependent channel response: supplied by the campaign's
  // per-trial cache, or computed here once per measure (the per-chirp
  // receive_into used to redo the log10 spreading term for every window).
  const acoustics::LinkResponse link_local =
      link != nullptr ? *link : acoustics::link_response(true_distance_m, config_.environment);

  const bool block = config_.block_dsp;
  scratch.dsp.resize(window_samples_);

  // Accumulate the binary detector output over all chirps, each window
  // aligned by the radio sync of that chirp. Echoes from *earlier* chirps
  // fall into later windows naturally because every emission is visible to
  // every window. On the block hardware path the stages run back to back
  // (reset, then channel / accumulate per chirp), so one span chain shares
  // each boundary's clock read; every other stage ends the chain first.
  obs::SpanChain stages;
  if (block) {
    // Zeroing the 4-bit counters is an O(window) accumulator pass.
    RESLOC_SPAN_ENTER(stages, "ranging/detection/accumulate");
  }
  scratch.accumulator.reset(window_samples_);
  for (const acoustics::Emission& emission : scratch.emissions) {
    obs::add(obs::Counter::kChirpWindows);
    // The channel stage of one exchange: the receiver-side onset estimate
    // (true start shifted by the calibration bias plus the per-exchange
    // clock-sync jitter) and the window's link rasterization.
    RESLOC_SPAN_ENTER(stages, "ranging/channel");
    const double sync_error_s =
        calibration_bias_s + rng.gaussian(0.0, config_.tdoa.sync_jitter_s);
    const double window_start_s = emission.start_s - sync_error_s;
    acoustics::receive_into(scratch.received, scratch.emissions, window_start_s,
                            window_duration_s, link_local, speaker, mic, config_.environment,
                            config_.channel_jitter, rng);
    if (block && mode_ == DetectorMode::kHardware) {
      // The window's threshold runs (a per-interval cost, not per-sample),
      // then the fused Bernoulli mask draw + accumulate: together they
      // consume exactly the one-uniform-per-sample stream the per-sample
      // reference draws.
      RESLOC_SPAN_ENTER(stages, "ranging/detection/accumulate");
      detector_.fire_runs(scratch.received, window_samples_, mic, scratch.detector,
                          scratch.dsp.fire_runs);
      scratch.accumulator.record_chirp_bernoulli(rng, scratch.dsp.fire_runs);
      continue;
    }
    stages.end();
    switch (mode_) {
      case DetectorMode::kGoertzel:
        if (block) software_sample_window_block(mic, rng, scratch);
        else software_sample_window(mic, rng, scratch);
        break;
      case DetectorMode::kMatchedFilter:
        if (block) ncc_sample_window_block(mic, rng, scratch);
        else ncc_sample_window(mic, rng, scratch);
        break;
      case DetectorMode::kHardware: {
        RESLOC_SPAN("ranging/detection");
        detector_.sample_window_into(scratch.received, window_samples_, mic, rng,
                                     scratch.detector, scratch.detector_output);
        break;
      }
    }
    if (block) {
      // The sampled-audio block paths leave the binary series in
      // scratch.dsp.fired; fold it into the 4-bit counters.
      RESLOC_SPAN("ranging/detection/accumulate");
      scratch.accumulator.record_chirp_block(scratch.dsp.fired.data(), window_samples_);
    } else {
      // Folding the chirp's binary output into the 4-bit accumulator is an
      // O(window) pass per chirp -- detection-stage work, same as the scan.
      RESLOC_SPAN("ranging/detection");
      scratch.accumulator.record_chirp(scratch.detector_output);
    }
  }
  stages.end();

  const DetectionParams detection = config_.baseline ? kBaselineDetection : config_.detection;
  const std::vector<std::uint8_t>& samples = scratch.accumulator.samples();

  // One resumable pass over the accumulated counters: the scanner keeps its
  // sliding window count across pattern-verification rejections, so the whole
  // rejection loop is O(n) instead of restarting detect_signal after every
  // rejected candidate (O(window * rejections)).
  const auto scan = [&]() {
    SignalScanner scanner(samples, detection);
    int index = scanner.next();
    if (!config_.baseline && config_.verify_pattern) {
      while (index >= 0 &&
             !verify_preceding_silence(samples, index, config_.silence_gap_samples,
                                       detection.threshold, config_.silence_max_noisy)) {
        ++attempt.rejected_detections;
        index = scanner.next();
      }
    }
    return index;
  };
  int index;
  if (block) {
    RESLOC_SPAN("ranging/detection/scan");
    index = scan();
  } else {
    RESLOC_SPAN("ranging/detection");
    index = scan();
  }

  if (index >= 0) {
    attempt.detection_index = index;
    attempt.distance_m = distance_from_detection_index(index, config_.tdoa);
    obs::add(obs::Counter::kMeasureDetections);
  }
  if (want_accumulated) attempt.accumulated = samples;
  return attempt;
}

void RangingService::prepare_goertzel(RangingScratch& scratch) const {
  const std::size_t n = window_samples_;
  const double fs = config_.tdoa.sample_rate_hz;

  // Tone table sin(2*pi*f*i/fs) and the Goertzel detector, cached in the
  // scratch under the (frequency, sample rate, noise scale) they were built
  // for; rebuilt only if the scratch migrates to a differently-tuned service.
  // The table's absolute phase is irrelevant to the single-bin power.
  const double frequency_hz = config_.pattern.tone_frequency_hz;
  const bool retuned =
      scratch.tone_frequency_hz != frequency_hz || scratch.sample_rate_hz != fs;
  if (retuned || scratch.tone_table.size() != n) {
    scratch.tone_table.resize(n);
    const double step = 2.0 * resloc::math::kPi * frequency_hz / fs;
    for (std::size_t i = 0; i < n; ++i) {
      scratch.tone_table[i] = std::sin(step * static_cast<double>(i));
    }
  }
  if (retuned || !scratch.goertzel || scratch.noise_scale != config_.software_noise_scale) {
    scratch.goertzel.emplace(frequency_hz, fs, SlidingDftFilter::kWindow,
                             config_.software_noise_scale);
    scratch.tone_frequency_hz = frequency_hz;
    scratch.sample_rate_hz = fs;
    scratch.noise_scale = config_.software_noise_scale;
  } else {
    scratch.goertzel->reset();
  }
}

void RangingService::prepare_ncc(RangingScratch& scratch) const {
  // The scanner is cached under its tuning like the Goertzel detector above;
  // its prefix-sum buffers are reused across pairs.
  if (!scratch.ncc || scratch.ncc->threshold() != config_.ncc_threshold ||
      scratch.ncc->peak_plateau() != config_.ncc_peak_plateau) {
    scratch.ncc.emplace(config_.ncc_threshold, config_.ncc_peak_plateau);
  }
}

void RangingService::software_sample_window(const acoustics::MicUnit& mic,
                                            resloc::math::Rng& rng,
                                            RangingScratch& scratch) const {
  const std::size_t n = window_samples_;
  prepare_goertzel(scratch);

  {
    RESLOC_SPAN("ranging/synthesis");
    rasterize_window_envelope(mic, scratch);
  }

  // The window's noise is the block normal stream, the same draws the block
  // path makes. Then synthesize and filter in one pass: each sample is the
  // tone envelope on the cached table plus scaled noise, and the binary
  // series is the sign of the noise-subtracted Goertzel metric. The metric at
  // step i covers samples (i - kWindow, i], so it is shifted left by the
  // half-window group delay to line onsets up with the hardware detector's
  // per-sample convention; the residual latency is within the
  // actuation-jitter budget. The span charges the pair to the detection
  // stage -- the Goertzel recurrence dominates the loop body.
  RESLOC_SPAN("ranging/detection");
  rng.fill_gaussian_block(scratch.dsp.noise.data(), n);
  GoertzelToneDetector& detector = *scratch.goertzel;
  constexpr std::size_t kGroupDelay = SlidingDftFilter::kWindow / 2;
  scratch.detector_output.assign(n, false);
  for (std::size_t i = 0; i < n; ++i) {
    const double sigma = scratch.detector.burst[i] != 0 ? kBurstNoiseSigma : 1.0;
    const double sample =
        scratch.amplitude[i] * scratch.tone_table[i] + sigma * scratch.dsp.noise[i];
    const bool fired = detector.step(sample) > 0.0;
    if (fired && i >= kGroupDelay) scratch.detector_output[i - kGroupDelay] = true;
  }
}

void RangingService::software_sample_window_block(const acoustics::MicUnit& mic,
                                                  resloc::math::Rng& rng,
                                                  RangingScratch& scratch) const {
  const std::size_t n = window_samples_;
  prepare_goertzel(scratch);

  // The reference path's fused synthesize-and-filter loop, decomposed into
  // staged block kernels over contiguous buffers: envelope rasterization,
  // standard-normal noise fill, tone + noise mix, Goertzel metric, group-
  // delay-compensated thresholding. Both paths draw the window's noise with
  // one fill_gaussian_block call (the versioned ziggurat stream of the
  // sampled-audio modes) and scale it per sample the same way.
  {
    RESLOC_SPAN("ranging/synthesis/envelope");
    rasterize_window_envelope(mic, scratch);
  }
  {
    RESLOC_SPAN("ranging/synthesis/noise");
    rng.fill_gaussian_block(scratch.dsp.noise.data(), n);
  }
  {
    RESLOC_SPAN("ranging/synthesis/tone");
    scratch.audio.resize(n);
    acoustics::mix_tone_noise_block(scratch.amplitude.data(), scratch.tone_table.data(),
                                    scratch.dsp.noise.data(), scratch.detector.burst.data(),
                                    kBurstNoiseSigma, scratch.audio.data(), n);
  }
  RESLOC_SPAN("ranging/detection/goertzel");
  scratch.goertzel->run_block(scratch.audio.data(), n, scratch.dsp.metric.data());
  constexpr std::size_t kGroupDelay = SlidingDftFilter::kWindow / 2;
  const std::size_t live = n > kGroupDelay ? n - kGroupDelay : 0;
  std::uint8_t* fired = scratch.dsp.fired.data();
  const double* metric = scratch.dsp.metric.data();
  for (std::size_t j = 0; j < live; ++j) {
    fired[j] = static_cast<std::uint8_t>(metric[j + kGroupDelay] > 0.0);
  }
  std::fill(fired + live, fired + n, std::uint8_t{0});
}

void RangingService::ncc_sample_window(const acoustics::MicUnit& mic, resloc::math::Rng& rng,
                                       RangingScratch& scratch) const {
  const std::size_t n = window_samples_;
  const double fs = config_.tdoa.sample_rate_hz;
  const double frequency_hz = config_.pattern.tone_frequency_hz;

  {
    RESLOC_SPAN("ranging/synthesis");
    rasterize_window_envelope(mic, scratch);
  }

  // The chirp template -- the same cached sin/cos tables the synthesis engine
  // uses -- extended to cover the whole window, because the NCC prefix sums
  // are phased by absolute sample index. Fetch once per window; nothing below
  // touches the synthesizer again, so the view stays valid.
  const acoustics::ToneTemplateView tpl = scratch.synth.tone_template_view(fs, frequency_hz, n);

  // Synthesize the sampled audio. Same noise draws (one block normal per
  // sample) and per-sample arithmetic as the Goertzel path, so switching
  // between the sampled-audio modes never shifts any other draw in the
  // campaign.
  {
    RESLOC_SPAN("ranging/synthesis");
    rng.fill_gaussian_block(scratch.dsp.noise.data(), n);
    scratch.audio.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      const double sigma = scratch.detector.burst[i] != 0 ? kBurstNoiseSigma : 1.0;
      scratch.audio[i] = scratch.amplitude[i] * tpl.sin_t[i] + sigma * scratch.dsp.noise[i];
    }
  }

  // Correlate and mark picked onsets.
  prepare_ncc(scratch);
  const auto chirp_samples =
      static_cast<std::size_t>(std::llround(config_.pattern.chirp_duration_s * fs));
  {
    RESLOC_SPAN("ranging/detection");
    scratch.ncc->detect_into(scratch.audio.data(), n, chirp_samples, tpl,
                             scratch.detector_output);
  }
}

void RangingService::ncc_sample_window_block(const acoustics::MicUnit& mic,
                                             resloc::math::Rng& rng,
                                             RangingScratch& scratch) const {
  const std::size_t n = window_samples_;
  const double fs = config_.tdoa.sample_rate_hz;
  const double frequency_hz = config_.pattern.tone_frequency_hz;

  {
    RESLOC_SPAN("ranging/synthesis/envelope");
    rasterize_window_envelope(mic, scratch);
  }

  const acoustics::ToneTemplateView tpl = scratch.synth.tone_template_view(fs, frequency_hz, n);

  // Same decomposition as the block Goertzel path: noise fill then tone mix,
  // drawing the same block normal stream as the reference path's synthesis
  // loop.
  {
    RESLOC_SPAN("ranging/synthesis/noise");
    rng.fill_gaussian_block(scratch.dsp.noise.data(), n);
  }
  {
    RESLOC_SPAN("ranging/synthesis/tone");
    scratch.audio.resize(n);
    acoustics::mix_tone_noise_block(scratch.amplitude.data(), tpl.sin_t,
                                    scratch.dsp.noise.data(), scratch.detector.burst.data(),
                                    kBurstNoiseSigma, scratch.audio.data(), n);
  }

  prepare_ncc(scratch);
  const auto chirp_samples =
      static_cast<std::size_t>(std::llround(config_.pattern.chirp_duration_s * fs));
  {
    RESLOC_SPAN("ranging/detection/ncc");
    scratch.ncc->detect_into(scratch.audio.data(), n, chirp_samples, tpl,
                             scratch.dsp.fired.data());
  }
}

void RangingService::rasterize_window_envelope(const acoustics::MicUnit& mic,
                                               RangingScratch& scratch) const {
  // Rasterize the audible intervals into a per-sample tone envelope (and the
  // bursts into a noise-floor flag) via the same exact contiguous spans the
  // hardware model uses, so all paths share one interval->sample convention.
  const std::size_t n = window_samples_;
  const double dt = 1.0 / config_.tdoa.sample_rate_hz;
  const acoustics::ReceivedWindow& window = scratch.received;
  scratch.amplitude.assign(n, mic.faulty ? kFaultyMicLeakAmplitude : 0.0);
  for (const acoustics::SignalInterval& s : window.signals) {
    const double amp = amplitude_from_snr_db(s.snr_db);
    const acoustics::SampleSpan span =
        acoustics::interval_sample_span(window.start_s, dt, n, s.start_s, s.end_s);
    for (std::size_t i = span.lo; i < span.hi; ++i) {
      scratch.amplitude[i] = std::max(scratch.amplitude[i], amp);
    }
  }
  scratch.detector.burst.assign(n, 0);
  for (const acoustics::NoiseBurst& b : window.bursts) {
    const acoustics::SampleSpan span =
        acoustics::interval_sample_span(window.start_s, dt, n, b.start_s, b.end_s);
    std::fill(scratch.detector.burst.begin() + static_cast<std::ptrdiff_t>(span.lo),
              scratch.detector.burst.begin() + static_cast<std::ptrdiff_t>(span.hi),
              std::uint8_t{1});
  }
}

}  // namespace resloc::ranging
