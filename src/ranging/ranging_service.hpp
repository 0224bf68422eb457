// The acoustic ranging service: end-to-end simulation of one ranging sequence
// between a source (speaker) and a receiver (microphone + tone detector).
//
// Two operating modes mirror the paper:
//   - baseline (Section 3.1/3.3): a single chirp; the receiver takes the
//     first tone-detector firing as the signal onset. Echoes of earlier
//     chirps and noise bursts produce the large under/over-estimates of
//     Figure 2.
//   - refined (Section 3.5): the pattern's chirps are accumulated into 4-bit
//     counters aligned by the radio sync message; threshold detection with
//     the (T, k, m) parameters finds the onset; optionally the preceding-
//     silence pattern check rejects echo tails.
//
// One measure() runs the whole sequence, in this order: the chirp schedule,
// the exchange's channel (channel.hpp, which derives the SNR from the link
// distance with propagation.hpp's snr_db), every chirp window through the
// mode's tone detector into the 4-bit counters, then the T-of-k scan with
// the silence check. The counters stay in the caller's RangingScratch.
//
// Timing errors injected per chirp: calibration bias (delta_const_true -
// delta_const_calibrated), clock-sync jitter after MAC timestamping, speaker
// actuation jitter, and the 16 kHz sampling quantization.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "acoustics/channel.hpp"
#include "acoustics/chirp_pattern.hpp"
#include "acoustics/environment.hpp"
#include "acoustics/signal_synth.hpp"
#include "acoustics/tone_detector.hpp"
#include "acoustics/units.hpp"
#include "math/rng.hpp"
#include "ranging/dft_detector.hpp"
#include "ranging/matched_filter.hpp"
#include "ranging/signal_detection.hpp"
#include "ranging/tdoa.hpp"

namespace resloc::ranging {

/// Which front end turns the received window into the per-sample boolean
/// series the accumulation detector consumes. All modes share the chirp
/// pattern, 4-bit accumulation, (T, k, m) detection, and silence
/// verification; they differ only in how one chirp window becomes booleans.
enum class DetectorMode {
  /// Hardware tone-detector model (Sections 3.4/3.5): interval-level
  /// probabilistic firing as a function of SNR. No sampled audio.
  kHardware,
  /// Software Goertzel tone detector (Section 3.7): synthesized audio through
  /// a 36-sample single-bin sliding DFT with Parseval noise subtraction.
  kGoertzel,
  /// Matched-filter NCC detector: synthesized audio correlated against the
  /// service's full-length chirp tone tables with group-delay-compensated
  /// peak picking (see matched_filter.hpp). ~5.5 dB more
  /// processing gain than the Goertzel window; recovers weak direct arrivals
  /// whose fixed-lag echoes would otherwise set the detection index.
  kMatchedFilter,
};

/// Detector mode from its sweep-axis name ("hardware", "goertzel", "ncc").
/// Throws std::invalid_argument naming the unknown value -- a mistyped
/// detector axis fails the trial loudly instead of silently running the
/// default front end.
DetectorMode detector_mode_by_name(const std::string& name);

/// Canonical axis/report name of a detector mode.
std::string detector_mode_name(DetectorMode mode);

/// Full configuration of the ranging service.
struct RangingConfig {
  acoustics::EnvironmentProfile environment = acoustics::EnvironmentProfile::grass();
  acoustics::ChirpPattern pattern;
  acoustics::ChannelJitter channel_jitter;
  DetectionParams detection;
  TdoaParams tdoa;

  /// Sampling window covers acoustic travel up to this range (default 40 m;
  /// determines the buffer size; Section 3.6.2 ties RAM to this).
  double max_window_range_m = 40.0;

  /// Baseline mode: one chirp, first-firing detection, no accumulation
  /// (default off = refined mode).
  bool baseline = false;

  /// Preceding-silence pattern verification (refined mode only; default on).
  /// A candidate onset is rejected when more than kSilenceMaxNoisy of the
  /// kSilenceGapSamples samples before it meet the detection threshold (see
  /// signal_detection.hpp).
  bool verify_pattern = true;

  /// Detector front end (see DetectorMode). kHardware by default.
  /// kGoertzel is software tone detection (Section 3.7): platforms without a
  /// hardware tone detector (e.g. the XSM mote) sample the microphone
  /// directly and isolate the beacon band in software. Each chirp window is
  /// synthesized as sampled audio (tone amplitude from the received SNR plus
  /// unit-variance noise) and the binary series fed to the accumulation
  /// detector is the sign of GoertzelToneDetector's noise-subtracted metric,
  /// group-delay compensated. This prices every chirp of every pair at a
  /// per-sample single-bin DFT -- affordable only because of the Goertzel
  /// sliding recurrence and the service's precomputed tone tables
  /// (bench_ranging_goertzel measures the naive direct-DFT alternative at
  /// ~96x the cost).
  DetectorMode detector_mode = DetectorMode::kHardware;
};

/// Outcome of one ranging sequence. Its post-accumulation 4-bit counters
/// are in the scratch's accumulator (scratch.accumulator.count(i)) until the
/// next measure() with that scratch.
struct RangingAttempt {
  std::optional<double> distance_m;  ///< estimate; nullopt = no detection
  int detection_index = -1;          ///< sample index of the detected onset
  int rejected_detections = 0;       ///< candidates failing the pattern check
};

/// Reusable working buffers for measure(). A campaign loop keeps one per
/// worker thread and passes it to every pair, so the per-sequence vectors
/// (emission schedule, exchange channel, received window, fired bitmask,
/// 4-bit counters and their scan mask, DSP buffers) are allocated once
/// instead of once per pair -- the buffer reuse the mote firmware's fixed
/// RAM layout implies (3.6.2).
/// Everything here is per-call state: what depends only on the service's
/// config (the tone tables, the Goertzel detector's twiddles) lives in the
/// service, so one scratch serves any service. Exclusively owned by one
/// thread; the window buffers are sized before each window's kernels run,
/// and the kernels write through raw pointers without resizing.
struct RangingScratch {
  std::vector<double> starts;
  acoustics::ExchangeChannel exchange;
  acoustics::ReceivedWindow received;
  acoustics::DetectorScratch detector;
  SignalAccumulator accumulator{0};
  SignalScanner scanner;
  /// Hardware-detector mode: the window's Bernoulli threshold runs (sized by
  /// ToneDetectorModel::fire_runs, a handful per window).
  std::vector<resloc::math::BernoulliRun> fire_runs;
  /// Every mode, one chirp window: the front end's binary output as a
  /// bitmask (bit i of fired[i / 64] set when sample i fired), the one
  /// input of SignalAccumulator::record_chirp.
  std::vector<std::uint64_t> fired;
  /// Sampled-audio modes, one window each: per-sample tone amplitudes,
  /// standard normals, synthesized audio and Goertzel metric.
  std::vector<double> amplitude;
  std::vector<double> noise;
  std::vector<double> audio;
  std::vector<double> metric;
  /// Goertzel mode: the running detector, copied from the service's fresh
  /// one at each window.
  std::optional<GoertzelToneDetector> goertzel;
  /// Matched-filter mode: the NCC scanner (its prefix-sum buffers reused
  /// across pairs).
  std::optional<MatchedFilterNcc> ncc;
};

/// Simulates ranging sequences for one source/receiver pair.
class RangingService {
 public:
  /// Throws std::invalid_argument (naming the offending value) when
  /// config.detector_mode is not a known DetectorMode -- an out-of-range
  /// enum from a miswired cast or config merge must not silently fall back
  /// to the hardware front end.
  explicit RangingService(RangingConfig config);

  /// Runs one full ranging sequence at the given true distance over the
  /// caller's working buffers. The outcome depends only on the arguments
  /// and the generator's state, never on what the scratch held before.
  RangingAttempt measure(double true_distance_m, const acoustics::SpeakerUnit& speaker,
                         const acoustics::MicUnit& mic, resloc::math::Rng& rng,
                         RangingScratch& scratch) const;

  /// Number of samples in the per-chirp window.
  std::size_t window_samples() const { return window_samples_; }

  /// The detector front end in use (config.detector_mode, validated).
  DetectorMode detector_mode() const { return mode_; }

  const RangingConfig& config() const { return config_; }

 private:
  /// Sampled-audio modes, one chirp window: synthesizes the window's audio
  /// (envelope -> noise -> tone mix over the scratch's window buffers), then
  /// runs the mode's detector -- the group-delay-compensated Goertzel
  /// threshold (Section 3.7) or the NCC onset picks. The binary series lands
  /// in the scratch.fired bitmask.
  void sample_window(const acoustics::MicUnit& mic, resloc::math::Rng& rng,
                     RangingScratch& scratch) const;

  RangingConfig config_;
  std::size_t window_samples_;
  DetectorMode mode_;
  acoustics::ToneDetectorModel detector_;
  /// Sampled-audio modes only (empty for kHardware): the window-length tone
  /// tables sin/cos(2*pi*f/fs*i), built once from the config -- the mote fixes
  /// its tone bins at compile time (Section 3.7, Figure 9). Synthesis mixes
  /// the sin table; the NCC scanner correlates against both.
  std::vector<double> tone_sin_;
  std::vector<double> tone_cos_;
  /// A fresh detector tuned to the chirp tone; each Goertzel window starts
  /// from a copy of it.
  std::optional<GoertzelToneDetector> goertzel_;
};

}  // namespace resloc::ranging
