// The ranging service's chirp-window model (internal).
//
// Constants and the envelope rasterizer RangingService::measure applies to
// every chirp window. They live in this header rather than inside
// ranging_service.cpp so the test-only per-sample reference
// (tests/reference) models the identical window and cannot drift from the
// service by a retuned constant -- nothing outside ranging and its tests
// should include it.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "acoustics/channel.hpp"
#include "acoustics/units.hpp"
#include "ranging/dft_detector.hpp"
#include "ranging/signal_detection.hpp"

namespace resloc::ranging::detail {

/// Baseline detection: the raw tone detector's first sustained firing -- one
/// chirp, counts are 0/1, and a short 3-of-4 debounce stands in for the
/// hardware detector's own output latching.
constexpr DetectionParams kBaselineDetection{/*threshold=*/1, /*window=*/4,
                                             /*min_detections=*/3};

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

/// The Goertzel metric at step i covers samples (i - kWindow, i], so the
/// software detector's binary series is shifted left by the half-window
/// group delay to line onsets up with the hardware detector's per-sample
/// convention; the residual latency is within the actuation-jitter budget.
constexpr std::size_t kGoertzelGroupDelay = SlidingDftFilter::kWindow / 2;

/// Software-detector mode: tone amplitude over the unit-variance sample noise
/// that reproduces an interval's SNR (tone power A^2/2 against sigma^2 = 1).
inline double amplitude_from_snr_db(double snr_db) {
  return std::sqrt(2.0 * std::pow(10.0, snr_db / 10.0));
}

/// Rasterizes the audible intervals of `window` into a per-sample tone
/// envelope (`amplitude`, the max amplitude covering each sample, floored at
/// the faulty-mic leak) and its noise bursts into a noise-floor flag
/// (`burst`), both resized to `num_samples`. Uses the same exact contiguous
/// spans as the hardware model, so all front ends share one interval->sample
/// convention. Consumes no randomness.
void rasterize_window_envelope(const acoustics::ReceivedWindow& window,
                               const acoustics::MicUnit& mic, double sample_rate_hz,
                               std::size_t num_samples, std::vector<double>& amplitude,
                               std::vector<std::uint8_t>& burst);

}  // namespace resloc::ranging::detail
