// Raw waveform synthesis for the software (DFT) tone detector of Section 3.7.
//
// Platforms without a hardware tone detector (e.g. the XSM mote) sample the
// microphone directly; the sliding-DFT filter of Figure 9 then isolates the
// beacon band. To reproduce Figure 10 ("clean and noisy signals before and
// after applying the tone detection filter") we synthesize sampled audio:
// constant-frequency chirps plus Gaussian noise and optional off-band
// interference tones.
#pragma once

#include <cstdint>
#include <vector>

#include "math/rng.hpp"

namespace resloc::acoustics {

/// Parameters of a synthesized audio capture.
struct WaveformSpec {
  double sample_rate_hz = 16000.0;
  double tone_frequency_hz = 4000.0;  ///< fs/4, one of the Figure 9 bands
  double tone_amplitude = 1000.0;     ///< matches the Figure 10 axis scale
  double noise_stddev = 0.0;          ///< additive white Gaussian noise
  double interference_frequency_hz = 0.0;  ///< 0 disables the interferer
  double interference_amplitude = 0.0;
};

/// A chirp to place in the waveform: [start_sample, start_sample + length).
struct ChirpPlacement {
  std::size_t start_sample = 0;
  std::size_t length = 128;  ///< 8 ms at 16 kHz
};

/// Synthesizes `num_samples` of audio containing the given chirps.
std::vector<double> synthesize_waveform(const WaveformSpec& spec,
                                        const std::vector<ChirpPlacement>& chirps,
                                        std::size_t num_samples, resloc::math::Rng& rng);

/// Evenly spaced chirp placements: `count` chirps of `length` samples
/// starting at `first_start`, separated by `period` samples.
std::vector<ChirpPlacement> periodic_chirps(std::size_t count, std::size_t first_start,
                                            std::size_t period, std::size_t length);

/// Block synthesis kernel of the sampled-audio paths:
///     out[i] = amplitude[i] * tone[i] + (burst[i] ? burst_noise_sigma : 1.0) * noise[i]
/// -- tone envelope on the service's tone table plus scaled standard-normal
/// noise, the same per-sample arithmetic the test-only per-sample reference
/// measure computes. Branch-free and contiguous, so it auto-vectorizes;
/// the noise block comes from Rng::fill_gaussian_block.
void mix_tone_noise_block(const double* amplitude, const double* tone, const double* noise,
                          const std::uint8_t* burst, double burst_noise_sigma, double* out,
                          std::size_t n);

/// Read-only view of a chirp tone template: sin/cos of the tone phase at
/// absolute sample index i. A sampled-audio RangingService owns the tables;
/// its synthesis mixes sin_t and its matched filter correlates against both,
/// so detection and synthesis share one definition of "the chirp".
struct ToneTemplateView {
  const double* sin_t = nullptr;  ///< sin(2*pi*f/fs*i), i in [0, length)
  const double* cos_t = nullptr;
  std::size_t length = 0;
};

}  // namespace resloc::acoustics
