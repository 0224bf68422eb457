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
/// -- tone envelope on the cached tone table plus scaled standard-normal
/// noise, the same per-sample arithmetic the test-only per-sample reference
/// measure computes. Branch-free and contiguous, so it auto-vectorizes;
/// the noise block comes from Rng::fill_gaussian_block.
void mix_tone_noise_block(const double* amplitude, const double* tone, const double* noise,
                          const std::uint8_t* burst, double burst_noise_sigma, double* out,
                          std::size_t n);

/// Read-only view of a cached chirp tone template: sin/cos of the tone phase
/// at absolute sample index i. The matched-filter detector correlates raw
/// windows against exactly these tables, so detection and synthesis share one
/// definition of "the chirp" (and one cache).
struct ToneTemplateView {
  const double* sin_t = nullptr;  ///< sin(2*pi*f*i/fs), i in [0, length)
  const double* cos_t = nullptr;
  std::size_t length = 0;
};

/// Reusable synthesis engine for per-pair campaign loops.
///
/// The free function above prices every chirp sample at one std::sin call and
/// every capture at a fresh allocation; across a campaign's pairs x rounds x
/// chirps that dominates the synthesis cost. This class removes both:
///   - chirp tone templates (sin/cos lookup tables) are computed once per
///     (sample rate, tone frequency) and reused for every placement via the
///     angle-addition identity -- two multiplies per sample, two std::sin
///     calls per chirp regardless of length;
///   - synthesize_into() writes into a caller-owned buffer, so a pair loop
///     reuses one allocation for every capture.
/// Not thread-safe; give each worker its own synthesizer (the templates are
/// small and rebuild in microseconds).
class WaveformSynthesizer {
 public:
  /// Like synthesize_waveform, but reusing `wave`'s storage and the cached
  /// templates. The output differs from the free function only by
  /// floating-point rounding of the tone samples (|delta| ~ 1 ulp).
  void synthesize_into(std::vector<double>& wave, const WaveformSpec& spec,
                       const std::vector<ChirpPlacement>& chirps, std::size_t num_samples,
                       resloc::math::Rng& rng);

  /// Allocating convenience wrapper over synthesize_into.
  std::vector<double> synthesize(const WaveformSpec& spec,
                                 const std::vector<ChirpPlacement>& chirps,
                                 std::size_t num_samples, resloc::math::Rng& rng);

  /// The (rate, frequency) tone template extended to at least `length`
  /// samples, as a read-only view. The pointers are invalidated by any later
  /// call that creates or extends a template (same lifetime rule as
  /// std::vector iterators); campaign scratches re-fetch the view per window.
  ToneTemplateView tone_template_view(double sample_rate_hz, double frequency_hz,
                                      std::size_t length);

 private:
  struct ToneTemplate {
    double sample_rate_hz = 0.0;
    double frequency_hz = 0.0;
    std::vector<double> sin_t;  ///< sin(2*pi*f*i/fs), i in [0, length)
    std::vector<double> cos_t;
  };

  /// Returns the template for (rate, frequency), extended to at least
  /// `length` samples.
  const ToneTemplate& tone_template(double sample_rate_hz, double frequency_hz,
                                    std::size_t length);

  std::vector<ToneTemplate> templates_;
};

}  // namespace resloc::acoustics
