#include "acoustics/signal_synth.hpp"

#include <cmath>
#include "math/constants.hpp"

namespace resloc::acoustics {

std::vector<double> synthesize_waveform(const WaveformSpec& spec,
                                        const std::vector<ChirpPlacement>& chirps,
                                        std::size_t num_samples, resloc::math::Rng& rng) {
  std::vector<double> wave(num_samples, 0.0);
  const double dt = 1.0 / spec.sample_rate_hz;

  for (const ChirpPlacement& chirp : chirps) {
    const std::size_t end = std::min(num_samples, chirp.start_sample + chirp.length);
    for (std::size_t i = chirp.start_sample; i < end; ++i) {
      const double t = static_cast<double>(i) * dt;
      wave[i] += spec.tone_amplitude *
                 std::sin(2.0 * resloc::math::kPi * spec.tone_frequency_hz * t);
    }
  }

  if (spec.interference_amplitude != 0.0 && spec.interference_frequency_hz != 0.0) {
    for (std::size_t i = 0; i < num_samples; ++i) {
      const double t = static_cast<double>(i) * dt;
      wave[i] += spec.interference_amplitude *
                 std::sin(2.0 * resloc::math::kPi * spec.interference_frequency_hz * t);
    }
  }

  if (spec.noise_stddev > 0.0) {
    for (double& s : wave) s += rng.gaussian(0.0, spec.noise_stddev);
  }
  return wave;
}

void mix_tone_noise_block(const double* amplitude, const double* tone, const double* noise,
                          const std::uint8_t* burst, double burst_noise_sigma, double* out,
                          std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const double sigma = burst[i] != 0 ? burst_noise_sigma : 1.0;
    out[i] = amplitude[i] * tone[i] + sigma * noise[i];
  }
}

std::vector<ChirpPlacement> periodic_chirps(std::size_t count, std::size_t first_start,
                                            std::size_t period, std::size_t length) {
  std::vector<ChirpPlacement> chirps;
  chirps.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    chirps.push_back({first_start + i * period, length});
  }
  return chirps;
}

}  // namespace resloc::acoustics
