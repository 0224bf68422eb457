#include "reference/dft.hpp"

#include <cassert>
#include <cmath>

#include "math/constants.hpp"

namespace resloc::reference {

double direct_bin_power(const double* samples, std::size_t window, int bin) {
  double re = 0.0, im = 0.0;
  const double step = 2.0 * math::kPi * static_cast<double>(bin) / static_cast<double>(window);
  for (std::size_t i = 0; i < window; ++i) {
    const double angle = step * static_cast<double>(i);
    re += samples[i] * std::cos(angle);
    im -= samples[i] * std::sin(angle);
  }
  return re * re + im * im;
}

DirectDftFilter::DirectDftFilter(std::size_t window, int bin)
    : samples_(window, 0.0), bin_(bin) {
  assert(window > 0);
}

double DirectDftFilter::step(double sample) {
  samples_[n_] = sample;
  n_ = (n_ + 1) % samples_.size();
  // Sample t lives at ring position t mod window, so the storage index
  // doubles as the twiddle phase -- the same convention the sliding filter
  // uses, making the two comparable term by term.
  return direct_bin_power(samples_.data(), samples_.size(), bin_);
}

GoertzelOracle::GoertzelOracle(double tone_frequency_hz, double sample_rate_hz) {
  const std::size_t window = ranging::SlidingDftFilter::kWindow;
  const int bin = ranging::nearest_bin(tone_frequency_hz, sample_rate_hz, window);
  ring_.assign(window, 0.0);
  cos_.resize(window);
  sin_.resize(window);
  for (std::size_t i = 0; i < window; ++i) {
    const double angle = 2.0 * math::kPi * static_cast<double>(bin) * static_cast<double>(i) /
                         static_cast<double>(window);
    cos_[i] = std::cos(angle);
    sin_[i] = std::sin(angle);
  }
}

double GoertzelOracle::step(double sample) {
  const std::size_t window = ring_.size();
  const std::size_t at = k_++ % window;
  const double old = ring_[at];
  const double delta = sample - old;
  ring_[at] = sample;
  re_ += delta * cos_[at];
  im_ -= delta * sin_[at];
  energy_ += sample * sample - old * old;
  if (++steps_ == ranging::GoertzelSlidingFilter::kResyncPeriod) {
    re_ = im_ = energy_ = 0.0;
    for (std::size_t i = 0; i < window; ++i) {
      re_ += ring_[i] * cos_[i];
      im_ -= ring_[i] * sin_[i];
      energy_ += ring_[i] * ring_[i];
    }
    steps_ = 0;
  }
  return re_ * re_ + im_ * im_ - ranging::kToneNoiseScale * energy_ - 1e-6;
}

}  // namespace resloc::reference
