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

}  // namespace resloc::reference
