#include "reference/matched_filter.hpp"

#include <algorithm>
#include <cmath>

namespace resloc::reference {

ScalarNcc::ScalarNcc(double threshold, int peak_plateau)
    : threshold_(threshold), peak_plateau_(std::max(1, peak_plateau)) {}

void ScalarNcc::detect_into(const double* x, std::size_t n, std::size_t chirp_samples,
                            const acoustics::ToneTemplateView& tpl, std::uint64_t* marks) {
  std::fill(marks, marks + (n + 63) / 64, std::uint64_t{0});
  if (!scan(x, n, chirp_samples, tpl)) return;
  for (std::size_t i : peaks_) {
    const std::size_t end = std::min(n, i + static_cast<std::size_t>(peak_plateau_));
    for (std::size_t j = i; j < end; ++j) marks[j / 64] |= std::uint64_t{1} << (j % 64);
  }
}

bool ScalarNcc::scan(const double* x, std::size_t n, std::size_t chirp_samples,
                     const acoustics::ToneTemplateView& tpl) {
  peaks_.clear();
  const std::size_t L = std::max<std::size_t>(1, chirp_samples);
  if (n < L || tpl.length < n) {
    ncc_.clear();
    return false;
  }

  prefix_sin_.resize(n + 1);
  prefix_cos_.resize(n + 1);
  prefix_energy_.resize(n + 1);
  prefix_sin_[0] = prefix_cos_[0] = prefix_energy_[0] = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    prefix_sin_[k + 1] = prefix_sin_[k] + x[k] * tpl.sin_t[k];
    prefix_cos_[k + 1] = prefix_cos_[k] + x[k] * tpl.cos_t[k];
    prefix_energy_[k + 1] = prefix_energy_[k] + x[k] * x[k];
  }

  const std::size_t m = n - L + 1;
  ncc_.resize(m);
  const double template_energy = static_cast<double>(L) / 2.0;
  for (std::size_t i = 0; i < m; ++i) {
    const double ds = prefix_sin_[i + L] - prefix_sin_[i];
    const double dc = prefix_cos_[i + L] - prefix_cos_[i];
    const double energy = prefix_energy_[i + L] - prefix_energy_[i];
    ncc_[i] = energy > 0.0 ? std::sqrt((ds * ds + dc * dc) / (energy * template_energy)) : 0.0;
  }

  const std::size_t radius = L / 2;
  for (std::size_t i = 0; i < m; ++i) {
    if (ncc_[i] < threshold_) continue;
    if (i > 0 && ncc_[i] <= ncc_[i - 1]) continue;            // leftmost of any plateau
    if (i + 1 < m && ncc_[i] < ncc_[i + 1]) continue;         // not a local max
    const std::size_t lo = i > radius ? i - radius : 0;
    const std::size_t hi = std::min(m, i + radius + 1);
    bool dominant = true;
    for (std::size_t j = lo; j < i && dominant; ++j) dominant = ncc_[j] < ncc_[i];
    for (std::size_t j = i + 1; j < hi && dominant; ++j) dominant = ncc_[j] <= ncc_[i];
    if (!dominant) continue;
    peaks_.push_back(i);
  }
  return true;
}

}  // namespace resloc::reference
