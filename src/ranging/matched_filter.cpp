#include "ranging/matched_filter.hpp"

#include <algorithm>
#include <cmath>

namespace resloc::ranging {

MatchedFilterNcc::MatchedFilterNcc(double threshold, int peak_plateau)
    : threshold_(threshold), peak_plateau_(std::max(1, peak_plateau)) {}

void MatchedFilterNcc::detect_into(const double* x, std::size_t n, std::size_t chirp_samples,
                                   const acoustics::ToneTemplateView& tpl,
                                   std::uint64_t* marks) {
  std::fill(marks, marks + (n + 63) / 64, std::uint64_t{0});
  if (!scan(x, n, chirp_samples, tpl)) return;
  for (std::size_t i : peaks_) {
    const std::size_t end = std::min(n, i + static_cast<std::size_t>(peak_plateau_));
    for (std::size_t j = i; j < end; ++j) marks[j / 64] |= std::uint64_t{1} << (j % 64);
  }
}

bool MatchedFilterNcc::scan(const double* x, std::size_t n, std::size_t chirp_samples,
                            const acoustics::ToneTemplateView& tpl) {
  peaks_.clear();
  const std::size_t L = std::max<std::size_t>(1, chirp_samples);
  if (n < L || tpl.length < n) {
    ncc_.clear();
    return false;
  }

  // Prefix sums of x*sin(w*k), x*cos(w*k), x^2 over the absolute sample index
  // k. The quadrature pair makes the correlation phase-free: the window
  // [i, i + L) correlates against the template at *any* starting phase with
  // magnitude sqrt(ds^2 + dc^2), so no per-offset phase rotation is needed
  // and the whole scan is O(n) independent of L.
  prefix_sin_.resize(n + 1);
  prefix_cos_.resize(n + 1);
  prefix_energy_.resize(n + 1);
  prefix_sin_[0] = prefix_cos_[0] = prefix_energy_[0] = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    prefix_sin_[k + 1] = prefix_sin_[k] + x[k] * tpl.sin_t[k];
    prefix_cos_[k + 1] = prefix_cos_[k] + x[k] * tpl.cos_t[k];
    prefix_energy_[k + 1] = prefix_energy_[k] + x[k] * x[k];
  }

  // NCC[i] for the forward window [i, i + L): correlation magnitude over the
  // geometric mean of window energy and template energy (L/2 for a unit
  // tone). Forward indexing is the group-delay compensation -- the statistic
  // for offset i describes a chirp *starting* at i, so a picked peak needs no
  // half-window shift.
  const std::size_t m = n - L + 1;
  ncc_.resize(m);
  const double template_energy = static_cast<double>(L) / 2.0;
  for (std::size_t i = 0; i < m; ++i) {
    const double ds = prefix_sin_[i + L] - prefix_sin_[i];
    const double dc = prefix_cos_[i + L] - prefix_cos_[i];
    const double energy = prefix_energy_[i + L] - prefix_energy_[i];
    ncc_[i] = energy > 0.0 ? std::sqrt((ds * ds + dc * dc) / (energy * template_energy)) : 0.0;
  }

  // Peak picking with non-maximum suppression. NCC rises as sqrt(overlap)
  // while the template slides into a chirp, so the rising edge crosses the
  // threshold up to L*(1 - threshold^2) samples before the true onset, and
  // sample noise decorates that edge with micro-maxima. A candidate is kept
  // only if it dominates its +-L/2 neighborhood (leftmost wins exact ties),
  // which suppresses the precursors while keeping echoes at lags beyond L/2
  // as their own peaks (downstream accumulation + silence verification deal
  // with those). Local maxima above the threshold are rare, so the
  // neighborhood check runs on a handful of candidates, not on every offset.
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

}  // namespace resloc::ranging
