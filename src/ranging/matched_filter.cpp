#include "ranging/matched_filter.hpp"

#include <algorithm>
#include <cmath>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

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
  // and the whole scan is O(n) independent of L. The running sums stay in
  // registers: the prefix vectors may alias x and the template as far as the
  // compiler knows, so reading prefix_*[k] back would reload each chain from
  // memory on every step.
  prefix_sin_.resize(n + 1);
  prefix_cos_.resize(n + 1);
  prefix_energy_.resize(n + 1);
  double* const ps = prefix_sin_.data();
  double* const pc = prefix_cos_.data();
  double* const pe = prefix_energy_.data();
  double sum_sin = 0.0;
  double sum_cos = 0.0;
  double sum_energy = 0.0;
  ps[0] = pc[0] = pe[0] = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    sum_sin += x[k] * tpl.sin_t[k];
    sum_cos += x[k] * tpl.cos_t[k];
    sum_energy += x[k] * x[k];
    ps[k + 1] = sum_sin;
    pc[k + 1] = sum_cos;
    pe[k + 1] = sum_energy;
  }

  // NCC[i] for the forward window [i, i + L): correlation magnitude over the
  // geometric mean of window energy and template energy (L/2 for a unit
  // tone). Forward indexing is the group-delay compensation -- the statistic
  // for offset i describes a chirp *starting* at i, so a picked peak needs no
  // half-window shift.
  const std::size_t m = n - L + 1;
  ncc_.resize(m);
  double* const ncc = ncc_.data();
  const double template_energy = static_cast<double>(L) / 2.0;
  // [first, last] spans every lag whose statistic is not below the
  // threshold (NaN included), the only lags the peak pick can keep;
  // first == m when there is none.
  std::size_t first = m;
  std::size_t last = 0;
  std::size_t i = 0;
#if defined(__SSE2__)
  // Two lags per step: every lane op is one IEEE-exact SSE2 instruction
  // (baseline x86-64, nothing to dispatch, no FMA to contract into), so each
  // lane rounds exactly like the scalar loop below; lanes with !(E > 0)
  // select +0.0 instead of the scalar branch.
  const __m128d te = _mm_set1_pd(template_energy);
  const __m128d zero = _mm_setzero_pd();
  const __m128d threshold = _mm_set1_pd(threshold_);
  for (; i + 2 <= m; i += 2) {
    const __m128d ds = _mm_sub_pd(_mm_loadu_pd(ps + i + L), _mm_loadu_pd(ps + i));
    const __m128d dc = _mm_sub_pd(_mm_loadu_pd(pc + i + L), _mm_loadu_pd(pc + i));
    const __m128d energy = _mm_sub_pd(_mm_loadu_pd(pe + i + L), _mm_loadu_pd(pe + i));
    const __m128d power = _mm_add_pd(_mm_mul_pd(ds, ds), _mm_mul_pd(dc, dc));
    const __m128d r = _mm_sqrt_pd(_mm_div_pd(power, _mm_mul_pd(energy, te)));
    const __m128d v = _mm_and_pd(_mm_cmpgt_pd(energy, zero), r);
    _mm_storeu_pd(ncc + i, v);
    const int reach = _mm_movemask_pd(_mm_cmpnlt_pd(v, threshold));
    if (reach != 0) {
      if (first == m) first = i + ((reach & 1) != 0 ? 0 : 1);
      last = i + ((reach & 2) != 0 ? 1 : 0);
    }
  }
#endif
  for (; i < m; ++i) {
    const double ds = ps[i + L] - ps[i];
    const double dc = pc[i + L] - pc[i];
    const double energy = pe[i + L] - pe[i];
    ncc[i] = energy > 0.0 ? std::sqrt((ds * ds + dc * dc) / (energy * template_energy)) : 0.0;
    if (!(ncc[i] < threshold_)) {
      if (first == m) first = i;
      last = i;
    }
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
  for (i = first; i < m && i <= last; ++i) {
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
