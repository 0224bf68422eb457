#include "core/lss.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>

#include "core/lss_objective.hpp"
#include "obs/telemetry.hpp"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace resloc::core {

using resloc::math::Vec2;

namespace {

constexpr double kMinSeparation = 1e-9;  // guards the 1/dcomp gradient factor

/// One stress term w (dcomp - target)^2 of a pair at offset (dx, dy),
/// d_sq = dx^2 + dy^2: its error and its gradient at the pair's first node
/// (the second node gets the negation).
struct Term {
  double error;
  double gx;
  double gy;
};

Term term(double dx, double dy, double d_sq, double target, double weight) {
  const double dcomp = std::max(std::sqrt(d_sq), kMinSeparation);
  const double residual = dcomp - target;
  const double scale = 2.0 * weight * residual / dcomp;
  return {weight * residual * residual, scale * dx, scale * dy};
}

/// Adds one term for the pair (i, j) to `error` and `grad` (n nodes).
double apply(std::vector<double>& grad, std::size_t n, double error, std::size_t i,
             std::size_t j, const Term& t) {
  grad[i] += t.gx;
  grad[j] -= t.gx;
  grad[n + i] += t.gy;
  grad[n + j] -= t.gy;
  return error + t.error;
}

#if defined(__SSE2__)
/// term() for two pairs at once, one per lane. Every lane op is one
/// IEEE-exact SSE2 instruction in term()'s order (baseline x86-64, nothing
/// to dispatch, no FMA to contract into), so each lane rounds exactly like
/// term(): max(kmin, s) returns s when s is NaN, as std::max(s, kmin) does,
/// and 2w is exact. The divider is the bound -- one sqrtsd and one divsd per
/// scalar term, while sqrtpd and divpd do two for about the same cost.
struct TermPair {
  __m128d error;
  __m128d gx;
  __m128d gy;
};

TermPair term_pair(__m128d dx, __m128d dy, __m128d d_sq, __m128d target, __m128d weight) {
  const __m128d dcomp = _mm_max_pd(_mm_set1_pd(kMinSeparation), _mm_sqrt_pd(d_sq));
  const __m128d residual = _mm_sub_pd(dcomp, target);
  const __m128d scale =
      _mm_div_pd(_mm_mul_pd(_mm_mul_pd(_mm_set1_pd(2.0), weight), residual), dcomp);
  return {_mm_mul_pd(_mm_mul_pd(weight, residual), residual), _mm_mul_pd(scale, dx),
          _mm_mul_pd(scale, dy)};
}

/// Lane 0 (`high` false) or lane 1 of a TermPair as a Term.
Term lane(const TermPair& t, bool high) {
  if (!high) return {_mm_cvtsd_f64(t.error), _mm_cvtsd_f64(t.gx), _mm_cvtsd_f64(t.gy)};
  return {_mm_cvtsd_f64(_mm_unpackhi_pd(t.error, t.error)),
          _mm_cvtsd_f64(_mm_unpackhi_pd(t.gx, t.gx)), _mm_cvtsd_f64(_mm_unpackhi_pd(t.gy, t.gy))};
}

/// (p[b], p[a]) as one vector: lane 0 holds p[a].
__m128d gather(const double* p, std::size_t a, std::size_t b) {
  return _mm_loadh_pd(_mm_load_sd(p + a), p + b);
}
#endif

}  // namespace

namespace detail {

StressObjective::StressObjective(const MeasurementSet& measurements, const LssOptions& options,
                                 std::vector<NodeId> fixed)
    : measurements_(measurements),
      options_(options),
      fixed_(std::move(fixed)),
      n_(measurements.node_count()) {
  if (!options_.min_spacing_m.has_value()) return;
  dmin_ = *options_.min_spacing_m;
  dmin_sq_ = dmin_ * dmin_;
  skin_ = kSkinFraction * dmin_;
}

double StressObjective::operator()(const std::vector<double>& p, std::vector<double>& grad) {
  for (double& g : grad) g = 0.0;
  double error = 0.0;

  // Measured-edge term: w_ij (dcomp - d_ij)^2. Two edges per step, their
  // terms added lane 0 then lane 1, so every gradient entry and the error
  // see the scalar loop's additions in the scalar loop's order.
  const std::vector<DistanceEdge>& edges = measurements_.edges();
  const double* const x = p.data();
  const double* const y = p.data() + n_;
  std::size_t k = 0;
#if defined(__SSE2__)
  for (; k + 2 <= edges.size(); k += 2) {
    const DistanceEdge& a = edges[k];
    const DistanceEdge& b = edges[k + 1];
    const __m128d dx = _mm_sub_pd(gather(x, a.i, b.i), gather(x, a.j, b.j));
    const __m128d dy = _mm_sub_pd(gather(y, a.i, b.i), gather(y, a.j, b.j));
    const __m128d d_sq = _mm_add_pd(_mm_mul_pd(dx, dx), _mm_mul_pd(dy, dy));
    const TermPair t = term_pair(dx, dy, d_sq, _mm_set_pd(b.distance_m, a.distance_m),
                                 _mm_set_pd(b.weight, a.weight));
    error = apply(grad, n_, error, a.i, a.j, lane(t, false));
    error = apply(grad, n_, error, b.i, b.j, lane(t, true));
  }
#endif
  for (; k < edges.size(); ++k) {
    const DistanceEdge& e = edges[k];
    const double dx = x[e.i] - x[e.j];
    const double dy = y[e.i] - y[e.j];
    error = apply(grad, n_, error, e.i, e.j,
                  term(dx, dy, dx * dx + dy * dy, e.distance_m, e.weight));
  }

  // Soft minimum-spacing constraint over *unmeasured* pairs placed closer
  // than d_min: w_D (dcomp - d_min)^2. The active set changes dynamically
  // as the configuration moves (Section 4.2.1).
  if (options_.min_spacing_m.has_value()) error = accumulate_constraint_list(p, grad, error);

  for (const NodeId i : fixed_) {
    grad[i] = 0.0;
    grad[n_ + i] = 0.0;
  }
  // Edge-term vs constraint-stage split per evaluation: the two tallies
  // ROADMAP items 1 and 5 read to see where an LSS solve's work goes.
  obs::add(obs::Counter::kLssEdgeTerms, measurements_.edges().size());
  obs::add(obs::Counter::kLssConstraintPairs, active_pairs_);
  active_pairs_ = 0;
  return error;
}

/// Walks the skin list with the dense scan's per-pair test and arithmetic
/// (the reference applies the same term in the same pair order, so the
/// bit-equivalence guarantee reduces to visiting the same active pairs).
/// Measured pairs never enter the list, so the walk needs no exemption
/// lookup; pairs the list holds but that sit at or beyond d_min are skipped
/// by the same `d_sq >= dmin_sq` test the dense scan applies, so a NaN d_sq
/// stays active as it does there. One entry at a time: the list is empty on
/// converged configurations, and a two-lane form of this walk ran at most
/// ~5% faster per entry on folded ones, so it was not kept.
double StressObjective::accumulate_constraint_list(const std::vector<double>& p,
                                                   std::vector<double>& grad, double error) {
  if (list_is_stale(p)) build_list(p);
  pair_tests_ += list_.size();
  const double* const x = p.data();
  const double* const y = p.data() + n_;
  const double wd = options_.constraint_weight;
  for (const std::uint64_t pair : list_) {
    const std::size_t i = pair >> 32;
    const std::size_t j = pair & 0xffffffffu;
    const double dx = x[i] - x[j];
    const double dy = y[i] - y[j];
    const double d_sq = dx * dx + dy * dy;
    if (d_sq >= dmin_sq_) continue;
    ++active_pairs_;
    error = apply(grad, n_, error, i, j, term(dx, dy, d_sq, dmin_, wd));
  }
  return error;
}

/// True when the list no longer covers the active set: no list yet, or some
/// node has moved at least skin/2 from where the list was built. Two nodes
/// each under skin/2 close a gap by under one skin, so a pair that was at or
/// beyond d_min + skin at build time is still beyond d_min. The test is
/// negated so a NaN or infinite displacement always rebuilds.
bool StressObjective::list_is_stale(const std::vector<double>& p) const {
  if (ref_.size() != p.size()) return true;
  const double limit = 0.5 * skin_ * (1.0 - kSlack);
  const double limit_sq = limit * limit;
  bool stale = false;
  for (std::size_t i = 0; i < n_; ++i) {
    const double dx = p[i] - ref_[i];
    const double dy = p[n_ + i] - ref_[n_ + i];
    stale |= !(dx * dx + dy * dy < limit_sq);
  }
  return stale;
}

/// Rebuilds the list at `p`: bucket the configuration into cells of side
/// d_min + skin (any pair within that reach shares a 3x3 cell
/// neighborhood), keep the candidates within reach, order them (i asc,
/// j asc) as the dense scan visits pairs, and drop the measured ones.
void StressObjective::build_list(const std::vector<double>& p) {
  ++rebuilds_;
  obs::add(obs::Counter::kLssNeighborRebuilds);
  ref_ = p;
  const double reach = (dmin_ + skin_) * (1.0 + kSlack);
  const double reach_sq = reach * reach;
  grid_.rebuild(p.data(), p.data() + n_, n_, reach);
  pairs_.clear();
  pairs_.reserve(2 * n_);  // ~1-2 per node at any sane density; one allocation
  std::uint64_t candidates = 0;
  grid_.for_each_candidate_pair([this, &p, reach_sq, &candidates](std::size_t i, std::size_t j) {
    ++candidates;
    const double dx = p[i] - p[j];
    const double dy = p[n_ + i] - p[n_ + j];
    if (dx * dx + dy * dy >= reach_sq) return;
    pairs_.push_back((static_cast<std::uint64_t>(i) << 32) | j);
  });
  pair_tests_ += candidates;

  // Counting sort by i, then one insertion sort over the whole list: the
  // scatter leaves it grouped by ascending i, so the insertion sort only
  // moves entries within a group -- a handful of js each.
  counts_.assign(n_ + 1, 0);
  for (const std::uint64_t pair : pairs_) ++counts_[(pair >> 32) + 1];
  for (std::size_t i = 1; i <= n_; ++i) counts_[i] += counts_[i - 1];
  list_.resize(pairs_.size());
  for (const std::uint64_t pair : pairs_) list_[counts_[pair >> 32]++] = pair;
  for (std::size_t a = 1; a < list_.size(); ++a) {
    const std::uint64_t v = list_[a];
    std::size_t b = a;
    while (b > 0 && list_[b - 1] > v) {
      list_[b] = list_[b - 1];
      --b;
    }
    list_[b] = v;
  }

  // Drop the measured pairs. In ascending-i order consecutive lookups share
  // or neighbor an adjacency row, which keeps this scan cache-friendly; done
  // per candidate in the sweep's spatial order it cost more than the grid.
  std::size_t kept = 0;
  for (const std::uint64_t pair : list_) {
    const auto i = static_cast<NodeId>(pair >> 32);
    const auto j = static_cast<NodeId>(pair & 0xffffffffu);
    bool measured = false;
    for (const auto& [neighbor, edge_index] : measurements_.incident(i)) {
      measured |= neighbor == j;
    }
    if (!measured) list_[kept++] = pair;
  }
  list_.resize(kept);
}

}  // namespace detail

double lss_stress(const MeasurementSet& measurements, const std::vector<Vec2>& positions,
                  const LssOptions& options) {
  std::vector<double> grad;
  return lss_stress_with_gradient(measurements, positions, options, grad);
}

double lss_stress_with_gradient(const MeasurementSet& measurements,
                                const std::vector<Vec2>& positions, const LssOptions& options,
                                std::vector<double>& grad) {
  const std::size_t n = measurements.node_count();
  std::vector<double> p(2 * n, 0.0);
  for (std::size_t i = 0; i < n && i < positions.size(); ++i) {
    p[i] = positions[i].x;
    p[n + i] = positions[i].y;
  }
  grad.resize(2 * n);  // the objective zeroes it
  detail::StressObjective objective(measurements, options, {});
  return objective(p, grad);
}

LssResult localize_lss(const MeasurementSet& measurements, const LssOptions& options,
                       resloc::math::Rng& rng) {
  return detail::best_of_random_inits(measurements, options, rng,
                                      [&](std::vector<Vec2> initial) {
                                        return localize_lss_from(measurements, std::move(initial),
                                                                 options, rng);
                                      });
}

LssResult localize_lss_from(const MeasurementSet& measurements, std::vector<Vec2> initial,
                            const LssOptions& options, resloc::math::Rng& rng) {
  const std::size_t n = measurements.node_count();
  std::vector<double> p(2 * n, 0.0);
  for (std::size_t i = 0; i < n && i < initial.size(); ++i) {
    p[i] = initial[i].x;
    p[n + i] = initial[i].y;
  }
  detail::StressObjective objective(measurements, options, {});
  return detail::solve(objective, std::move(p), options, rng);
}

LssResult localize_lss_anchored(const MeasurementSet& measurements,
                                const std::vector<std::pair<NodeId, Vec2>>& anchors,
                                const LssOptions& options, resloc::math::Rng& rng) {
  const std::size_t n = measurements.node_count();
  std::vector<double> p(2 * n, 0.0);
  std::vector<NodeId> fixed;
  for (std::size_t i = 0; i < n; ++i) {
    p[i] = rng.uniform(0.0, options.init_box_m);
    p[n + i] = rng.uniform(0.0, options.init_box_m);
  }
  for (const auto& [id, pos] : anchors) {
    p[id] = pos.x;
    p[n + id] = pos.y;
    fixed.push_back(id);
  }
  detail::StressObjective objective(measurements, options, std::move(fixed));
  return detail::solve(objective, std::move(p), options, rng);
}

}  // namespace resloc::core
