#include "core/lss.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>

#include "core/lss_objective.hpp"
#include "obs/telemetry.hpp"

namespace resloc::core {

using resloc::math::Vec2;

namespace {

constexpr double kMinSeparation = 1e-9;  // guards the 1/dcomp gradient factor

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

  // Measured-edge term: w_ij (dcomp - d_ij)^2.
  for (const DistanceEdge& e : measurements_.edges()) {
    const double dx = p[e.i] - p[e.j];
    const double dy = p[n_ + e.i] - p[n_ + e.j];
    const double dcomp = std::max(std::sqrt(dx * dx + dy * dy), kMinSeparation);
    const double residual = dcomp - e.distance_m;
    error += e.weight * residual * residual;
    const double scale = 2.0 * e.weight * residual / dcomp;
    grad[e.i] += scale * dx;
    grad[e.j] -= scale * dx;
    grad[n_ + e.i] += scale * dy;
    grad[n_ + e.j] -= scale * dy;
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

/// One active pair's contribution, given the pair's already-computed offset.
/// The dense reference scan applies the same arithmetic -- the
/// bit-equivalence guarantee reduces to visiting the same active pairs in the
/// same order.
double StressObjective::add_violation(std::vector<double>& grad, double error, std::size_t i,
                                      std::size_t j, double dx, double dy, double d_sq) {
  ++active_pairs_;
  const double dcomp = std::max(std::sqrt(d_sq), kMinSeparation);
  const double residual = dcomp - dmin_;
  const double wd = options_.constraint_weight;
  error += wd * residual * residual;
  const double scale = 2.0 * wd * residual / dcomp;
  grad[i] += scale * dx;
  grad[j] -= scale * dx;
  grad[n_ + i] += scale * dy;
  grad[n_ + j] -= scale * dy;
  return error;
}

/// Walks the skin list with the dense scan's per-pair test.
/// Measured pairs never enter the list, so the walk needs no exemption
/// lookup; pairs the list holds but that sit at or beyond d_min are skipped
/// by the same `d_sq >= dmin_sq` test the dense scan applies.
double StressObjective::accumulate_constraint_list(const std::vector<double>& p,
                                                   std::vector<double>& grad, double error) {
  if (list_is_stale(p)) build_list(p);
  pair_tests_ += list_.size();
  for (const std::uint64_t pair : list_) {
    const std::size_t i = pair >> 32;
    const std::size_t j = pair & 0xffffffffu;
    const double dx = p[i] - p[j];
    const double dy = p[n_ + i] - p[n_ + j];
    const double d_sq = dx * dx + dy * dy;
    if (d_sq >= dmin_sq_) continue;
    error = add_violation(grad, error, i, j, dx, dy, d_sq);
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
