#include "reference/lss.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/lss_objective.hpp"
#include "obs/telemetry.hpp"

namespace resloc::reference {

namespace {

constexpr double kMinSeparation = 1e-9;  // guards the 1/dcomp gradient factor

/// Flattens positions into the solver's [x..., y...] layout over n nodes.
std::vector<double> flatten(const std::vector<math::Vec2>& positions, std::size_t n) {
  std::vector<double> p(2 * n, 0.0);
  for (std::size_t i = 0; i < n && i < positions.size(); ++i) {
    p[i] = positions[i].x;
    p[n + i] = positions[i].y;
  }
  return p;
}

}  // namespace

DenseStressObjective::DenseStressObjective(const core::MeasurementSet& measurements,
                                           const core::LssOptions& options,
                                           std::vector<core::NodeId> fixed)
    : measurements_(measurements),
      options_(options),
      fixed_(std::move(fixed)),
      n_(measurements.node_count()) {}

double DenseStressObjective::operator()(const std::vector<double>& p, std::vector<double>& grad) {
  for (double& g : grad) g = 0.0;
  double error = 0.0;
  // w_ij (dcomp - d_ij)^2 over the measured edges, and w_D (dcomp - d_min)^2
  // over the unmeasured pairs closer than d_min (Section 4.2.1).
  const auto add_term = [&](std::size_t i, std::size_t j, double dx, double dy, double dcomp,
                            double target, double weight) {
    const double residual = dcomp - target;
    error += weight * residual * residual;
    const double scale = 2.0 * weight * residual / dcomp;
    grad[i] += scale * dx;
    grad[j] -= scale * dx;
    grad[n_ + i] += scale * dy;
    grad[n_ + j] -= scale * dy;
  };
  for (const core::DistanceEdge& e : measurements_.edges()) {
    const double dx = p[e.i] - p[e.j];
    const double dy = p[n_ + e.i] - p[n_ + e.j];
    const double dcomp = std::max(std::sqrt(dx * dx + dy * dy), kMinSeparation);
    add_term(e.i, e.j, dx, dy, dcomp, e.distance_m, e.weight);
  }
  std::uint64_t active_pairs = 0;
  if (options_.min_spacing_m.has_value()) {
    const double dmin = *options_.min_spacing_m;
    const double dmin_sq = dmin * dmin;
    for (core::NodeId i = 0; i + 1 < n_; ++i) {
      for (core::NodeId j = i + 1; j < n_; ++j) {
        const double dx = p[i] - p[j];
        const double dy = p[n_ + i] - p[n_ + j];
        const double d_sq = dx * dx + dy * dy;
        if (d_sq >= dmin_sq) continue;           // constraint satisfied
        if (measurements_.has(i, j)) continue;  // measured pairs are exempt
        ++active_pairs;
        const double dcomp = std::max(std::sqrt(d_sq), kMinSeparation);
        add_term(i, j, dx, dy, dcomp, dmin, options_.constraint_weight);
      }
    }
  }
  for (const core::NodeId i : fixed_) {
    grad[i] = 0.0;
    grad[n_ + i] = 0.0;
  }
  obs::add(obs::Counter::kLssEdgeTerms, measurements_.edges().size());
  obs::add(obs::Counter::kLssConstraintPairs, active_pairs);
  return error;
}

double lss_stress_with_gradient_dense(const core::MeasurementSet& measurements,
                                      const std::vector<math::Vec2>& positions,
                                      const core::LssOptions& options, std::vector<double>& grad) {
  const std::size_t n = measurements.node_count();
  const std::vector<double> p = flatten(positions, n);
  grad.resize(2 * n);  // the objective zeroes it
  DenseStressObjective objective(measurements, options);
  return objective(p, grad);
}

core::LssResult localize_lss_from_dense(const core::MeasurementSet& measurements,
                                        std::vector<math::Vec2> initial,
                                        const core::LssOptions& options, math::Rng& rng) {
  DenseStressObjective objective(measurements, options);
  return core::detail::solve(objective, flatten(initial, measurements.node_count()), options,
                             rng);
}

core::LssResult localize_lss_dense(const core::MeasurementSet& measurements,
                                   const core::LssOptions& options, math::Rng& rng) {
  return core::detail::best_of_random_inits(
      measurements, options, rng, [&](std::vector<math::Vec2> initial) {
        return localize_lss_from_dense(measurements, std::move(initial), options, rng);
      });
}

}  // namespace resloc::reference
