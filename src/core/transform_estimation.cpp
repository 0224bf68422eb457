#include "core/transform_estimation.hpp"

#include <cmath>

#include "math/procrustes.hpp"

namespace resloc::core {

using resloc::math::Transform2D;
using resloc::math::Vec2;

TransformEstimate estimate_transform_closed_form(const std::vector<Vec2>& source,
                                                 const std::vector<Vec2>& target) {
  TransformEstimate estimate;
  const auto fit = resloc::math::fit_rigid(source, target, /*allow_reflection=*/true);
  if (!fit.valid) return estimate;
  estimate.transform = fit.transform;
  estimate.sum_squared_error = fit.sum_squared_error;
  estimate.valid = true;
  return estimate;
}

namespace {

/// E_f(theta, tx, ty) and its gradient for one reflection hypothesis.
resloc::math::Objective make_objective(const std::vector<Vec2>& source,
                                       const std::vector<Vec2>& target, bool reflect) {
  return [&source, &target, reflect](const std::vector<double>& p, std::vector<double>& grad) {
    const double theta = p[0];
    const Vec2 t{p[1], p[2]};
    const Transform2D transform(theta, reflect, t);
    const double f = reflect ? -1.0 : 1.0;
    const double c = std::cos(theta);
    const double s = std::sin(theta);

    double error = 0.0;
    grad[0] = grad[1] = grad[2] = 0.0;
    for (std::size_t i = 0; i < source.size(); ++i) {
      const Vec2 mapped = transform.apply(source[i]);
      const Vec2 r = mapped - target[i];
      error += r.norm_sq();
      // d(mapped)/dtheta with the paper's matrix convention:
      //   x = u c + v f s + tx -> dx/dtheta = -u s + v f c
      //   y = -u s + v f c + ty -> dy/dtheta = -u c - v f s
      const double u = source[i].x;
      const double v = source[i].y;
      const double dx_dtheta = -u * s + v * f * c;
      const double dy_dtheta = -u * c - v * f * s;
      grad[0] += 2.0 * (r.x * dx_dtheta + r.y * dy_dtheta);
      grad[1] += 2.0 * r.x;
      grad[2] += 2.0 * r.y;
    }
    return error;
  };
}

}  // namespace

TransformEstimate estimate_transform_exact(const std::vector<Vec2>& source,
                                           const std::vector<Vec2>& target,
                                           resloc::math::Rng& rng) {
  TransformEstimate best;
  if (source.empty() || source.size() != target.size()) return best;

  resloc::math::GradientDescentOptions gd;
  gd.step_size = 1e-3;
  gd.max_iterations = 3000;
  gd.gradient_tolerance = 1e-10;
  gd.relative_tolerance = 1e-14;
  resloc::math::RestartOptions restarts{.rounds = 4, .perturbation_stddev = 0.8};

  for (const bool reflect : {false, true}) {
    const auto objective = make_objective(source, target, reflect);
    // Seed translation with the centroid displacement, rotation at zero.
    Vec2 mu_src, mu_dst;
    for (const Vec2& v : source) mu_src += v;
    for (const Vec2& v : target) mu_dst += v;
    mu_src /= static_cast<double>(source.size());
    mu_dst /= static_cast<double>(target.size());
    const Vec2 t0 = mu_dst - mu_src;

    const auto result = resloc::math::minimize_with_restarts(
        objective, {0.0, t0.x, t0.y}, gd, restarts, rng);
    if (!best.valid || result.error < best.sum_squared_error) {
      best.transform = Transform2D(result.x[0], reflect, Vec2{result.x[1], result.x[2]});
      best.sum_squared_error = result.error;
      best.valid = true;
    }
  }
  return best;
}

}  // namespace resloc::core
