// Rigid-transform estimation between two local coordinate systems
// (Section 4.3.1, Step 2 of the distributed algorithm).
//
// Given the coordinates of shared neighbors C in a source and a target
// system, find the translation + rotation + reflection mapping source onto
// target. Two methods, as in the paper:
//   - exact: minimize E_f over (theta, tx, ty) for f = +1 and f = -1 by
//     gradient descent and keep the better ("fairly accurate results, but ...
//     too computationally intensive" for motes),
//   - closed form: translate by the centers of mass, solve
//     [Cxu + Cyv, Cxv - Cyu] . [sin theta, cos theta]^T = 0 for the rotation,
//     try both reflections ("slightly less accurate, but computationally
//     tractable" -- this is planar Procrustes; see math/procrustes.hpp).
#pragma once

#include <vector>

#include "math/gradient_descent.hpp"
#include "math/rng.hpp"
#include "math/transform2d.hpp"
#include "math/vec2.hpp"

namespace resloc::core {

/// Estimated transform plus its fit quality.
struct TransformEstimate {
  resloc::math::Transform2D transform;
  double sum_squared_error = 0.0;
  bool valid = false;
};

/// Closed-form (centroid + covariance) estimation -- the method distributed
/// localization uses. Needs >= 2 shared points for a meaningful rotation;
/// with fewer the result is translation-only.
TransformEstimate estimate_transform_closed_form(const std::vector<resloc::math::Vec2>& source,
                                                 const std::vector<resloc::math::Vec2>& target);

/// Exact estimation: gradient descent over (theta, tx, ty) for each
/// reflection hypothesis. The paper's comparison point for the closed form
/// (bench_ablation_transform_method).
TransformEstimate estimate_transform_exact(const std::vector<resloc::math::Vec2>& source,
                                           const std::vector<resloc::math::Vec2>& target,
                                           resloc::math::Rng& rng);

}  // namespace resloc::core
