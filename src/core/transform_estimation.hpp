// Exact rigid-transform estimation between two local coordinate systems
// (Section 4.3.1, Step 2 of the distributed algorithm).
//
// Given the coordinates of shared neighbors C in a source and a target
// system, find the translation + rotation + reflection mapping source onto
// target. The paper gives two methods:
//   - exact (here): minimize E_f over (theta, tx, ty) for f = +1 and f = -1
//     by gradient descent and keep the better ("fairly accurate results,
//     but ... too computationally intensive" for motes),
//   - closed form: translate by the centers of mass, solve
//     [Cxu + Cyv, Cxv - Cyu] . [sin theta, cos theta]^T = 0 for the rotation,
//     try both reflections ("slightly less accurate, but computationally
//     tractable"). That is planar Procrustes, math::fit_rigid, which
//     distributed localization calls directly.
#pragma once

#include <vector>

#include "math/procrustes.hpp"
#include "math/rng.hpp"
#include "math/vec2.hpp"

namespace resloc::core {

/// Exact estimation: gradient descent over (theta, tx, ty) for each
/// reflection hypothesis. The paper's comparison point for the closed form
/// (bench_ablation_transform_method).
resloc::math::RigidFit estimate_transform_exact(const std::vector<resloc::math::Vec2>& source,
                                                const std::vector<resloc::math::Vec2>& target,
                                                resloc::math::Rng& rng);

}  // namespace resloc::core
