// Dense reference for the LSS soft-constraint scan.
//
// The production stress objective walks a skin (Verlet) candidate list to
// find the unmeasured pairs closer than d_min. This is the seed
// implementation it replaced: every evaluation scans all n(n-1)/2 pairs and
// looks each sub-d_min pair up in the measurement set. Same per-pair
// arithmetic in the same (i asc, j asc) order, so tests require bit-equal
// errors, gradients, active-pair tallies and whole solves, and
// bench_lss_scale times the list against it. Test and bench code only.
#pragma once

#include <vector>

#include "core/lss.hpp"
#include "core/types.hpp"
#include "math/rng.hpp"
#include "math/vec2.hpp"

namespace resloc::reference {

/// The LSS stress objective over [x_0..x_{n-1}, y_0..y_{n-1}] with the
/// dense all-pairs constraint scan; `fixed` nodes get zero gradient. Tallies
/// obs lss_edge_terms / lss_constraint_pairs per evaluation like the
/// production objective.
class DenseStressObjective {
 public:
  DenseStressObjective(const core::MeasurementSet& measurements, const core::LssOptions& options,
                       std::vector<core::NodeId> fixed = {});

  /// Error at `p`; fills `grad` (sized 2n by the caller).
  double operator()(const std::vector<double>& p, std::vector<double>& grad);

 private:
  const core::MeasurementSet& measurements_;
  const core::LssOptions options_;
  const std::vector<core::NodeId> fixed_;
  const std::size_t n_;
};

/// core::lss_stress_with_gradient with the dense scan.
double lss_stress_with_gradient_dense(const core::MeasurementSet& measurements,
                                      const std::vector<math::Vec2>& positions,
                                      const core::LssOptions& options, std::vector<double>& grad);

/// core::localize_lss_from with the dense scan: the same descent
/// (math::minimize_with_restarts via core::detail::solve), so the same seeds
/// give the same solution.
core::LssResult localize_lss_from_dense(const core::MeasurementSet& measurements,
                                        std::vector<math::Vec2> initial,
                                        const core::LssOptions& options, math::Rng& rng);

/// core::localize_lss with the dense scan (same random-init loop).
core::LssResult localize_lss_dense(const core::MeasurementSet& measurements,
                                   const core::LssOptions& options, math::Rng& rng);

}  // namespace resloc::reference
