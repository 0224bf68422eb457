// Multilateration localization (Section 4.1).
//
// A node with distance measurements to >= 3 non-collinear anchors estimates
// its position by weighted nonlinear least squares:
//   argmin_(x,y)  sum_a w(c_a) * (sqrt((x-x_a)^2 + (y-y_a)^2) - d_a)^2
// solved by gradient descent. The scheme optionally:
//   - applies the intersection consistency check first (Section 4.1.2),
//   - localizes progressively, promoting localized nodes to anchors with
//     down-weighted confidence (Section 4.1.1's proposed modification).
#pragma once

#include <optional>

#include "core/intersection_check.hpp"
#include "core/types.hpp"
#include "math/rng.hpp"

namespace resloc::core {

/// Multilateration configuration.
struct MultilaterationOptions {
  /// Minimum anchors with measurements before a node is localized at all
  /// (default 3, the planar lower bound).
  std::size_t min_anchors = 3;

  /// Run the intersection consistency check before minimizing.
  bool use_intersection_check = false;

  /// Degrade instead of giving up: a node with fewer than `min_anchors` but
  /// at least two usable anchors still receives a fix, flagged
  /// LocalizationStatus::kDegraded in the result (the solve is
  /// under-constrained -- with two anchors the position is one of two mirror
  /// points). Degraded fixes never join the progressive anchor pool. Off by
  /// default so the paper-faithful behavior (and its goldens) are untouched.
  bool allow_degraded = false;

  /// Progressive localization: localized non-anchors become anchors for
  /// later rounds (at most 10) with weight 0.5. The paper's reported
  /// experiments use a single round with constant weight 1, so this defaults
  /// off.
  bool progressive = false;
};

/// Least-squares position fit against a fixed set of anchor observations.
/// Returns nullopt when fewer than `min_anchors` observations are given.
std::optional<resloc::math::Vec2> multilaterate(const std::vector<AnchorObservation>& anchors,
                                                const MultilaterationOptions& options,
                                                resloc::math::Rng& rng);

/// Localizes every non-anchor node of the deployment from the measurement
/// set. Anchor positions are taken from the deployment (anchors "know their
/// own location"); non-anchor entries of the result hold estimates or nullopt
/// when the node could not be localized.
LocalizationResult localize_by_multilateration(const Deployment& deployment,
                                               const MeasurementSet& measurements,
                                               const MultilaterationOptions& options,
                                               resloc::math::Rng& rng);

/// Average number of usable anchors per non-anchor node -- the paper reports
/// this (1.47 for the sparse grid, 3.84 augmented) as the sparsity diagnostic.
double average_anchors_per_node(const Deployment& deployment,
                                const MeasurementSet& measurements);

}  // namespace resloc::core
