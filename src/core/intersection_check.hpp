// Intersection consistency checking for multilateration (Section 4.1.2).
//
// Range circles drawn at the anchors should intersect near the node being
// localized; measurement errors spread the intersection points, but anchors
// with *consistent* distances still intersect close to one another. The
// check computes all pairwise circle intersections, finds the dominant
// cluster, and drops anchors with no intersection point near it (Figure 11's
// anchor (-170, 700) is the canonical casualty: nearly collinear anchors
// amplify small range errors into large intersection displacement).
#pragma once

#include <cstddef>
#include <vector>

#include "math/geometry.hpp"
#include "math/vec2.hpp"

namespace resloc::core {

/// One anchor's contribution to localizing a node.
struct AnchorObservation {
  resloc::math::Vec2 position;
  double distance_m = 0.0;
  double weight = 1.0;
};

/// Outcome of the intersection consistency check.
struct IntersectionCheckResult {
  /// Indices (into the input observation list) of anchors that survived.
  std::vector<std::size_t> consistent_anchors;
  /// All pairwise intersection points considered.
  std::vector<resloc::math::Vec2> intersection_points;
  /// Indices (into intersection_points) of the dominant cluster.
  std::vector<std::size_t> cluster;
  /// Centroid of the dominant cluster: the "mode of the intersection points"
  /// the paper suggests as a position estimate for large anchor counts
  /// (a diagnostic here; multilateration always minimizes).
  resloc::math::Vec2 cluster_centroid;
};

/// Runs the intersection consistency check over the anchor observations.
IntersectionCheckResult check_intersection_consistency(
    const std::vector<AnchorObservation>& anchors);

}  // namespace resloc::core
