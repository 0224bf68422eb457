#include "core/intersection_check.hpp"

#include <algorithm>

namespace resloc::core {

using resloc::math::Circle;
using resloc::math::Vec2;

namespace {

/// Cluster linkage radius ("e.g., beyond 1m range" in the paper).
constexpr double kClusterRadiusM = 1.0;
/// Anchors are kept when at least one of their intersection points lies
/// within this distance of the dominant cluster.
constexpr double kAnchorKeepRadiusM = 1.0;
/// Never drop below this many anchors; with fewer consistent anchors the
/// check keeps all anchors instead (a caveat the paper notes: scarce data
/// can make suspicious measurements worth retaining).
constexpr std::size_t kMinAnchors = 3;

}  // namespace

IntersectionCheckResult check_intersection_consistency(
    const std::vector<AnchorObservation>& anchors) {
  IntersectionCheckResult result;
  const std::size_t n = anchors.size();

  // All pairwise intersection points, remembering which anchors produced each.
  std::vector<std::pair<std::size_t, std::size_t>> owners;
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a + 1; b < n; ++b) {
      const Circle ca{anchors[a].position, anchors[a].distance_m};
      const Circle cb{anchors[b].position, anchors[b].distance_m};
      for (const Vec2& p : resloc::math::intersect(ca, cb)) {
        result.intersection_points.push_back(p);
        owners.emplace_back(a, b);
      }
    }
  }

  if (result.intersection_points.empty()) {
    // No circles intersect at all (wild measurements or disjoint geometry):
    // keep everything, let least squares sort it out.
    result.consistent_anchors.resize(n);
    for (std::size_t i = 0; i < n; ++i) result.consistent_anchors[i] = i;
    return result;
  }

  result.cluster =
      resloc::math::largest_cluster(result.intersection_points, kClusterRadiusM);
  std::vector<Vec2> cluster_points;
  cluster_points.reserve(result.cluster.size());
  for (std::size_t idx : result.cluster) cluster_points.push_back(result.intersection_points[idx]);
  result.cluster_centroid = resloc::math::centroid(cluster_points);

  // An anchor survives when one of its intersection points sits inside or
  // near the dominant cluster.
  std::vector<bool> keep(n, false);
  const double keep_r_sq = kAnchorKeepRadiusM * kAnchorKeepRadiusM;
  for (std::size_t point_idx = 0; point_idx < result.intersection_points.size(); ++point_idx) {
    const Vec2& p = result.intersection_points[point_idx];
    bool near_cluster = false;
    for (const Vec2& c : cluster_points) {
      if (resloc::math::distance_sq(p, c) <= keep_r_sq) {
        near_cluster = true;
        break;
      }
    }
    if (near_cluster) {
      keep[owners[point_idx].first] = true;
      keep[owners[point_idx].second] = true;
    }
  }

  for (std::size_t i = 0; i < n; ++i) {
    if (keep[i]) result.consistent_anchors.push_back(i);
  }
  if (result.consistent_anchors.size() < kMinAnchors) {
    // Too few survivors: scarce data beats suspicious data (paper's caveat).
    result.consistent_anchors.resize(n);
    for (std::size_t i = 0; i < n; ++i) result.consistent_anchors[i] = i;
  }
  return result;
}

}  // namespace resloc::core
