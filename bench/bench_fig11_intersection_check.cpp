// Figure 11: intersection consistency checking with near-collinear anchors.
//
// The paper's example: anchors nearly collinear with the node being localized
// amplify small ranging errors into large intersection displacement; the
// consistency check drops the anchor whose intersection points land nowhere
// near the dominant cluster (the paper's anchor at (-170, 700), units cm).
#include <cstdio>

#include "bench_util.hpp"
#include "core/intersection_check.hpp"
#include "core/multilateration.hpp"
#include "eval/report.hpp"

using namespace resloc;
using resloc::math::Vec2;

int main() {
  bench::print_banner("Figure 11 -- intersection consistency check, collinear anchors");

  // Scaled-down version of the Figure 11 geometry (meters): the node sits at
  // (10, 2); two anchors are nearly collinear with it; one anchor has a badly
  // overestimated distance.
  const Vec2 node{10.0, 2.0};
  std::vector<core::AnchorObservation> anchors;
  const std::vector<Vec2> anchor_pos{{-1.7, 7.0}, {9.5, 6.0}, {22.0, 5.0}, {3.0, -8.0},
                                     {18.0, -6.0}};
  for (const Vec2& a : anchor_pos) {
    anchors.push_back({a, math::distance(a, node), 1.0});
  }
  // Corrupt the first (near-collinear w.r.t. the third) anchor's distance.
  anchors[0].distance_m += 4.0;

  const auto check = core::check_intersection_consistency(anchors);
  std::printf("anchors: %zu   pairwise intersection points: %zu\n", anchors.size(),
              check.intersection_points.size());
  std::printf("dominant cluster size: %zu   centroid: (%.2f, %.2f)  [true node: (%.1f, %.1f)]\n",
              check.cluster.size(), check.cluster_centroid.x, check.cluster_centroid.y, node.x,
              node.y);
  std::printf("consistent anchors kept: ");
  for (std::size_t idx : check.consistent_anchors) std::printf("%zu ", idx);
  std::printf(" (anchor 0 carries the corrupted distance)\n");

  // Localization with vs without the check.
  math::Rng rng(0xF16'11);
  core::MultilaterationOptions plain;
  core::MultilaterationOptions checked;
  checked.use_intersection_check = true;
  const auto biased = core::multilaterate(anchors, plain, rng);
  const auto cleaned = core::multilaterate(anchors, checked, rng);
  bench::print_compare("error without check", 0.0, math::distance(*biased, node), "m");
  bench::print_compare("error with check   ", 0.0, math::distance(*cleaned, node), "m");
  std::puts(
      "\npaper (Fig 11): the anchor with no intersection points near the cluster\n"
      "is discarded; least squares then converges on the true position.");
  return 0;
}
