#include <gtest/gtest.h>

#include <cmath>

#include "core/intersection_check.hpp"
#include "core/multilateration.hpp"
#include "math/rng.hpp"

namespace {

using namespace resloc::core;
using resloc::math::Rng;
using resloc::math::Vec2;

std::vector<AnchorObservation> observe(const std::vector<Vec2>& anchors, Vec2 node,
                                       double noise = 0.0, Rng* rng = nullptr) {
  std::vector<AnchorObservation> out;
  for (const Vec2& a : anchors) {
    double d = resloc::math::distance(a, node);
    if (rng != nullptr && noise > 0.0) d += rng->gaussian(0.0, noise);
    out.push_back({a, d, 1.0});
  }
  return out;
}

TEST(Multilaterate, ExactWithThreeAnchors) {
  const Vec2 node{4.0, 7.0};
  const auto anchors = observe({{0.0, 0.0}, {20.0, 0.0}, {0.0, 20.0}}, node);
  Rng rng(1);
  const auto fit = multilaterate(anchors, MultilaterationOptions{}, rng);
  ASSERT_TRUE(fit.has_value());
  EXPECT_NEAR(fit->x, node.x, 1e-3);
  EXPECT_NEAR(fit->y, node.y, 1e-3);
}

TEST(Multilaterate, RefusesTooFewAnchors) {
  const Vec2 node{4.0, 7.0};
  const auto anchors = observe({{0.0, 0.0}, {20.0, 0.0}}, node);
  Rng rng(2);
  EXPECT_FALSE(multilaterate(anchors, MultilaterationOptions{}, rng).has_value());
}

TEST(Multilaterate, NoisyAnchorsStillClose) {
  const Vec2 node{10.0, 12.0};
  Rng noise_rng(3);
  const auto anchors = observe({{0.0, 0.0}, {25.0, 0.0}, {0.0, 25.0}, {25.0, 25.0}, {12.0, -5.0}},
                               node, 0.33, &noise_rng);
  Rng rng(4);
  const auto fit = multilaterate(anchors, MultilaterationOptions{}, rng);
  ASSERT_TRUE(fit.has_value());
  EXPECT_LT(resloc::math::distance(*fit, node), 1.0);
}

TEST(Multilaterate, MoreAnchorsImproveAccuracy) {
  const Vec2 node{10.0, 12.0};
  Rng rng(5);
  double err3 = 0.0;
  double err8 = 0.0;
  const std::vector<Vec2> all{{0.0, 0.0},  {25.0, 0.0}, {0.0, 25.0},  {25.0, 25.0},
                              {12.0, -5.0}, {-5.0, 12.0}, {30.0, 12.0}, {12.0, 30.0}};
  for (int trial = 0; trial < 20; ++trial) {
    Rng noise_rng(100 + static_cast<std::uint64_t>(trial));
    const auto obs = observe(all, node, 0.5, &noise_rng);
    const std::vector<AnchorObservation> three(obs.begin(), obs.begin() + 3);
    const auto fit3 = multilaterate(three, MultilaterationOptions{}, rng);
    const auto fit8 = multilaterate(obs, MultilaterationOptions{}, rng);
    err3 += resloc::math::distance(*fit3, node);
    err8 += resloc::math::distance(*fit8, node);
  }
  EXPECT_LT(err8, err3);
}

TEST(IntersectionCheck, DropsInconsistentAnchor) {
  // Three good anchors + one with a wildly wrong distance whose circle
  // intersects far from the true position cluster.
  const Vec2 node{10.0, 10.0};
  auto anchors = observe({{0.0, 0.0}, {20.0, 0.0}, {0.0, 20.0}}, node);
  anchors.push_back({{40.0, 40.0}, 15.0, 1.0});  // true distance is 42.4
  const auto result = check_intersection_consistency(anchors);
  EXPECT_EQ(result.consistent_anchors.size(), 3u);
  for (std::size_t idx : result.consistent_anchors) EXPECT_NE(idx, 3u);
  EXPECT_LT(resloc::math::distance(result.cluster_centroid, node), 1.0);
}

TEST(IntersectionCheck, KeepsAllWhenConsistent) {
  const Vec2 node{10.0, 10.0};
  const auto anchors = observe({{0.0, 0.0}, {20.0, 0.0}, {0.0, 20.0}, {20.0, 20.0}}, node);
  const auto result = check_intersection_consistency(anchors);
  EXPECT_EQ(result.consistent_anchors.size(), 4u);
}

TEST(IntersectionCheck, FallsBackWhenTooFewSurvive) {
  // All circles disjoint: no intersection points at all -> keep everything.
  std::vector<AnchorObservation> anchors{
      {{0.0, 0.0}, 1.0, 1.0}, {{100.0, 0.0}, 1.0, 1.0}, {{0.0, 100.0}, 1.0, 1.0}};
  const auto result = check_intersection_consistency(anchors);
  EXPECT_EQ(result.consistent_anchors.size(), 3u);
  EXPECT_TRUE(result.intersection_points.empty());
}

TEST(IntersectionCheck, CollinearAnchorsAmplifyError) {
  // The Figure 11 situation: two nearly-collinear anchors displace the
  // intersection points strongly under small distance error.
  const Vec2 node{10.0, 0.0};
  std::vector<AnchorObservation> anchors;
  anchors.push_back({{0.0, 0.1}, 10.0, 1.0});
  anchors.push_back({{20.0, -0.1}, 10.0 + 0.4, 1.0});  // small error, near-collinear
  anchors.push_back({{10.0, 15.0}, 15.0, 1.0});
  anchors.push_back({{10.0, -15.0}, 15.0, 1.0});
  const auto result = check_intersection_consistency(anchors);
  // The cluster still forms near the node.
  EXPECT_LT(resloc::math::distance(result.cluster_centroid, node), 2.5);
}

TEST(MultilaterateWithCheck, OutlierAnchorSurvivable) {
  const Vec2 node{10.0, 10.0};
  auto anchors = observe({{0.0, 0.0}, {20.0, 0.0}, {0.0, 20.0}, {20.0, 20.0}}, node);
  anchors.push_back({{5.0, 5.0}, 30.0, 1.0});  // true distance is ~7.1: big outlier
  MultilaterationOptions plain;
  MultilaterationOptions checked;
  checked.use_intersection_check = true;
  Rng rng(6);
  const auto biased = multilaterate(anchors, plain, rng);
  const auto cleaned = multilaterate(anchors, checked, rng);
  ASSERT_TRUE(biased && cleaned);
  EXPECT_LT(resloc::math::distance(*cleaned, node), resloc::math::distance(*biased, node));
  EXPECT_LT(resloc::math::distance(*cleaned, node), 0.5);
}

TEST(LocalizeByMultilateration, GridWithDenseAnchors) {
  Deployment d;
  for (int x = 0; x < 4; ++x) {
    for (int y = 0; y < 4; ++y) {
      d.positions.push_back(Vec2{x * 10.0, y * 10.0});
    }
  }
  d.anchors = {0, 3, 12, 15, 5};
  MeasurementSet meas(d.size());
  for (NodeId i = 0; i < d.size(); ++i) {
    for (NodeId j = i + 1; j < d.size(); ++j) {
      const double dist = resloc::math::distance(d.positions[i], d.positions[j]);
      if (dist < 25.0) meas.add(i, j, dist);
    }
  }
  Rng rng(7);
  const auto result = localize_by_multilateration(d, meas, MultilaterationOptions{}, rng);
  std::size_t good = 0;
  for (NodeId i = 0; i < d.size(); ++i) {
    if (d.is_anchor(i) || !result.positions[i]) continue;
    if (resloc::math::distance(*result.positions[i], d.positions[i]) < 0.5) ++good;
  }
  EXPECT_GE(good, 8u);
}

TEST(LocalizeByMultilateration, ProgressiveLocalizesMore) {
  // Node 3 sits inside the anchor triangle (3 anchor links); node 4 only has
  // 2 anchor links plus a link to node 3 -- localizable only after node 3 is
  // promoted to anchor by the progressive scheme.
  Deployment d;
  d.positions = {{0.0, 0.0}, {10.0, 0.0}, {5.0, 8.66}, {5.0, 3.0}, {15.0, 3.0}};
  d.anchors = {0, 1, 2};
  MeasurementSet meas(d.size());
  for (NodeId i = 0; i < d.size(); ++i) {
    for (NodeId j = i + 1; j < d.size(); ++j) {
      const double dist = resloc::math::distance(d.positions[i], d.positions[j]);
      if (dist < 13.0) meas.add(i, j, dist);
    }
  }
  MultilaterationOptions plain;
  Rng rng(8);
  const auto without = localize_by_multilateration(d, meas, plain, rng);
  MultilaterationOptions progressive = plain;
  progressive.progressive = true;
  const auto with = localize_by_multilateration(d, meas, progressive, rng);
  EXPECT_EQ(without.localized_count(), 4u);  // 3 anchors + node 3
  EXPECT_EQ(with.localized_count(), 5u);     // node 4 joins via promoted node 3
  ASSERT_TRUE(with.positions[4].has_value());
  EXPECT_LT(resloc::math::distance(*with.positions[4], d.positions[4]), 0.5);
}

TEST(AverageAnchorsPerNode, CountsOnlyAnchorLinks) {
  Deployment d;
  d.positions = {{0.0, 0.0}, {1.0, 0.0}, {2.0, 0.0}, {3.0, 0.0}};
  d.anchors = {0};
  MeasurementSet meas(4);
  meas.add(0, 1, 1.0);  // anchor link for node 1
  meas.add(1, 2, 1.0);  // non-anchor link
  meas.add(0, 3, 3.0);  // anchor link for node 3
  EXPECT_DOUBLE_EQ(average_anchors_per_node(d, meas), 2.0 / 3.0);
}

}  // namespace
