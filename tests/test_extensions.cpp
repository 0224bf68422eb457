// Tests for the DV-hop baseline (Section 2 / APS).
#include <gtest/gtest.h>

#include "core/dv_hop.hpp"
#include "eval/metrics.hpp"
#include "sim/deployments.hpp"

namespace {

using namespace resloc;
using resloc::math::Rng;
using resloc::math::Vec2;

core::MeasurementSet connectivity(const core::Deployment& d, double range) {
  core::MeasurementSet meas(d.size());
  meas.set_node_count(d.size());
  for (core::NodeId i = 0; i < d.size(); ++i) {
    for (core::NodeId j = i + 1; j < d.size(); ++j) {
      const double dist = math::distance(d.positions[i], d.positions[j]);
      if (dist < range) meas.add(i, j, dist);
    }
  }
  return meas;
}

TEST(DvHop, HopCountsAreGraphDistances) {
  // A 1x5 line with 10 m spacing and 12 m range: hop count = index distance.
  core::Deployment d;
  for (int i = 0; i < 5; ++i) d.positions.push_back(Vec2{i * 10.0, 0.0});
  d.anchors = {0, 4};
  const auto meas = connectivity(d, 12.0);
  Rng rng(1);
  const auto run = core::localize_dv_hop(d, meas, {}, rng);
  EXPECT_EQ(run.hop_counts[2][0], 2u);  // node 2 <- anchor 0
  EXPECT_EQ(run.hop_counts[2][1], 2u);  // node 2 <- anchor 4
  EXPECT_EQ(run.hop_counts[3][0], 3u);
  // Anchor 0's correction: true distance 40 m over 4 hops = 10 m/hop.
  EXPECT_NEAR(run.anchor_hop_distance[0], 10.0, 1e-9);
}

TEST(DvHop, IsotropicGridLocalizesWell) {
  auto grid = sim::offset_grid(5, 5);
  Rng rng(2);
  sim::choose_random_anchors(grid, 6, rng);
  const auto meas = connectivity(grid, 14.0);
  const auto run = core::localize_dv_hop(grid, meas, {}, rng);
  const auto report = eval::evaluate_localization(run.result.positions, grid.positions,
                                                  false, grid.anchors);
  EXPECT_GT(report.localized, 12u);
  EXPECT_LT(report.average_error_m, 6.0);  // hop-resolution accuracy
}

TEST(DvHop, AnisotropicTopologyDegrades) {
  // The paper's critique: DV-hop works "only for isotropic networks". An
  // L-shaped (anisotropic) deployment bends shortest paths around the corner,
  // so hop-derived distances overestimate straight-line distances badly.
  core::Deployment l_shape;
  for (int i = 0; i < 8; ++i) l_shape.positions.push_back(Vec2{i * 10.0, 0.0});
  for (int i = 1; i < 8; ++i) l_shape.positions.push_back(Vec2{0.0, i * 10.0});
  l_shape.anchors = {0, 7, 14};  // corner + both arm tips
  const auto meas = connectivity(l_shape, 12.0);
  Rng rng(3);
  const auto run = core::localize_dv_hop(l_shape, meas, {}, rng);
  const auto report = eval::evaluate_localization(run.result.positions, l_shape.positions,
                                                  false, l_shape.anchors);
  // Mid-arm nodes are pulled toward the diagonal; error is large relative to
  // the 10 m spacing.
  EXPECT_GT(report.average_error_m, 5.0);
}

TEST(DvHop, DisconnectedNodesNotLocalized) {
  core::Deployment d;
  d.positions = {{0.0, 0.0}, {10.0, 0.0}, {0.0, 10.0}, {10.0, 10.0}, {500.0, 500.0}};
  d.anchors = {0, 1, 2};
  const auto meas = connectivity(d, 20.0);
  Rng rng(4);
  const auto run = core::localize_dv_hop(d, meas, {}, rng);
  EXPECT_TRUE(run.result.positions[3].has_value());
  EXPECT_FALSE(run.result.positions[4].has_value());
}

}  // namespace
