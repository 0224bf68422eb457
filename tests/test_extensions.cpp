// Tests for the deployment-constraint distance prior (Section 3.5.1) and the
// DV-hop baseline (Section 2 / APS).
#include <gtest/gtest.h>

#include "core/dv_hop.hpp"
#include "eval/metrics.hpp"
#include "ranging/deployment_constraints.hpp"
#include "sim/deployments.hpp"
#include "sim/measurement_gen.hpp"

namespace {

using namespace resloc;
using resloc::math::Rng;
using resloc::math::Vec2;

TEST(DistancePrior, NearestPlausibleWithinTolerance) {
  const ranging::DistancePrior prior({9.0, 10.0, 18.0}, 0.5);
  EXPECT_EQ(*prior.nearest_plausible(9.2), 9.0);
  EXPECT_EQ(*prior.nearest_plausible(9.8), 10.0);
  EXPECT_EQ(*prior.nearest_plausible(17.6), 18.0);
  EXPECT_FALSE(prior.nearest_plausible(14.0).has_value());
  EXPECT_FALSE(prior.nearest_plausible(30.0).has_value());
  EXPECT_TRUE(prior.is_consistent(10.49));
  EXPECT_FALSE(prior.is_consistent(10.51));
}

TEST(DistancePrior, EmptyPrior) {
  const ranging::DistancePrior prior({}, 1.0);
  EXPECT_FALSE(prior.nearest_plausible(5.0).has_value());
}

TEST(DistancePrior, FromDeploymentDeduplicates) {
  // 3x3 square grid at 10 m: distinct distances <= 25 m are
  // 10, 14.14, 20, 22.36 (and none other).
  core::Deployment d;
  for (int y = 0; y < 3; ++y) {
    for (int x = 0; x < 3; ++x) d.positions.push_back(Vec2{x * 10.0, y * 10.0});
  }
  const auto prior = ranging::DistancePrior::from_deployment(d, 25.0, 0.4);
  ASSERT_EQ(prior.plausible_distances().size(), 4u);
  EXPECT_NEAR(prior.plausible_distances()[0], 10.0, 1e-9);
  EXPECT_NEAR(prior.plausible_distances()[1], 14.142, 1e-2);
  EXPECT_NEAR(prior.plausible_distances()[2], 20.0, 1e-9);
  EXPECT_NEAR(prior.plausible_distances()[3], 22.36, 1e-2);
}

TEST(DistancePrior, RejectAndSnapActions) {
  const ranging::DistancePrior prior({10.0}, 0.5);
  std::vector<ranging::PairEstimate> pairs{
      {0, 1, 10.2, true},   // consistent
      {1, 2, 12.0, true},   // inconsistent: echo-induced overestimate
      {2, 3, 9.8, false},   // consistent
  };
  const auto rejected = ranging::apply_distance_prior(pairs, prior, ranging::PriorAction::kReject);
  ASSERT_EQ(rejected.size(), 2u);
  EXPECT_DOUBLE_EQ(rejected[0].distance_m, 10.2);  // kept as measured

  const auto snapped = ranging::apply_distance_prior(pairs, prior, ranging::PriorAction::kSnap);
  ASSERT_EQ(snapped.size(), 2u);
  EXPECT_DOUBLE_EQ(snapped[0].distance_m, 10.0);  // snapped to the prior
  EXPECT_DOUBLE_EQ(snapped[1].distance_m, 10.0);
}

TEST(DistancePrior, SnappingImprovesGridMeasurements) {
  // Noisy grid measurements snapped to the known grid distances beat the raw
  // ones -- the payoff the paper anticipates from deployment knowledge.
  const auto grid = sim::offset_grid(4, 4);
  Rng rng(31);
  auto noisy = sim::gaussian_measurements(grid, {.sigma_m = 0.33, .max_range_m = 22.0}, rng);
  const auto prior = ranging::DistancePrior::from_deployment(grid, 22.0, 1.0);
  double raw_error = 0.0;
  double snapped_error = 0.0;
  for (const auto& e : noisy.edges()) {
    const double true_d = math::distance(grid.positions[e.i], grid.positions[e.j]);
    raw_error += std::abs(e.distance_m - true_d);
    const auto snap = prior.nearest_plausible(e.distance_m);
    ASSERT_TRUE(snap.has_value());
    snapped_error += std::abs(*snap - true_d);
  }
  EXPECT_LT(snapped_error, raw_error * 0.35);
}

// --- DV-hop ---

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
