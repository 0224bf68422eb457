#include <gtest/gtest.h>

#include <cmath>

#include "core/alignment_protocol.hpp"
#include "core/distributed_lss.hpp"
#include "core/local_map.hpp"
#include "core/transform_estimation.hpp"
#include "eval/metrics.hpp"
#include "math/procrustes.hpp"
#include "sim/deployments.hpp"
#include "sim/measurement_gen.hpp"

namespace {

using namespace resloc::core;
using resloc::math::Rng;
using resloc::math::Transform2D;
using resloc::math::Vec2;

std::vector<Vec2> rigid_copy(const std::vector<Vec2>& src, const Transform2D& t) {
  std::vector<Vec2> out;
  out.reserve(src.size());
  for (const Vec2& p : src) out.push_back(t.apply(p));
  return out;
}

TEST(TransformEstimation, ClosedFormRecoversMotion) {
  const std::vector<Vec2> src{{0.0, 0.0}, {5.0, 1.0}, {2.0, 7.0}, {-3.0, 4.0}};
  const Transform2D motion(1.1, false, {12.0, -4.0});
  const auto estimate = resloc::math::fit_rigid(src, rigid_copy(src, motion));
  ASSERT_TRUE(estimate.valid);
  EXPECT_NEAR(estimate.sum_squared_error, 0.0, 1e-12);
  EXPECT_LT(estimate.transform.max_param_diff(motion), 1e-9);
}

TEST(TransformEstimation, ExactRecoversMotion) {
  const std::vector<Vec2> src{{0.0, 0.0}, {5.0, 1.0}, {2.0, 7.0}, {-3.0, 4.0}};
  const Transform2D motion(-0.8, true, {3.0, 9.0});
  Rng rng(1);
  const auto estimate = estimate_transform_exact(src, rigid_copy(src, motion), rng);
  ASSERT_TRUE(estimate.valid);
  EXPECT_NEAR(estimate.sum_squared_error, 0.0, 1e-6);
  for (const Vec2& p : src) {
    EXPECT_LT(resloc::math::distance(estimate.transform.apply(p), motion.apply(p)), 1e-3);
  }
}

TEST(TransformEstimation, MethodsAgreeOnNoisyData) {
  Rng noise(2);
  const std::vector<Vec2> src{{0.0, 0.0}, {8.0, 1.0}, {3.0, 9.0}, {-4.0, 5.0}, {2.0, -6.0}};
  const Transform2D motion(2.2, false, {-7.0, 3.0});
  auto dst = rigid_copy(src, motion);
  for (Vec2& p : dst) p += Vec2{noise.gaussian(0.0, 0.05), noise.gaussian(0.0, 0.05)};
  Rng rng(3);
  const auto exact = estimate_transform_exact(src, dst, rng);
  const auto closed = resloc::math::fit_rigid(src, dst);
  ASSERT_TRUE(exact.valid && closed.valid);
  // Closed form is optimal for this objective; exact GD should come close.
  EXPECT_NEAR(exact.sum_squared_error, closed.sum_squared_error,
              0.1 * closed.sum_squared_error + 1e-6);
  EXPECT_LT(exact.transform.max_param_diff(closed.transform), 0.05);
}

TEST(TransformEstimation, InvalidInputs) {
  Rng rng(4);
  EXPECT_FALSE(resloc::math::fit_rigid({}, {}).valid);
  EXPECT_FALSE(estimate_transform_exact({}, {}, rng).valid);
  EXPECT_FALSE(resloc::math::fit_rigid({{1.0, 1.0}}, {{1.0, 1.0}, {2.0, 2.0}}).valid);
}

TEST(LocalMap, MembershipAndLookup) {
  MeasurementSet meas(4);
  meas.add(0, 1, 10.0);
  meas.add(0, 2, 10.0);
  meas.add(1, 2, 14.14);
  meas.add(1, 3, 50.0);  // node 3 is not a neighbor of 0
  LssOptions opt;
  opt.min_spacing_m = 5.0;
  Rng rng(5);
  const LocalMap map = build_local_map(0, meas, opt, rng);
  EXPECT_EQ(map.owner, 0u);
  EXPECT_EQ(map.members.size(), 3u);
  EXPECT_TRUE(map.coord_of(0).has_value());
  EXPECT_TRUE(map.coord_of(1).has_value());
  EXPECT_TRUE(map.coord_of(2).has_value());
  EXPECT_FALSE(map.coord_of(3).has_value());
  // Local geometry is correct up to rigid motion: check distances.
  EXPECT_NEAR(resloc::math::distance(*map.coord_of(0), *map.coord_of(1)), 10.0, 0.1);
  EXPECT_NEAR(resloc::math::distance(*map.coord_of(1), *map.coord_of(2)), 14.14, 0.2);
}

TEST(LocalMap, SharedMembers) {
  LocalMap a;
  a.owner = 0;
  a.members = {0, 1, 2, 3};
  a.coords = {{0.0, 0.0}, {1.0, 0.0}, {2.0, 0.0}, {3.0, 0.0}};
  LocalMap b;
  b.owner = 5;
  b.members = {5, 2, 3, 9};
  b.coords = {{0.0, 0.0}, {1.0, 1.0}, {2.0, 2.0}, {3.0, 3.0}};
  EXPECT_EQ(a.shared_members(b), (std::vector<NodeId>{2, 3}));
}

/// Builds a dense noise-free measurement set over a grid deployment.
MeasurementSet grid_measurements(const Deployment& d, double range) {
  MeasurementSet meas(d.size());
  for (NodeId i = 0; i < d.size(); ++i) {
    for (NodeId j = i + 1; j < d.size(); ++j) {
      const double dist = resloc::math::distance(d.positions[i], d.positions[j]);
      if (dist < range) meas.add(i, j, dist);
    }
  }
  return meas;
}

DistributedLssOptions good_options() {
  DistributedLssOptions opt;
  opt.local_lss.min_spacing_m = 9.0;
  opt.local_lss.independent_inits = 8;
  opt.local_lss.gd.max_iterations = 2500;
  opt.local_lss.target_stress_per_edge = 1e-4;
  return opt;
}

TEST(DistributedLss, DenseGraphFullyLocalized) {
  const auto d = resloc::sim::offset_grid(4, 4);
  const auto meas = grid_measurements(d, 22.0);
  Rng rng(6);
  const auto result = localize_distributed(meas, 0, good_options(), rng);
  EXPECT_EQ(result.result.localized_count(), d.size());
  const auto report =
      resloc::eval::evaluate_localization(result.result.positions, d.positions, true);
  EXPECT_LT(report.average_error_m, 0.5);
  EXPECT_EQ(result.alignment_order.front(), 0u);
  EXPECT_EQ(result.alignment_order.size(), d.size());
}

TEST(DistributedLss, RootFrameIsItsLocalFrame) {
  const auto d = resloc::sim::offset_grid(3, 3);
  const auto meas = grid_measurements(d, 22.0);
  Rng rng(7);
  const auto result = localize_distributed(meas, 4, good_options(), rng);
  ASSERT_TRUE(result.to_root[4].has_value());
  EXPECT_LT(result.to_root[4]->max_param_diff(Transform2D{}), 1e-12);
  ASSERT_TRUE(result.result.positions[4].has_value());
  EXPECT_NEAR(resloc::math::distance(*result.result.positions[4],
                                     *result.maps[4].coord_of(4)),
              0.0, 1e-9);
}

TEST(DistributedLss, DisconnectedComponentUnlocalized) {
  // Two separated cliques; root in the first.
  Deployment d;
  d.positions = {{0.0, 0.0}, {10.0, 0.0}, {0.0, 10.0}, {10.0, 10.0},
                 {500.0, 500.0}, {510.0, 500.0}, {500.0, 510.0}};
  const auto meas = grid_measurements(d, 30.0);
  Rng rng(8);
  const auto result = localize_distributed(meas, 0, good_options(), rng);
  EXPECT_TRUE(result.result.positions[0].has_value());
  EXPECT_FALSE(result.result.positions[4].has_value());
  EXPECT_FALSE(result.result.positions[5].has_value());
}

TEST(DistributedLss, TooFewSharedMembersBlocksAlignment) {
  // A 2-node chain: each local map has 2 members -> below kMinSharedMembers.
  MeasurementSet meas(2);
  meas.add(0, 1, 10.0);
  Rng rng(9);
  const auto result = localize_distributed(meas, 0, good_options(), rng);
  EXPECT_TRUE(result.result.positions[0].has_value());
  EXPECT_FALSE(result.result.positions[1].has_value());
}

TEST(DistributedLss, InvalidRootYieldsNothing) {
  MeasurementSet meas(2);
  meas.add(0, 1, 10.0);
  Rng rng(10);
  const auto result = localize_distributed(meas, 99, good_options(), rng);
  EXPECT_EQ(result.result.localized_count(), 0u);
}

TEST(DistributedLss, TransformGuardRejectsCorruptMaps) {
  const auto d = resloc::sim::offset_grid(4, 4);
  const auto meas = grid_measurements(d, 22.0);
  Rng rng(11);
  auto opt = good_options();
  auto run = localize_distributed(meas, 0, opt, rng);
  // Corrupt one non-root map: scramble its coordinates.
  auto maps = run.maps;
  Rng scramble(12);
  for (auto& c : maps[5].coords) {
    c = Vec2{scramble.uniform(-100.0, 100.0), scramble.uniform(-100.0, 100.0)};
  }
  auto guarded = opt;
  guarded.max_transform_rmse_m = 1.0;
  const auto result = align_local_maps(maps, 0, guarded);
  // Node 5's own frame is garbage; with the guard its transform is refused,
  // so it stays unlocalized rather than poisoning the alignment.
  EXPECT_FALSE(result.result.positions[5].has_value());
  // The rest of the network still aligns fine.
  const auto report = resloc::eval::evaluate_localization(
      result.result.positions, d.positions, true, {5});
  EXPECT_LT(report.average_error_m, 0.6);
  EXPECT_GE(report.localized, d.size() - 2);
}

TEST(AlignmentProtocol, MatchesGraphDrivenResult) {
  const auto d = resloc::sim::offset_grid(4, 4);
  const auto meas = grid_measurements(d, 22.0);
  Rng rng(14);
  const auto opt = good_options();
  const auto graph_result = localize_distributed(meas, 0, opt, rng);

  resloc::net::RadioParams radio;
  radio.range_m = 60.0;
  const auto proto_result =
      run_alignment_protocol(graph_result.maps, 0, d.positions, opt, radio, 99);
  EXPECT_EQ(proto_result.map_broadcasts, d.size());
  EXPECT_GE(proto_result.align_broadcasts, d.size() - 1);

  // Both express positions in the root's local frame; they may take
  // different flood paths, but on noise-free data the frames coincide.
  std::size_t compared = 0;
  for (NodeId i = 0; i < d.size(); ++i) {
    if (!graph_result.result.positions[i] || !proto_result.result.positions[i]) continue;
    ++compared;
    EXPECT_LT(resloc::math::distance(*graph_result.result.positions[i],
                                     *proto_result.result.positions[i]),
              0.3)
        << "node " << i;
  }
  EXPECT_GE(compared, d.size() - 2);
}

TEST(AlignmentProtocol, AccurateAgainstGroundTruth) {
  const auto d = resloc::sim::offset_grid(4, 4);
  const auto meas = grid_measurements(d, 22.0);
  Rng rng(15);
  const auto opt = good_options();
  const auto graph_result = localize_distributed(meas, 0, opt, rng);
  resloc::net::RadioParams radio;
  const auto proto_result =
      run_alignment_protocol(graph_result.maps, 0, d.positions, opt, radio, 7);
  const auto report = resloc::eval::evaluate_localization(proto_result.result.positions,
                                                          d.positions, true);
  EXPECT_GE(report.localized, d.size() - 1);
  EXPECT_LT(report.average_error_m, 0.5);
}

}  // namespace
