// Property-style sweeps over randomized inputs (TEST_P/INSTANTIATE) covering
// cross-module invariants.
#include <gtest/gtest.h>

#include <cmath>
#include "math/constants.hpp"

#include "core/lss.hpp"
#include "eval/metrics.hpp"
#include "math/geometry.hpp"
#include "math/procrustes.hpp"
#include "math/rng.hpp"
#include "math/transform2d.hpp"
#include "ranging/dft_detector.hpp"
#include "ranging/statistical_filter.hpp"
#include "ranging/signal_detection.hpp"
#include "sim/deployments.hpp"
#include "sim/measurement_gen.hpp"

namespace {

using resloc::math::Rng;
using resloc::math::Transform2D;
using resloc::math::Vec2;

// --- LSS stress is invariant under rigid motion of any configuration ---

class LssRigidInvariance : public ::testing::TestWithParam<int> {};

TEST_P(LssRigidInvariance, StressUnchangedByRigidMotion) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 5);
  const std::size_t n = 5 + static_cast<std::size_t>(GetParam()) % 8;
  std::vector<Vec2> config;
  resloc::core::MeasurementSet meas(n);
  meas.set_node_count(n);
  for (std::size_t i = 0; i < n; ++i) {
    config.push_back({rng.uniform(0.0, 40.0), rng.uniform(0.0, 40.0)});
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (rng.bernoulli(0.6)) {
        meas.add(static_cast<resloc::core::NodeId>(i), static_cast<resloc::core::NodeId>(j),
                 rng.uniform(1.0, 40.0), rng.uniform(0.2, 2.0));
      }
    }
  }
  resloc::core::LssOptions opt;
  opt.min_spacing_m = rng.uniform(2.0, 10.0);
  opt.constraint_weight = rng.uniform(1.0, 20.0);

  const double base = resloc::core::lss_stress(meas, config, opt);
  const Transform2D motion(rng.uniform(-3.1, 3.1), rng.bernoulli(0.5),
                           {rng.uniform(-50.0, 50.0), rng.uniform(-50.0, 50.0)});
  std::vector<Vec2> moved;
  for (const Vec2& p : config) moved.push_back(motion.apply(p));
  EXPECT_NEAR(resloc::core::lss_stress(meas, moved, opt), base,
              1e-9 * std::max(1.0, base));
}

INSTANTIATE_TEST_SUITE_P(Seeds, LssRigidInvariance, ::testing::Range(0, 10));

// --- Transform estimation: closed form recovers arbitrary rigid motions of
//     arbitrary (non-degenerate) point sets exactly ---

class TransformRecovery : public ::testing::TestWithParam<int> {};

TEST_P(TransformRecovery, ClosedFormExactOnCleanData) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 97 + 11);
  const std::size_t count = 3 + static_cast<std::size_t>(GetParam()) % 6;
  std::vector<Vec2> src;
  for (std::size_t i = 0; i < count; ++i) {
    src.push_back({rng.uniform(-30.0, 30.0), rng.uniform(-30.0, 30.0)});
  }
  const Transform2D motion(rng.uniform(-3.1, 3.1), rng.bernoulli(0.5),
                           {rng.uniform(-100.0, 100.0), rng.uniform(-100.0, 100.0)});
  std::vector<Vec2> dst;
  for (const Vec2& p : src) dst.push_back(motion.apply(p));
  const auto estimate = resloc::math::fit_rigid(src, dst);
  ASSERT_TRUE(estimate.valid);
  EXPECT_NEAR(estimate.sum_squared_error, 0.0, 1e-10);
  // The recovered transform agrees with the true motion on fresh points.
  const Vec2 probe{rng.uniform(-30.0, 30.0), rng.uniform(-30.0, 30.0)};
  EXPECT_LT(resloc::math::distance(estimate.transform.apply(probe), motion.apply(probe)), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TransformRecovery, ::testing::Range(0, 12));

// --- Median filter output always lies within the input range ---

class MedianBounds : public ::testing::TestWithParam<int> {};

TEST_P(MedianBounds, FilterOutputWithinInputRange) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 1);
  std::vector<double> values;
  const std::size_t n = 1 + static_cast<std::size_t>(rng.uniform_int(0, 20));
  for (std::size_t i = 0; i < n; ++i) values.push_back(rng.uniform(0.0, 50.0));
  resloc::ranging::FilterPolicy policy;
  policy.kind = resloc::ranging::FilterKind::kMedian;
  const auto out = resloc::ranging::filter_measurements(values, policy);
  ASSERT_TRUE(out.has_value());
  EXPECT_GE(*out, *std::min_element(values.begin(), values.end()) - 1e-12);
  EXPECT_LE(*out, *std::max_element(values.begin(), values.end()) + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MedianBounds, ::testing::Range(0, 10));

// --- detect-signal: detection index never precedes the first qualifying
//     sample and is stable under appending quiet samples ---

class DetectSignalStability : public ::testing::TestWithParam<int> {};

TEST_P(DetectSignalStability, AppendQuietSamplesNoChange) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 13 + 3);
  std::vector<std::uint8_t> samples(256, 0);
  // Random burst.
  const int start = static_cast<int>(rng.uniform_int(10, 180));
  const int len = static_cast<int>(rng.uniform_int(20, 60));
  for (int i = start; i < start + len && i < 256; ++i) {
    samples[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(rng.uniform_int(2, 9));
  }
  const resloc::ranging::DetectionParams params{2, 16, 5};
  const int detected = resloc::ranging::SignalScanner(samples, params).next();
  if (detected >= 0) {
    EXPECT_GE(detected, 0);
    EXPECT_GE(samples[static_cast<std::size_t>(detected)], params.threshold);
    // First sample before `detected` in a fully-quiet prefix can't qualify.
    std::vector<std::uint8_t> extended = samples;
    extended.resize(400, 0);
    EXPECT_EQ(resloc::ranging::SignalScanner(extended, params).next(), detected);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DetectSignalStability, ::testing::Range(0, 12));

// --- Sliding DFT frequency selectivity across tone phases ---

class DftPhaseSweep : public ::testing::TestWithParam<int> {};

TEST_P(DftPhaseSweep, InBandToneDetectedAtAnyPhase) {
  const double phase =
      static_cast<double>(GetParam()) / 8.0 * 2.0 * resloc::math::kPi;
  resloc::ranging::SlidingDftFilter filter;
  resloc::ranging::BandPowers last{};
  for (int i = 0; i < 144; ++i) {
    last = filter.filter(100.0 * std::sin(resloc::math::kPi / 2.0 * i + phase));
  }
  EXPECT_GT(last.band_fs4, 1e5) << "phase " << phase;
  EXPECT_LT(last.band_fs6, last.band_fs4 / 20.0);
}

INSTANTIATE_TEST_SUITE_P(Phases, DftPhaseSweep, ::testing::Range(0, 8));

// --- Localization evaluation is invariant to rigid motion when aligning ---

class EvalAlignmentInvariance : public ::testing::TestWithParam<int> {};

TEST_P(EvalAlignmentInvariance, ErrorIndependentOfFrame) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7 + 2);
  auto grid = resloc::sim::offset_grid(4, 4);
  // Estimates: truth plus noise.
  std::vector<Vec2> estimates;
  for (const Vec2& p : grid.positions) {
    estimates.push_back(p + Vec2{rng.gaussian(0.0, 0.4), rng.gaussian(0.0, 0.4)});
  }
  const auto base = resloc::eval::evaluate_localization(estimates, grid.positions, true);
  const Transform2D motion(rng.uniform(-3.0, 3.0), rng.bernoulli(0.5),
                           {rng.uniform(-40.0, 40.0), rng.uniform(-40.0, 40.0)});
  std::vector<Vec2> moved;
  for (const Vec2& p : estimates) moved.push_back(motion.apply(p));
  const auto shifted = resloc::eval::evaluate_localization(moved, grid.positions, true);
  EXPECT_NEAR(shifted.average_error_m, base.average_error_m, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EvalAlignmentInvariance, ::testing::Range(0, 8));

// --- Circle intersections always lie on both circles ---

class CircleIntersectionSweep : public ::testing::TestWithParam<int> {};

TEST_P(CircleIntersectionSweep, PointsOnBothCircles) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 41 + 17);
  for (int trial = 0; trial < 40; ++trial) {
    const resloc::math::Circle a{{rng.uniform(-20.0, 20.0), rng.uniform(-20.0, 20.0)},
                                 rng.uniform(0.5, 15.0)};
    const resloc::math::Circle b{{rng.uniform(-20.0, 20.0), rng.uniform(-20.0, 20.0)},
                                 rng.uniform(0.5, 15.0)};
    for (const Vec2& p : resloc::math::intersect(a, b)) {
      EXPECT_NEAR(resloc::math::distance(p, a.center), a.radius, 1e-7);
      EXPECT_NEAR(resloc::math::distance(p, b.center), b.radius, 1e-7);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CircleIntersectionSweep, ::testing::Range(0, 6));

// --- Gaussian measurement generation respects the range cutoff for any
//     deployment and the noise never produces non-positive distances ---

class MeasurementGenSweep : public ::testing::TestWithParam<int> {};

TEST_P(MeasurementGenSweep, EdgesValid) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 3 + 1);
  const auto d = resloc::sim::random_uniform(25, 60.0, 60.0, 3.0, rng);
  resloc::sim::GaussianNoiseModel noise;
  noise.max_range_m = rng.uniform(10.0, 30.0);
  const auto meas = resloc::sim::gaussian_measurements(d, noise, rng);
  for (const auto& e : meas.edges()) {
    EXPECT_GT(e.distance_m, 0.0);
    const double true_d = resloc::math::distance(d.positions[e.i], d.positions[e.j]);
    EXPECT_LT(true_d, noise.max_range_m);
    EXPECT_LT(std::abs(e.distance_m - true_d), 5.0 * noise.sigma_m + 0.1);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MeasurementGenSweep, ::testing::Range(0, 8));

}  // namespace
