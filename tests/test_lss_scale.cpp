// Locks the solver-scaling contract of the LSS soft-constraint rewrite:
//   - the production (skin-list) soft-constraint path is BIT-equal to the dense
//     all-pairs scan of the test-only reference (error and every gradient
//     component, to the last ulp),
//   - the SpatialHashGrid's neighborhood/pair enumeration never misses a
//     point pair within one cell size of each other,
//   - the analytic gradient of both stress terms matches finite differences
//     (so neither this rewrite nor a future objective edit can silently ship
//     a wrong gradient),
//   - the large-scale scenarios and the DV-hop-seeded pipeline mode work end
//     to end at a few hundred nodes,
//   - one long-lived objective reusing its skin list across a sequence of
//     configurations is memcmp-identical to a fresh one-shot evaluation and
//     to the dense scan at every step, and whole solves stay bit-equal to
//     the dense scan,
//   - the two-lane SSE2 edge kernel (two measured edges per vector) is
//     memcmp-identical to the one-edge-at-a-time reference at every tail
//     length, lane pairing and non-finite input, and the skin-list walk is
//     too on lists mixing active and inactive entries and NaN pairs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <set>
#include <stdexcept>
#include <vector>

#include "core/dv_hop.hpp"
#include "core/lss.hpp"
#include "core/lss_objective.hpp"
#include "eval/metrics.hpp"
#include "math/gradient_descent.hpp"
#include "math/rng.hpp"
#include "obs/telemetry.hpp"
#include "math/spatial_hash_grid.hpp"
#include "pipeline/localization_pipeline.hpp"
#include "reference/lss.hpp"
#include "sim/deployments.hpp"
#include "sim/measurement_gen.hpp"
#include "sim/scenario_registry.hpp"

namespace {

using namespace resloc::core;
using resloc::math::Rng;
using resloc::math::SpatialHashGrid;
using resloc::reference::DenseStressObjective;
using resloc::reference::localize_lss_dense;
using resloc::reference::localize_lss_from_dense;
using resloc::reference::lss_stress_with_gradient_dense;
using resloc::math::Vec2;

// --- Dense-vs-grid bit-equivalence ---

/// Random configuration + random sparse measurement set; box side controls
/// how violated the constraint is (small box = everything overlapping).
void expect_paths_bit_equal(std::size_t n, double box, double dmin, double measured_fraction,
                            std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Vec2> config(n);
  for (auto& v : config) v = Vec2{rng.uniform(-box / 2.0, box / 2.0), rng.uniform(0.0, box)};
  MeasurementSet meas(n);
  for (NodeId i = 0; i + 1 < n; ++i) {
    for (NodeId j = i + 1; j < n; ++j) {
      if (rng.bernoulli(measured_fraction)) {
        meas.add(i, j, rng.uniform(0.5, box), rng.uniform(0.5, 2.0));
      }
    }
  }

  LssOptions grid_opt;
  grid_opt.min_spacing_m = dmin;

  std::vector<double> grid_grad;
  std::vector<double> dense_grad;
  const double grid_e = lss_stress_with_gradient(meas, config, grid_opt, grid_grad);
  const double dense_e = lss_stress_with_gradient_dense(meas, config, grid_opt, dense_grad);

  // Bit equality, not tolerance: both paths must run identical arithmetic in
  // identical order.
  EXPECT_EQ(grid_e, dense_e) << "n=" << n << " box=" << box << " seed=" << seed;
  ASSERT_EQ(grid_grad.size(), dense_grad.size());
  for (std::size_t k = 0; k < grid_grad.size(); ++k) {
    EXPECT_EQ(grid_grad[k], dense_grad[k])
        << "grad[" << k << "] n=" << n << " box=" << box << " seed=" << seed;
  }
}

TEST(LssGridEquivalence, RandomConfigurationsAcrossScales) {
  std::uint64_t seed = 100;
  for (const std::size_t n : {2u, 3u, 7u, 20u, 60u, 150u}) {
    for (const double box : {120.0, 40.0, 8.0}) {  // spread, busy, heavily violated
      expect_paths_bit_equal(n, box, 9.14, 0.15, seed++);
    }
  }
}

TEST(LssGridEquivalence, AllPointsInOneCell) {
  // Every pair active and in the same grid cell: the worst clustering case.
  expect_paths_bit_equal(40, 3.0, 9.0, 0.3, 7);
}

TEST(LssGridEquivalence, PointsOnCellBoundaries) {
  // Coordinates at exact multiples of d_min (cell edges) and coincident
  // points (the kMinSeparation guard).
  const double dmin = 9.0;
  std::vector<Vec2> config;
  for (int x = -2; x <= 2; ++x) {
    for (int y = -2; y <= 2; ++y) {
      config.push_back(Vec2{x * dmin, y * dmin});
    }
  }
  config.push_back(config.front());  // exact duplicate
  const std::size_t n = config.size();
  MeasurementSet meas(n);
  meas.add(0, 1, 5.0);

  LssOptions grid_opt;
  grid_opt.min_spacing_m = dmin;
  std::vector<double> g1;
  std::vector<double> g2;
  EXPECT_EQ(lss_stress_with_gradient(meas, config, grid_opt, g1),
            lss_stress_with_gradient_dense(meas, config, grid_opt, g2));
  EXPECT_EQ(g1, g2);
}

TEST(LssGridEquivalence, SolvesIdentically) {
  // Whole solves (restarts, backtracking, the lot) agree bit-for-bit when
  // seeded identically: the grid changes the cost of a solve, never its
  // trajectory.
  Rng noise(3);
  const auto town = resloc::sim::town_blocks_59();
  const auto meas = resloc::sim::gaussian_measurements(town, {}, noise);
  LssOptions grid_opt;
  grid_opt.independent_inits = 1;
  grid_opt.restarts.rounds = 2;
  grid_opt.gd.max_iterations = 400;
  Rng r1(17);
  Rng r2(17);
  const auto a = localize_lss(meas, grid_opt, r1);
  const auto b = localize_lss_dense(meas, grid_opt, r2);
  EXPECT_EQ(a.stress, b.stress);
  EXPECT_EQ(a.iterations, b.iterations);
  ASSERT_EQ(a.positions.size(), b.positions.size());
  for (std::size_t i = 0; i < a.positions.size(); ++i) {
    EXPECT_EQ(a.positions[i].x, b.positions[i].x);
    EXPECT_EQ(a.positions[i].y, b.positions[i].y);
  }
}

// --- SpatialHashGrid unit tests ---

TEST(SpatialHashGrid, NeighborhoodIsSupersetOfRadius) {
  Rng rng(41);
  const std::size_t n = 200;
  const double cell = 7.5;
  std::vector<double> xs(n);
  std::vector<double> ys(n);
  for (std::size_t i = 0; i < n; ++i) {
    xs[i] = rng.uniform(-60.0, 60.0);
    ys[i] = rng.uniform(-45.0, 75.0);
  }
  SpatialHashGrid grid;
  grid.rebuild(xs.data(), ys.data(), n, cell);
  ASSERT_EQ(grid.point_count(), n);

  // Every point's in-range neighbours, from the candidate pairs.
  std::vector<std::set<std::size_t>> seen(n);
  grid.for_each_candidate_pair([&](std::size_t i, std::size_t j) {
    ASSERT_LT(i, j);
    EXPECT_TRUE(seen[i].insert(j).second) << "duplicate emission of " << i << "," << j;
    seen[j].insert(i);
  });
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const double dx = xs[i] - xs[j];
      const double dy = ys[i] - ys[j];
      if (j != i && dx * dx + dy * dy < cell * cell) {
        EXPECT_TRUE(seen[i].count(j)) << "missed in-range neighbor " << j << " of " << i;
      }
    }
  }
}

TEST(SpatialHashGrid, CandidatePairsCoverAllCloseOnes) {
  Rng rng(42);
  const std::size_t n = 300;
  const double cell = 5.0;
  std::vector<double> xs(n);
  std::vector<double> ys(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Mix of a dense clump and a spread field, including negative coords.
    const bool clump = i % 3 == 0;
    xs[i] = clump ? rng.uniform(-3.0, 3.0) : rng.uniform(-80.0, 80.0);
    ys[i] = clump ? rng.uniform(-3.0, 3.0) : rng.uniform(-80.0, 80.0);
  }
  SpatialHashGrid grid;
  grid.rebuild(xs.data(), ys.data(), n, cell);

  std::set<std::pair<std::size_t, std::size_t>> emitted;
  grid.for_each_candidate_pair([&](std::size_t i, std::size_t j) {
    ASSERT_LT(i, j);
    EXPECT_TRUE(emitted.emplace(i, j).second) << "pair emitted twice: " << i << "," << j;
  });
  for (std::size_t i = 0; i + 1 < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double dx = xs[i] - xs[j];
      const double dy = ys[i] - ys[j];
      if (dx * dx + dy * dy < cell * cell) {
        EXPECT_TRUE(emitted.count({i, j})) << "missed close pair " << i << "," << j;
      }
    }
  }
}

TEST(SpatialHashGrid, SurvivesExtremeAndNonFiniteCoordinates) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> xs{0.0, 1e12, -1e12, inf, -inf, nan, 3.0};
  const std::vector<double> ys{0.0, -1e12, 1e12, -inf, inf, nan, 4.0};
  SpatialHashGrid grid;
  grid.rebuild(xs.data(), ys.data(), xs.size(), 9.0);
  std::size_t pairs = 0;
  bool found = false;
  grid.for_each_candidate_pair([&](std::size_t i, std::size_t j) {
    ++pairs;
    // Points 0 and 6 are 5 m apart and must be candidates regardless of the
    // garbage around them.
    found |= i == 0 && j == 6;
  });
  EXPECT_TRUE(found);
  EXPECT_GE(pairs, 1u);
}

TEST(SpatialHashGrid, EmptyAndSingle) {
  SpatialHashGrid grid;
  grid.rebuild(nullptr, nullptr, 0, 5.0);
  EXPECT_EQ(grid.point_count(), 0u);
  std::size_t emissions = 0;
  grid.for_each_candidate_pair([&](std::size_t, std::size_t) { ++emissions; });
  EXPECT_EQ(emissions, 0u);

  const double x = 2.0;
  const double y = -3.0;
  grid.rebuild(&x, &y, 1, 5.0);
  EXPECT_EQ(grid.point_count(), 1u);
  grid.for_each_candidate_pair([&](std::size_t, std::size_t) { ++emissions; });
  EXPECT_EQ(emissions, 0u);
}

// --- Finite-difference gradient checks ---

/// Central-difference check of lss_stress_with_gradient around `config`.
void expect_gradient_matches_fd(const MeasurementSet& meas, const std::vector<Vec2>& config,
                                const LssOptions& options) {
  std::vector<double> grad;
  lss_stress_with_gradient(meas, config, options, grad);
  const double h = 1e-6;
  const std::size_t n = config.size();
  for (std::size_t i = 0; i < n; ++i) {
    for (int axis = 0; axis < 2; ++axis) {
      std::vector<Vec2> plus = config;
      std::vector<Vec2> minus = config;
      (axis == 0 ? plus[i].x : plus[i].y) += h;
      (axis == 0 ? minus[i].x : minus[i].y) -= h;
      const double fd =
          (lss_stress(meas, plus, options) - lss_stress(meas, minus, options)) / (2.0 * h);
      const double analytic = grad[axis == 0 ? i : n + i];
      EXPECT_NEAR(analytic, fd, 1e-4 * std::max(1.0, std::abs(fd)))
          << "node " << i << " axis " << axis;
    }
  }
}

TEST(LssGradient, MeasuredEdgeTermMatchesFiniteDifference) {
  Rng rng(55);
  const std::size_t n = 8;
  std::vector<Vec2> config(n);
  for (auto& v : config) v = Vec2{rng.uniform(0.0, 30.0), rng.uniform(0.0, 30.0)};
  MeasurementSet meas(n);
  for (NodeId i = 0; i + 1 < n; ++i) {
    for (NodeId j = i + 1; j < n; ++j) {
      if (rng.bernoulli(0.6)) meas.add(i, j, rng.uniform(2.0, 25.0), rng.uniform(0.5, 2.0));
    }
  }
  LssOptions opt;
  opt.min_spacing_m.reset();  // edge term only
  expect_gradient_matches_fd(meas, config, opt);
}

TEST(LssGradient, SoftConstraintTermMatchesFiniteDifference) {
  Rng rng(56);
  const std::size_t n = 8;
  std::vector<Vec2> config(n);
  // Cramped: most pairs violate the 9 m spacing, none measured.
  for (auto& v : config) v = Vec2{rng.uniform(0.0, 14.0), rng.uniform(0.0, 14.0)};
  MeasurementSet meas(n);  // empty: every pair is a constraint candidate
  LssOptions opt;
  opt.min_spacing_m = 9.0;
  opt.constraint_weight = 10.0;
  EXPECT_GT(lss_stress(meas, config, opt), 0.0);  // the term must actually fire
  expect_gradient_matches_fd(meas, config, opt);
}

TEST(LssGradient, CombinedObjectiveMatchesFiniteDifference) {
  Rng rng(57);
  const std::size_t n = 10;
  std::vector<Vec2> config(n);
  for (auto& v : config) v = Vec2{rng.uniform(0.0, 20.0), rng.uniform(0.0, 20.0)};
  MeasurementSet meas(n);
  for (NodeId i = 0; i + 1 < n; ++i) {
    for (NodeId j = i + 1; j < n; ++j) {
      if (rng.bernoulli(0.3)) meas.add(i, j, rng.uniform(2.0, 18.0));
    }
  }
  LssOptions opt;
  opt.min_spacing_m = 9.14;
  expect_gradient_matches_fd(meas, config, opt);
}

// --- Large-scale scenarios and the DV-hop-seeded pipeline ---

TEST(ScaleScenarios, RegistryEntriesBuildAtNativeSize) {
  Rng rng(9);
  resloc::sim::ScenarioParams params;
  EXPECT_EQ(resloc::sim::build_scenario("campus_500", params, rng).size(), 500u);
  EXPECT_EQ(resloc::sim::build_scenario("city_1000", params, rng).size(), 1000u);
  EXPECT_EQ(resloc::sim::build_scenario("uniform_n", params, rng).size(), 100u);
  params.node_count = 37;
  EXPECT_EQ(resloc::sim::build_scenario("uniform_n", params, rng).size(), 37u);
  EXPECT_EQ(resloc::sim::scenario_environment("city_1000"), "urban");
}

TEST(ScaleScenarios, SaturatedFieldThrowsInsteadOfUnderfilling) {
  Rng rng(10);
  resloc::sim::ScenarioParams params;
  params.node_count = 5000;  // cannot fit 5000 nodes at 7 m spacing in 320x240
  EXPECT_THROW(resloc::sim::build_scenario("campus_500", params, rng), std::invalid_argument);
}

TEST(ScalePipeline, DvHopSeededLssLocalizesMidSizeField) {
  Rng deploy_rng(21);
  resloc::sim::ScenarioParams params;
  params.node_count = 150;
  auto deployment = resloc::sim::build_scenario("uniform_n", params, deploy_rng);
  Rng anchor_rng(22);
  resloc::sim::choose_random_anchors(deployment, 15, anchor_rng);

  resloc::pipeline::PipelineConfig config;
  config.source = resloc::pipeline::MeasurementSource::kSyntheticGaussian;
  config.solver = resloc::pipeline::Solver::kCentralizedLss;
  config.lss_init = resloc::pipeline::LssInit::kDvHopSeeded;
  config.lss.restarts.rounds = 3;
  const resloc::pipeline::LocalizationPipeline pipe(config);
  Rng run_rng(23);
  const auto run = pipe.run(deployment, run_rng);
  // 150 nodes is far beyond what random-init LSS unfolds reliably; the
  // DV-hop seed must bring the refined error down to ranging-noise scale.
  EXPECT_GT(run.report.localized, 140u);
  EXPECT_LT(run.report.average_error_m, 1.5);
}

// --- MeasurementSet adjacency index ---

TEST(MeasurementSetAdjacency, ReplacementUpdatesDistanceWithoutDuplicates) {
  MeasurementSet set(3);
  set.add(0, 1, 5.0);
  set.add(1, 2, 2.0);
  set.add(1, 0, 7.5);  // replaces 0-1, reversed order
  const auto n1 = set.neighbors(1);
  ASSERT_EQ(n1.size(), 2u);
  EXPECT_EQ(n1[0].first, 0u);
  EXPECT_DOUBLE_EQ(n1[0].second, 7.5);
  EXPECT_EQ(n1[1].first, 2u);
  EXPECT_EQ(set.degree(1), 2u);
  EXPECT_EQ(set.degree(2), 1u);
  EXPECT_EQ(set.degree(99), 0u);  // out of range: no neighbors, no throw
  EXPECT_TRUE(set.neighbors(99).empty());
}

// --- Skin-list reuse: long-lived objective == fresh one-shot == dense ---

using resloc::core::detail::StressObjective;

/// One evaluation's complete output: error, gradient, and the active
/// constraint pairs it tallied (obs lss_constraint_pairs).
struct Evaluation {
  double error = 0.0;
  std::vector<double> grad;
  std::uint64_t active_pairs = 0;
};

template <typename Objective>
Evaluation evaluate(Objective& objective, const std::vector<double>& p) {
  namespace obs = resloc::obs;
  obs::reset();
  obs::set_enabled(true);
  Evaluation out;
  out.grad.assign(p.size(), 0.0);
  out.error = objective(p, out.grad);
  obs::set_enabled(false);
  out.active_pairs = obs::snapshot().counter(obs::Counter::kLssConstraintPairs);
  obs::reset();
  return out;
}

Evaluation evaluate_fresh(const MeasurementSet& meas, const LssOptions& options,
                          const std::vector<double>& p) {
  StressObjective fresh(meas, options, {});
  return evaluate(fresh, p);
}

Evaluation evaluate_dense(const MeasurementSet& meas, const LssOptions& options,
                          const std::vector<double>& p) {
  DenseStressObjective dense(meas, options);
  return evaluate(dense, p);
}

/// Byte equality of error and gradient (memcmp, so NaN payloads and signed
/// zeros count too) plus an equal active-pair tally.
void expect_identical(const Evaluation& a, const Evaluation& b, const std::string& what) {
  EXPECT_EQ(std::memcmp(&a.error, &b.error, sizeof(double)), 0)
      << what << ": error " << a.error << " vs " << b.error;
  ASSERT_EQ(a.grad.size(), b.grad.size()) << what;
  EXPECT_EQ(std::memcmp(a.grad.data(), b.grad.data(), a.grad.size() * sizeof(double)), 0)
      << what << ": gradients differ";
  EXPECT_EQ(a.active_pairs, b.active_pairs) << what << ": active pairs";
}

/// Evaluates the long-lived objective at `p` and checks it against a fresh
/// one-shot evaluation and (for finite configurations) the dense oracle.
void expect_reuse_exact(StressObjective& reused, const MeasurementSet& meas,
                        const LssOptions& options, const std::vector<double>& p,
                        const std::string& what, bool against_dense = true) {
  const Evaluation got = evaluate(reused, p);
  expect_identical(got, evaluate_fresh(meas, options, p), what + " vs fresh");
  if (against_dense) expect_identical(got, evaluate_dense(meas, options, p), what + " vs dense");
}

/// A 40-node random field with sparse measurements, started folded into a
/// small box so the active set is busy and keeps changing as it unfolds.
struct FoldedField {
  MeasurementSet meas;
  std::vector<double> start;
};

FoldedField folded_field() {
  const std::size_t n = 40;
  Rng rng(606);
  std::vector<Vec2> truth(n);
  for (auto& v : truth) v = Vec2{rng.uniform(0.0, 60.0), rng.uniform(0.0, 60.0)};
  FoldedField f{MeasurementSet(n), std::vector<double>(2 * n)};
  for (NodeId i = 0; i + 1 < n; ++i) {
    for (NodeId j = i + 1; j < n; ++j) {
      const double d = resloc::math::distance(truth[i], truth[j]);
      if (d < 22.0) f.meas.add(i, j, d + rng.gaussian(0.0, 0.3));
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    f.start[i] = rng.uniform(0.0, 25.0);
    f.start[n + i] = rng.uniform(0.0, 25.0);
  }
  return f;
}

TEST(LssSkinList, ReuseMatchesFreshAndDenseAlongARecordedDescent) {
  const FoldedField f = folded_field();
  const LssOptions options;
  // Record every configuration a real descent evaluates (accepted steps and
  // backtracks alike), then replay them through one long-lived objective.
  std::vector<std::vector<double>> trace;
  DenseStressObjective dense(f.meas, options);
  auto recorder = [&](const std::vector<double>& x, std::vector<double>& g) {
    trace.push_back(x);
    return dense(x, g);
  };
  resloc::math::GradientDescentOptions gd = options.gd;
  gd.max_iterations = 300;
  (void)resloc::math::minimize(recorder, f.start, gd);
  ASSERT_GT(trace.size(), 100u);

  StressObjective reused(f.meas, options, {});
  std::uint64_t active_evaluations = 0;
  for (std::size_t k = 0; k < trace.size(); ++k) {
    const Evaluation got = evaluate(reused, trace[k]);
    active_evaluations += got.active_pairs > 0;
    expect_identical(got, evaluate_fresh(f.meas, options, trace[k]),
                     "step " + std::to_string(k) + " vs fresh");
    expect_identical(got, evaluate_dense(f.meas, options, trace[k]),
                     "step " + std::to_string(k) + " vs dense");
    if (HasFailure()) break;
  }
  // The replay exercised both reuse and rebuilds, with a live active set.
  EXPECT_GT(reused.rebuilds(), 1u);
  EXPECT_LT(reused.rebuilds(), trace.size());
  EXPECT_GT(active_evaluations, trace.size() / 2);
}

TEST(LssSkinList, MovesJustUnderHalfSkinReuseAndJustOverRebuild) {
  // Two unmeasured pairs straddling the list radius: (0, 1) at
  // d_min + 0.99 skin (listed) and (2, 3) at d_min + 1.01 skin (not listed),
  // plus a measured pair (4, 5) placed inside d_min that must stay exempt.
  const double dmin = 9.14;
  LssOptions options;
  options.min_spacing_m = dmin;
  MeasurementSet meas(6);
  meas.add(4, 5, 12.0);
  StressObjective reused(meas, options, {});
  const double skin = reused.skin_m();
  ASSERT_GT(skin, 0.0);
  const double half = 0.5 * skin;
  const std::size_t n = 6;
  std::vector<double> p(2 * n, 0.0);
  const auto place = [&](std::size_t i, double x, double y) {
    p[i] = x;
    p[n + i] = y;
  };
  place(0, 0.0, 0.0);
  place(1, dmin + 0.99 * skin, 0.0);
  place(2, 0.0, 100.0);
  place(3, dmin + 1.01 * skin, 100.0);
  place(4, 0.0, 200.0);
  place(5, 3.0, 200.0);
  expect_reuse_exact(reused, meas, options, p, "build");
  ASSERT_EQ(reused.rebuilds(), 1u);

  // Both ends of each pair move 0.499 skin toward each other: (0, 1) comes
  // inside d_min and must be caught from the reused list; (2, 3) ends just
  // outside d_min.
  p[0] += 0.998 * half;
  p[1] -= 0.998 * half;
  p[2] += 0.998 * half;
  p[3] -= 0.998 * half;
  const Evaluation moved = evaluate(reused, p);
  EXPECT_EQ(reused.rebuilds(), 1u) << "moves under skin/2 must reuse the list";
  EXPECT_EQ(moved.active_pairs, 1u);
  expect_identical(moved, evaluate_fresh(meas, options, p), "under skin/2 vs fresh");
  expect_identical(moved, evaluate_dense(meas, options, p), "under skin/2 vs dense");

  // One node just past skin/2 from where the list was built: rebuild.
  p[2] = 1.002 * half;
  expect_reuse_exact(reused, meas, options, p, "over skin/2");
  EXPECT_EQ(reused.rebuilds(), 2u);
}

TEST(LssSkinList, RestartSizedJumpRebuildsAndStaysExact) {
  const FoldedField f = folded_field();
  const LssOptions options;
  StressObjective reused(f.meas, options, {});
  std::vector<double> p = f.start;
  expect_reuse_exact(reused, f.meas, options, p, "start");
  Rng rng(77);
  for (int round = 0; round < 3; ++round) {  // the perturbation-restart jump
    for (double& v : p) v += rng.gaussian(0.0, 4.0);
    const std::uint64_t before = reused.rebuilds();
    expect_reuse_exact(reused, f.meas, options, p, "jump " + std::to_string(round));
    EXPECT_EQ(reused.rebuilds(), before + 1);
  }
}

TEST(LssSkinList, NonFiniteAndHugeCoordinatesMatchFreshAfterReuse) {
  const FoldedField f = folded_field();
  const LssOptions options;
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::size_t n = f.meas.node_count();
  StressObjective reused(f.meas, options, {});
  std::vector<double> base = f.start;
  expect_reuse_exact(reused, f.meas, options, base, "base");
  std::vector<double> nudged = base;
  nudged[3] += 0.01;  // a reused evaluation right before each poisoned one
  for (const double bad : {nan, inf, -inf, 1e12}) {
    expect_reuse_exact(reused, f.meas, options, nudged, "reuse before " + std::to_string(bad));
    std::vector<double> p = base;
    p[5] = bad;
    p[n + 7] = bad;
    // A non-finite configuration is compared with the fresh evaluation: the
    // list must never change what a poisoned step evaluates to.
    expect_reuse_exact(reused, f.meas, options, p, "coordinate " + std::to_string(bad),
                       /*against_dense=*/std::isfinite(bad));
    expect_reuse_exact(reused, f.meas, options, base, "recovered from " + std::to_string(bad));
  }
}

TEST(LssSkinList, RandomInitGrassGridSolvesIdenticallyToDense) {
  // The faults_parallel shape: grass_grid, 25 nodes, random-init LSS with
  // perturbation restarts (inits and rounds trimmed).
  Rng deploy_rng(31);
  resloc::sim::ScenarioParams params;
  params.node_count = 25;
  const auto deployment = resloc::sim::build_scenario("grass_grid", params, deploy_rng);
  Rng noise(32);
  const auto meas = resloc::sim::gaussian_measurements(deployment, {}, noise);
  LssOptions options;
  options.independent_inits = 3;
  options.restarts.rounds = 3;
  Rng r1(33);
  Rng r2(33);
  const LssResult a = localize_lss(meas, options, r1);
  const LssResult b = localize_lss_dense(meas, options, r2);
  EXPECT_EQ(std::memcmp(&a.stress, &b.stress, sizeof(double)), 0);
  EXPECT_EQ(a.iterations, b.iterations);
  ASSERT_EQ(a.positions.size(), b.positions.size());
  EXPECT_EQ(std::memcmp(a.positions.data(), b.positions.data(), a.positions.size() * sizeof(Vec2)),
            0);
}

TEST(LssSkinList, DvHopSeededCampus500SolvesIdenticallyToDense) {
  Rng deploy_rng(41);
  resloc::sim::ScenarioParams params;
  auto deployment = resloc::sim::build_scenario("campus_500", params, deploy_rng);
  Rng anchor_rng(42);
  resloc::sim::choose_random_anchors(deployment, 40, anchor_rng);
  Rng noise(43);
  const auto meas = resloc::sim::gaussian_measurements(deployment, {}, noise);
  Rng dv_rng(44);
  const auto dv = localize_dv_hop(deployment, meas, {}, dv_rng);
  std::vector<Vec2> seed(deployment.size());
  for (std::size_t i = 0; i < seed.size(); ++i) {
    seed[i] = dv.result.positions[i].value_or(Vec2{0.0, 0.0});
  }
  LssOptions options;
  options.restarts.rounds = 2;
  options.gd.max_iterations = 150;
  Rng r1(45);
  Rng r2(45);
  const LssResult a = localize_lss_from(meas, seed, options, r1);
  const LssResult b = localize_lss_from_dense(meas, seed, options, r2);
  EXPECT_EQ(std::memcmp(&a.stress, &b.stress, sizeof(double)), 0);
  EXPECT_EQ(a.iterations, b.iterations);
  ASSERT_EQ(a.positions.size(), b.positions.size());
  EXPECT_EQ(std::memcmp(a.positions.data(), b.positions.data(), a.positions.size() * sizeof(Vec2)),
            0);
}

// --- The two-lane stress kernel against the dense reference ---
//
// The production objective evaluates two measured edges per SSE2 vector and
// adds lane 0's term before lane 1's. The dense reference evaluates one edge
// at a time, so memcmp equality pins the lane arithmetic, the lane order and
// the scalar tail. The skin-list walk shares the scalar term with that tail;
// its cases below check it on the entries the edge cases cannot reach.

/// `count` edges over n nodes with non-unit weights, drawn from every
/// unordered pair in random order (`shuffled`: the two lanes of a step
/// rarely share a node) or in (i asc, j asc) order (they mostly share their
/// first node, so lane order decides the order of additions there).
MeasurementSet edge_set(std::size_t n, std::size_t count, bool shuffled, Rng& rng) {
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (NodeId i = 0; i + 1 < n; ++i) {
    for (NodeId j = i + 1; j < n; ++j) pairs.emplace_back(i, j);
  }
  if (shuffled) rng.shuffle(pairs);
  MeasurementSet meas(n);
  for (std::size_t k = 0; k < count && k < pairs.size(); ++k) {
    meas.add(pairs[k].first, pairs[k].second, rng.uniform(0.5, 40.0), rng.uniform(0.1, 3.7));
  }
  return meas;
}

std::vector<double> random_config(std::size_t n, double box, Rng& rng) {
  std::vector<double> p(2 * n);
  for (double& v : p) v = rng.uniform(0.0, box);
  return p;
}

LssOptions edge_term_only() {
  LssOptions options;
  options.min_spacing_m.reset();
  return options;
}

TEST(LssTwoLaneKernel, EdgeCountsAroundTheLaneWidthMatchDense) {
  Rng rng(0x7A9E);
  const std::size_t n = 60;
  for (const std::size_t count : {0u, 1u, 2u, 3u, 4u, 5u, 1001u}) {
    for (const bool shuffled : {false, true}) {
      const MeasurementSet meas = edge_set(n, count, shuffled, rng);
      ASSERT_EQ(meas.edge_count(), count);
      const std::vector<double> p = random_config(n, 30.0, rng);
      const std::string what =
          std::to_string(count) + (shuffled ? " shuffled edges" : " sorted edges");
      for (const LssOptions& options : {edge_term_only(), LssOptions{}}) {
        expect_identical(evaluate_fresh(meas, options, p), evaluate_dense(meas, options, p),
                         what + (options.min_spacing_m ? " with constraint" : ""));
      }
    }
  }
}

TEST(LssTwoLaneKernel, CoincidentNodesHitTheSeparationClampLikeDense) {
  // Nodes 0-3 share one point, so the edges among them have dcomp at the
  // 1e-9 clamp in either lane; the others are spread.
  Rng rng(0xC01D);
  MeasurementSet meas = edge_set(9, 36, true, rng);
  std::vector<double> p = random_config(9, 20.0, rng);
  for (std::size_t i = 1; i < 4; ++i) {
    p[i] = p[0];
    p[9 + i] = p[9];
  }
  for (const LssOptions& options : {edge_term_only(), LssOptions{}}) {
    expect_identical(evaluate_fresh(meas, options, p), evaluate_dense(meas, options, p),
                     options.min_spacing_m ? "with constraint" : "edge term");
  }
}

TEST(LssTwoLaneKernel, NonFiniteCoordinatesPropagateLikeDense) {
  // NaN must survive the separation clamp (max(kmin, NaN) is NaN, as
  // std::max(NaN, kmin) is), and inf - inf must produce the same NaN in a
  // lane as in a scalar term.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Rng rng(0xBAD);
  const std::size_t n = 12;
  const MeasurementSet meas = edge_set(n, 41, true, rng);
  const std::vector<double> base = random_config(n, 25.0, rng);
  for (const double bad : {nan, inf, -inf}) {
    for (std::size_t node = 0; node < n; node += 5) {
      std::vector<double> p = base;
      p[node] = bad;
      expect_identical(evaluate_fresh(meas, edge_term_only(), p),
                       evaluate_dense(meas, edge_term_only(), p),
                       "x of node " + std::to_string(node) + " = " + std::to_string(bad));
      p[n + node + 1] = bad;  // and a y elsewhere: inf - inf in some lanes
      expect_identical(evaluate_fresh(meas, edge_term_only(), p),
                       evaluate_dense(meas, edge_term_only(), p),
                       "and y of node " + std::to_string(node + 1));
    }
  }
}

TEST(LssSkinList, MixedActiveAndInactiveEntriesMatchDense) {
  // A zigzag row of unmeasured nodes whose neighbours alternate between
  // inside d_min (active) and inside the skin only (listed, inactive), in
  // the pattern a i i a a a i i a: nine list entries, every active entry
  // next to an inactive one and to another active one somewhere.
  LssOptions options;
  const double dmin = *options.min_spacing_m;
  const bool active[] = {true, false, false, true, true, true, false, false, true};
  const std::size_t n = std::size(active) + 1;
  std::vector<double> p(2 * n, 0.0);
  for (std::size_t k = 0; k + 1 < n; ++k) {
    p[k + 1] = p[k] + (active[k] ? 0.8 : 1.04) * dmin;
    p[n + k + 1] = (k % 2 == 0) ? 0.3 : 0.0;
  }
  const MeasurementSet meas(n);
  StressObjective objective(meas, options, {});
  const Evaluation first = evaluate(objective, p);
  const std::uint64_t after_build = objective.pair_tests();
  const Evaluation second = evaluate(objective, p);  // reuses the list
  EXPECT_EQ(objective.rebuilds(), 1u);
  EXPECT_EQ(objective.pair_tests() - after_build, std::size(active)) << "list length";
  EXPECT_EQ(first.active_pairs, 5u);
  expect_identical(first, evaluate_dense(meas, options, p), "built");
  expect_identical(second, evaluate_dense(meas, options, p), "reused");
}

TEST(LssSkinList, NanPairsStayActiveLikeDense) {
  // The grid clamps a NaN coordinate and one at -1e12 into the same
  // boundary cell, so the list holds all ten pairs of these five nodes, the
  // four NaN ones among them. The dense scan's `d_sq >= dmin_sq` skip is
  // false for NaN, so a NaN pair is active in the walk as it is there.
  const std::size_t n = 5;
  std::vector<double> p(2 * n, 0.0);
  for (std::size_t i = 0; i < 4; ++i) p[i] = -1e12 + 2.0 * static_cast<double>(i);
  p[4] = std::numeric_limits<double>::quiet_NaN();
  p[n + 4] = 1.0;
  const MeasurementSet meas(n);
  const LssOptions options;
  const Evaluation got = evaluate_fresh(meas, options, p);
  EXPECT_EQ(got.active_pairs, 10u);
  EXPECT_TRUE(std::isnan(got.error));
  expect_identical(got, evaluate_dense(meas, options, p), "NaN node");
}

TEST(LssTwoLaneKernel, FixedNodesMatchDense) {
  Rng rng(0xF1ED);
  const std::size_t n = 30;
  const MeasurementSet meas = edge_set(n, 97, true, rng);
  const std::vector<double> p = random_config(n, 15.0, rng);  // busy constraint set
  const std::vector<NodeId> fixed{0, 7, 8, 29};
  const LssOptions options;
  StressObjective production(meas, options, fixed);
  DenseStressObjective dense(meas, options, fixed);
  const Evaluation got = evaluate(production, p);
  EXPECT_GT(got.active_pairs, 0u);
  for (const NodeId i : fixed) {
    EXPECT_EQ(got.grad[i], 0.0);
    EXPECT_EQ(got.grad[n + i], 0.0);
  }
  expect_identical(got, evaluate(dense, p), "fixed nodes");
}

}  // namespace
