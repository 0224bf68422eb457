// LSS at production scale: the skin-list active set vs the dense O(n^2) scan
// of the test-only reference (tests/reference).
//
// Two claims are measured and gated:
//   1. Speedup. The minimum-spacing soft constraint's active set is walked
//      from a skin (Verlet) candidate list, rebuilt by spatial-grid sweep only
//      when some node has moved half a skin, instead of scanning all
//      n(n-1)/2 pairs. One-shot evaluations (a fresh objective, so every one
//      pays a list build) time the measured-edge term alone, the constraint
//      stage alone (full evaluation minus the same path's edge term) and the
//      full objective evaluation per n; the gates are a >= 10x
//      constraint-stage work ratio at n = 500 and a >= 10x full-evaluation
//      speedup at n = 1000. The edge term differs between the paths too:
//      production evaluates two edges per SSE2 vector, the reference one at
//      a time, and its speedup and ns per edge are recorded, not gated. The
//      stage is gated on counted work -- pair distance tests, n(n-1)/2 for
//      the dense scan against the list's candidate tests plus walk --
//      because its timed ratio sits near 10x at n = 500 and moves between
//      processes by more than the margin; the timed stage speedup is still
//      measured and recorded. The descent
//      regime -- one objective reused across a whole campus_500 solve,
//      where the list is rebuilt on a small fraction of evaluations -- is
//      gated at a >= 10x end-to-end solve speedup. Any gate missed and the
//      bench exits nonzero.
//   2. Bit-equivalence. Both paths visit active pairs in identical order with
//      identical arithmetic, so error and every gradient component must match
//      to the last ulp (max |delta| must be exactly 0). Solution quality is
//      therefore inherited, not traded: the same seeds produce the same
//      configuration -- the end-to-end stage below records identical stress
//      and mean error from both paths, differing only in wall time.
//
// Dense and production repetitions go through the interleaved estimator
// (bench::interleave): each rep times every variant, each speedup is formed
// per rep, and the gates read the median over reps, so a load spike on a
// shared machine hits both sides of a rep instead of skewing one ratio.
//
// Results are printed and written as JSON (default BENCH_lss.json, or
// argv[1]) so CI can archive the perf trajectory alongside BENCH_ranging.json.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/dv_hop.hpp"
#include "core/lss.hpp"
#include "core/lss_objective.hpp"
#include "eval/metrics.hpp"
#include "obs/telemetry.hpp"
#include "reference/lss.hpp"
#include "sim/deployments.hpp"
#include "sim/measurement_gen.hpp"
#include "sim/scenario_registry.hpp"

using namespace resloc;

namespace {

volatile double g_sink = 0.0;  // keeps the timed loops from being optimized away

struct EvalCase {
  std::size_t n = 0;
  bool folded = false;
  std::size_t edges = 0;
  std::size_t active_pairs = 0;
  bench::Quartiles edge_term_us;        ///< production measured-edge term alone
  bench::Quartiles dense_edge_term_us;  ///< the reference's, one edge at a time
  bench::Quartiles edge_term_speedup;   ///< per rep, reference / production
  bench::Quartiles dense_us;
  bench::Quartiles grid_us;        ///< production (skin-list) path
  bench::Quartiles speedup;        ///< full objective evaluation, per rep
  bench::Quartiles stage_speedup;  ///< soft-constraint stage alone, per rep
  std::uint64_t dense_pair_tests = 0;  ///< n(n-1)/2
  std::uint64_t list_pair_tests = 0;   ///< one-shot list build + walk

  double work_ratio() const {
    return static_cast<double>(dense_pair_tests) /
           static_cast<double>(std::max<std::uint64_t>(list_pair_tests, 1));
  }
};

/// One scale point: a uniform_n field, synthetic measurements, and one of two
/// configurations. `folded = false` is the late-descent steady state (truth +
/// 3 m jitter: nearly every sub-d_min pair is measured and exempt, so the
/// active set is close to empty -- the regime most evaluations run in).
/// `folded = true` compresses the truth to 35% (early descent / folded
/// minimum): unmeasured pairs pour under d_min and the active set is ~O(n),
/// exercising the list build's ordering stage and the walk under real load.
/// Times both constraint paths and checks bit-equivalence in both regimes.
EvalCase run_eval_case(std::size_t n, bool folded, double& max_error_delta,
                       double& max_grad_delta) {
  EvalCase c;
  c.n = n;
  c.folded = folded;
  math::Rng deploy_rng(0x5CA1E + n);
  sim::ScenarioParams params;
  params.node_count = n;
  const core::Deployment deployment = sim::build_scenario("uniform_n", params, deploy_rng);
  math::Rng meas_rng(0xED6E + n);
  const core::MeasurementSet measurements =
      sim::gaussian_measurements(deployment, {}, meas_rng);
  c.edges = measurements.edge_count();

  std::vector<math::Vec2> config(deployment.size());
  math::Rng jitter_rng(0x71 + n);
  const double scale = folded ? 0.35 : 1.0;
  for (std::size_t i = 0; i < deployment.size(); ++i) {
    config[i] = deployment.positions[i] * scale +
                math::Vec2{jitter_rng.gaussian(0.0, 3.0), jitter_rng.gaussian(0.0, 3.0)};
  }

  const core::LssOptions options;  // default: skin-list active set

  // Equivalence first: same error, same gradient, down to the last bit.
  std::vector<double> grid_grad;
  std::vector<double> dense_grad;
  const double grid_e = core::lss_stress_with_gradient(measurements, config, options, grid_grad);
  const double dense_e =
      reference::lss_stress_with_gradient_dense(measurements, config, options, dense_grad);
  max_error_delta = std::max(max_error_delta, std::abs(grid_e - dense_e));
  for (std::size_t i = 0; i < grid_grad.size(); ++i) {
    max_grad_delta = std::max(max_grad_delta, std::abs(grid_grad[i] - dense_grad[i]));
  }

  // Counted work of one one-shot evaluation's constraint stage: the dense
  // scan tests every pair, the skin list its build's candidates and then
  // its entries.
  {
    std::vector<double> p(2 * n);
    for (std::size_t i = 0; i < n; ++i) {
      p[i] = config[i].x;
      p[n + i] = config[i].y;
    }
    std::vector<double> g(2 * n);
    core::detail::StressObjective objective(measurements, options, {});
    (void)objective(p, g);
    c.list_pair_tests = objective.pair_tests();
    c.dense_pair_tests = static_cast<std::uint64_t>(n) * (n - 1) / 2;
  }

  // Count the active set so the record shows what the evaluation paid for.
  {
    const double dmin = *options.min_spacing_m;
    for (std::size_t i = 0; i + 1 < config.size(); ++i) {
      for (std::size_t j = i + 1; j < config.size(); ++j) {
        const double d = math::distance(config[i], config[j]);
        if (d < dmin && !measurements.has(static_cast<core::NodeId>(i),
                                          static_cast<core::NodeId>(j))) {
          ++c.active_pairs;
        }
      }
    }
  }

  // Timed evaluations: enough iterations per rep to rise above timer noise,
  // the four variants taking turns within each of many short reps.
  const int evals = n >= 1000 ? 10 : n >= 500 ? 20 : 50;
  std::vector<double> grad;
  const auto eval_loop = [&](auto stress_with_gradient, const core::LssOptions& eval_options) {
    return [&, stress_with_gradient, opts = &eval_options] {
      double sum = 0.0;
      for (int e = 0; e < evals; ++e) {
        sum += stress_with_gradient(measurements, config, *opts, grad);
      }
      g_sink = sum;
    };
  };
  core::LssOptions edge_only_options;
  edge_only_options.min_spacing_m.reset();
  const auto s = bench::interleave(
      21, {eval_loop(core::lss_stress_with_gradient, edge_only_options),
           eval_loop(reference::lss_stress_with_gradient_dense, edge_only_options),
           eval_loop(reference::lss_stress_with_gradient_dense, options),
           eval_loop(core::lss_stress_with_gradient, options)});
  std::vector<double> dense_stage;  // per rep: full evaluation - its edge term
  std::vector<double> grid_stage;
  for (std::size_t r = 0; r < s[0].size(); ++r) {
    dense_stage.push_back(s[2][r] - s[1][r]);
    grid_stage.push_back(s[3][r] - s[0][r]);
  }
  const double us_per_eval = 1e6 / evals;
  c.edge_term_us = bench::quartiles(s[0]).scaled(us_per_eval);
  c.dense_edge_term_us = bench::quartiles(s[1]).scaled(us_per_eval);
  c.edge_term_speedup = bench::ratio_quartiles(s[1], s[0]);
  c.dense_us = bench::quartiles(s[2]).scaled(us_per_eval);
  c.grid_us = bench::quartiles(s[3]).scaled(us_per_eval);
  c.speedup = bench::ratio_quartiles(s[2], s[3]);
  c.stage_speedup = bench::ratio_quartiles(dense_stage, grid_stage);
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = argc > 1 ? argv[1] : "BENCH_lss.json";
  bench::print_banner("LSS soft-constraint active set: skin list vs dense O(n^2) scan");

  double max_error_delta = 0.0;
  double max_grad_delta = 0.0;
  std::vector<EvalCase> cases;
  for (const std::size_t n : {100u, 250u, 500u, 1000u}) {
    cases.push_back(run_eval_case(n, false, max_error_delta, max_grad_delta));
  }
  // The folded regime (compressed configuration, ~O(n) active pairs) puts
  // the list build's ordering stage and the walk under real load -- both for
  // timing honesty and so the bit-equivalence gate covers a busy active set.
  for (const std::size_t n : {500u, 1000u}) {
    cases.push_back(run_eval_case(n, true, max_error_delta, max_grad_delta));
  }

  std::puts("one-shot objective evaluation (measured edges + soft constraint, list built fresh)");
  std::puts(
      "      n  config      edges    active   edge ns/edge dense / prod   dense us    prod us"
      "   eval-speedup (q1-q3)    stage-speedup (q1-q3)   stage pair tests dense / list");
  double stage_work_ratio_at_500 = 0.0;
  double eval_speedup_at_1000 = 0.0;
  for (const EvalCase& c : cases) {
    std::printf(
        "  %5zu  %-9s %8zu  %8zu  %5.2f / %4.2f (%4.2fx)  %9.1f  %9.1f  %6.1fx (%4.1f-%4.1f)"
        "  %6.1fx (%4.1f-%4.1f)  %8llu / %6llu = %5.1fx\n",
        c.n, c.folded ? "folded" : "converged", c.edges, c.active_pairs,
        c.dense_edge_term_us.median * 1e3 / c.edges, c.edge_term_us.median * 1e3 / c.edges,
        c.edge_term_speedup.median, c.dense_us.median, c.grid_us.median, c.speedup.median,
        c.speedup.q1, c.speedup.q3,
        c.stage_speedup.median, c.stage_speedup.q1, c.stage_speedup.q3,
        static_cast<unsigned long long>(c.dense_pair_tests),
        static_cast<unsigned long long>(c.list_pair_tests), c.work_ratio());
    if (!c.folded && c.n == 500) stage_work_ratio_at_500 = c.work_ratio();
    if (!c.folded && c.n == 1000) eval_speedup_at_1000 = c.speedup.median;
  }
  std::puts(
      "  (medians of 21 reps, speedups per rep. The measured-edge term runs two edges\n"
      "   per SSE2 vector in production and one at a time in the reference; the stage\n"
      "   column takes each path's own edge term out of its full evaluation, and the\n"
      "   pair-test columns count the constraint stage's work; gates read the\n"
      "   converged rows, the regime most evaluations run in)");
  std::printf("  bit-equivalence: max |delta error| = %g, max |delta grad| = %g (bound: 0)\n",
              max_error_delta, max_grad_delta);

  // --- End-to-end: the 'scale' sweep's solver stage (DV-hop seed + one LSS
  // descent) at n = 500, production vs dense. Same seeds, bit-equal
  // objective => identical solution; only the wall clock may differ. ---
  math::Rng deploy_rng(0xE2E);
  sim::ScenarioParams params;
  const core::Deployment deployment = [&] {
    core::Deployment d = sim::build_scenario("campus_500", params, deploy_rng);
    math::Rng anchor_rng(0xA2C);
    sim::choose_random_anchors(d, 40, anchor_rng);
    return d;
  }();
  math::Rng meas_rng(0x3EA);
  const core::MeasurementSet measurements =
      sim::gaussian_measurements(deployment, {}, meas_rng);

  core::LssOptions solve_options;
  solve_options.restarts.rounds = 3;
  solve_options.gd.max_iterations = 2500;

  const auto dv_hop_seed = [&] {
    math::Rng dv_rng(0xD0);
    const core::DvHopResult dv = core::localize_dv_hop(deployment, measurements, {}, dv_rng);
    std::vector<math::Vec2> initial(deployment.size());
    for (std::size_t i = 0; i < deployment.size(); ++i) {
      initial[i] = dv.result.positions[i].value_or(math::Vec2{0.0, 0.0});
    }
    return initial;
  };
  const auto refine = [&](std::vector<math::Vec2> initial, bool dense) {
    math::Rng solve_rng(0x50E);
    return dense ? reference::localize_lss_from_dense(measurements, std::move(initial),
                                                      solve_options, solve_rng)
                 : core::localize_lss_from(measurements, std::move(initial), solve_options,
                                           solve_rng);
  };
  const auto solve = [&](bool dense) { return refine(dv_hop_seed(), dense); };

  // Work counts of the production LSS descent, from one traced run:
  // evaluations (identical for both paths -- same trajectory) and list
  // rebuilds.
  {
    std::vector<math::Vec2> initial = dv_hop_seed();
    obs::reset();
    obs::set_enabled(true);
    (void)refine(std::move(initial), false);
    obs::set_enabled(false);
  }
  const obs::TelemetrySnapshot counts = obs::snapshot();
  obs::reset();
  const auto solve_evals = counts.counter(obs::Counter::kGdEvaluations);
  const auto solve_rebuilds = counts.counter(obs::Counter::kLssNeighborRebuilds);

  core::LssResult grid_result;
  core::LssResult dense_result;
  const bench::Paired solve_time = bench::paired(
      3, [&] { dense_result = solve(true); }, [&] { grid_result = solve(false); });
  const double solve_dense_s = solve_time.a_s.median;
  const double solve_grid_s = solve_time.b_s.median;
  const double solve_speedup = solve_time.ratio.median;
  const double grid_error =
      eval::evaluate_localization(grid_result.positions, deployment.positions, true)
          .average_error_m;
  const double dense_error =
      eval::evaluate_localization(dense_result.positions, deployment.positions, true)
          .average_error_m;
  const double evals = static_cast<double>(std::max<std::uint64_t>(solve_evals, 1));
  const double rebuild_rate = static_cast<double>(solve_rebuilds) / evals;

  std::printf("\nend-to-end solve, campus_500 (DV-hop seed + LSS, 40 anchors)\n");
  std::printf("  dense scan        %8.2f s   stress %.3f   mean error %.3f m\n", solve_dense_s,
              dense_result.stress, dense_error);
  std::printf("  skin list         %8.2f s   stress %.3f   mean error %.3f m\n", solve_grid_s,
              grid_result.stress, grid_error);
  std::printf(
      "  speedup           %8.2fx  (median per-rep ratio of 3, q1-q3 %.2f-%.2fx; same seeds,\n"
      "                              identical solutions; gate >= 10x)\n",
      solve_speedup, solve_time.ratio.q1, solve_time.ratio.q3);
  std::printf(
      "  descent regime    %llu evaluations, %llu list rebuilds (%.4f per evaluation)\n"
      "                    %.2f us/eval dense, %.2f us/eval skin list (solve wall / LSS "
      "evaluations)\n",
      static_cast<unsigned long long>(solve_evals),
      static_cast<unsigned long long>(solve_rebuilds), rebuild_rate, solve_dense_s / evals * 1e6,
      solve_grid_s / evals * 1e6);

  const bool solutions_match =
      grid_result.stress == dense_result.stress && grid_error == dense_error;

  bench::Json eval_cases = bench::Json::array();
  for (const EvalCase& c : cases) {
    eval_cases.push(bench::Json::object()
                        .set("n", c.n)
                        .set("config", c.folded ? "folded" : "converged")
                        .set("edges", c.edges)
                        .set("active_pairs", c.active_pairs)
                        .set("edge_term_us_per_eval", c.edge_term_us)
                        .set("dense_edge_term_us_per_eval", c.dense_edge_term_us)
                        .set("edge_term_ns_per_edge",
                             c.edge_term_us.scaled(1e3 / static_cast<double>(c.edges)))
                        .set("dense_edge_term_ns_per_edge",
                             c.dense_edge_term_us.scaled(1e3 / static_cast<double>(c.edges)))
                        .set("edge_term_speedup", c.edge_term_speedup)
                        .set("dense_us_per_eval", c.dense_us)
                        .set("grid_us_per_eval", c.grid_us)
                        .set("eval_speedup", c.speedup)
                        .set("constraint_stage_speedup", c.stage_speedup)
                        .set("dense_pair_tests", c.dense_pair_tests)
                        .set("list_pair_tests", c.list_pair_tests)
                        .set("constraint_stage_work_ratio", c.work_ratio()));
  }
  const bool written =
      bench::record("bench_lss_scale")
          .set("eval_reps", 21)
          .set("eval_cases", eval_cases)
          .set("max_abs_error_delta", max_error_delta)
          .set("max_abs_gradient_delta", max_grad_delta)
          .set("solve_scenario", "campus_500")
          .set("solve_reps", 3)
          .set("solve_dense_s", solve_time.a_s)
          .set("solve_grid_s", solve_time.b_s)
          .set("solve_speedup", solve_time.ratio)
          .set("solve_gd_evaluations", solve_evals)
          .set("solve_list_rebuilds", solve_rebuilds)
          .set("solve_rebuilds_per_eval", rebuild_rate)
          .set("descent_dense_us_per_eval", solve_dense_s / evals * 1e6)
          .set("descent_grid_us_per_eval", solve_grid_s / evals * 1e6)
          .set("solve_stress", grid_result.stress)
          .set("solve_mean_error_m", grid_error)
          .write(json_path);

  return bench::exit_code(
      written, {{"constraint-stage work ratio at n = 500 >= 10x", stage_work_ratio_at_500 >= 10.0},
                {"full-eval speedup at n = 1000 >= 10x", eval_speedup_at_1000 >= 10.0},
                {"campus_500 solve speedup >= 10x", solve_speedup >= 10.0},
                {"bit-equal error and gradient", max_error_delta == 0.0 && max_grad_delta == 0.0},
                {"identical dense and skin-list solutions", solutions_match}});
}
