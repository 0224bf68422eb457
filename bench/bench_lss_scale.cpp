// LSS at production scale: the skin-list active set vs the dense O(n^2) scan
// of the test-only reference (tests/reference).
//
// Two claims are measured and gated:
//   1. Speedup. The minimum-spacing soft constraint's active set is walked
//      from a skin (Verlet) candidate list, rebuilt by spatial-grid sweep only
//      when some node has moved half a skin, instead of scanning all
//      n(n-1)/2 pairs. One-shot evaluations (a fresh objective, so every one
//      pays a list build) time the constraint stage alone and the full
//      objective evaluation (which adds the measured-edge term, identical in
//      both paths -- the Amdahl floor) per n; the gates are a >= 10x
//      constraint-stage speedup at n = 500 and a >= 10x full-evaluation
//      speedup at n = 1000. The descent regime -- one objective reused
//      across a whole campus_500 solve, where the list is rebuilt on a small
//      fraction of evaluations -- is gated at a >= 10x end-to-end solve
//      speedup. Any gate missed and the bench exits nonzero.
//   2. Bit-equivalence. Both paths visit active pairs in identical order with
//      identical arithmetic, so error and every gradient component must match
//      to the last ulp (max |delta| must be exactly 0). Solution quality is
//      therefore inherited, not traded: the same seeds produce the same
//      configuration -- the end-to-end stage below records identical stress
//      and mean error from both paths, differing only in wall time.
//
// Dense and production repetitions are interleaved inside each timing loop
// and the best of each side is kept, so a load spike on a shared machine
// hits both sides instead of skewing one ratio.
//
// Results are printed and written as JSON (default BENCH_lss.json, or
// argv[1]) so CI can archive the perf trajectory alongside BENCH_ranging.json.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/dv_hop.hpp"
#include "core/lss.hpp"
#include "eval/aggregate.hpp"
#include "eval/metrics.hpp"
#include "obs/telemetry.hpp"
#include "reference/lss.hpp"
#include "sim/deployments.hpp"
#include "sim/measurement_gen.hpp"
#include "sim/scenario_registry.hpp"

using namespace resloc;

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Wall time of one call of `fn` (seconds).
template <typename Fn>
double time_once(Fn&& fn) {
  const double t0 = now_s();
  fn();
  return now_s() - t0;
}

volatile double g_sink = 0.0;  // keeps the timed loops from being optimized away

struct EvalCase {
  std::size_t n = 0;
  bool folded = false;
  std::size_t edges = 0;
  std::size_t active_pairs = 0;
  double edge_term_us = 0.0;  ///< measured-edge term alone (constraint off)
  double dense_us = 0.0;
  double grid_us = 0.0;  ///< production (skin-list) path
  double speedup = 0.0;        ///< full objective evaluation
  double stage_speedup = 0.0;  ///< soft-constraint stage alone
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

  // Timed evaluations: enough iterations per rep to rise above timer noise;
  // the three variants take turns within each rep and keep their best. Many
  // short reps rather than a few long ones give the best-of a quiet window
  // on a shared machine.
  const int evals = n >= 1000 ? 10 : n >= 500 ? 20 : 50;
  std::vector<double> grad;
  const auto time_eval = [&](auto&& stress_with_gradient, const core::LssOptions& eval_options) {
    return time_once([&] {
      double sum = 0.0;
      for (int e = 0; e < evals; ++e) {
        sum += stress_with_gradient(measurements, config, eval_options, grad);
      }
      g_sink = sum;
    });
  };
  core::LssOptions edge_only_options;  // the Amdahl floor both paths share
  edge_only_options.min_spacing_m.reset();
  double edge_s = 1e300;
  double dense_s = 1e300;
  double grid_s = 1e300;
  for (int rep = 0; rep < 21; ++rep) {
    edge_s = std::min(edge_s, time_eval(core::lss_stress_with_gradient, edge_only_options));
    dense_s = std::min(dense_s, time_eval(reference::lss_stress_with_gradient_dense, options));
    grid_s = std::min(grid_s, time_eval(core::lss_stress_with_gradient, options));
  }
  c.edge_term_us = edge_s / evals * 1e6;
  c.dense_us = dense_s / evals * 1e6;
  c.grid_us = grid_s / evals * 1e6;
  c.speedup = dense_s / grid_s;
  c.stage_speedup = (dense_s - edge_s) / (grid_s - edge_s);
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
      "      n  config      edges    active   edge us   dense us    prod us   eval-speedup   "
      "stage-speedup");
  double stage_speedup_at_500 = 0.0;
  double eval_speedup_at_1000 = 0.0;
  for (const EvalCase& c : cases) {
    std::printf("  %5zu  %-9s %8zu  %8zu  %8.1f  %9.1f  %9.1f  %11.1fx  %13.1fx\n", c.n,
                c.folded ? "folded" : "converged", c.edges, c.active_pairs, c.edge_term_us,
                c.dense_us, c.grid_us, c.speedup, c.stage_speedup);
    if (!c.folded && c.n == 500) stage_speedup_at_500 = c.stage_speedup;
    if (!c.folded && c.n == 1000) eval_speedup_at_1000 = c.speedup;
  }
  std::puts(
      "  (the measured-edge term is identical in both paths; it bounds the full-eval\n"
      "   speedup at any n -- the stage column isolates the constraint scan;\n"
      "   gates read the converged rows, the regime most evaluations run in)");
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
  double solve_grid_s = 1e300;
  double solve_dense_s = 1e300;
  for (int rep = 0; rep < 3; ++rep) {  // interleaved, best of each side
    solve_dense_s = std::min(solve_dense_s, time_once([&] { dense_result = solve(true); }));
    solve_grid_s = std::min(solve_grid_s, time_once([&] { grid_result = solve(false); }));
  }
  const double grid_stress = grid_result.stress;
  const double dense_stress = dense_result.stress;
  const double grid_error =
      eval::evaluate_localization(grid_result.positions, deployment.positions, true)
          .average_error_m;
  const double dense_error =
      eval::evaluate_localization(dense_result.positions, deployment.positions, true)
          .average_error_m;
  const double solve_speedup = solve_dense_s / solve_grid_s;
  const double evals = static_cast<double>(std::max<std::uint64_t>(solve_evals, 1));
  const double descent_dense_us = solve_dense_s / evals * 1e6;
  const double descent_grid_us = solve_grid_s / evals * 1e6;
  const double rebuild_rate = static_cast<double>(solve_rebuilds) / evals;

  std::printf("\nend-to-end solve, campus_500 (DV-hop seed + LSS, 40 anchors)\n");
  std::printf("  dense scan        %8.2f s   stress %.3f   mean error %.3f m\n", solve_dense_s,
              dense_stress, dense_error);
  std::printf("  skin list         %8.2f s   stress %.3f   mean error %.3f m\n", solve_grid_s,
              grid_stress, grid_error);
  std::printf("  speedup           %8.2fx  (same seeds; solutions are identical; gate >= 10x)\n",
              solve_speedup);
  std::printf(
      "  descent regime    %llu evaluations, %llu list rebuilds (%.4f per evaluation)\n"
      "                    %.2f us/eval dense, %.2f us/eval skin list (solve wall / LSS "
      "evaluations)\n",
      static_cast<unsigned long long>(solve_evals),
      static_cast<unsigned long long>(solve_rebuilds), rebuild_rate, descent_dense_us,
      descent_grid_us);

  const bool solutions_match = grid_stress == dense_stress && grid_error == dense_error;
  if (!solutions_match) {
    std::puts("  WARNING: production and dense solves disagree -- equivalence broken");
  }

  // --- JSON record ---
  const auto v = [](double x) { return resloc::eval::format_value(x); };
  std::string json = "{\n";
  json += "  \"bench\": \"bench_lss_scale\",\n";
  json += "  \"eval_cases\": [";
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const EvalCase& c = cases[i];
    json += (i == 0 ? "\n" : ",\n");
    json += "    {\"n\": " + std::to_string(c.n) +
            ", \"config\": \"" + (c.folded ? "folded" : "converged") +
            "\", \"edges\": " + std::to_string(c.edges) +
            ", \"active_pairs\": " + std::to_string(c.active_pairs) +
            ", \"edge_term_us_per_eval\": " + v(c.edge_term_us) +
            ", \"dense_us_per_eval\": " + v(c.dense_us) +
            ", \"grid_us_per_eval\": " + v(c.grid_us) + ", \"eval_speedup\": " + v(c.speedup) +
            ", \"constraint_stage_speedup\": " + v(c.stage_speedup) + "}";
  }
  json += "\n  ],\n";
  json += "  \"max_abs_error_delta\": " + v(max_error_delta) + ",\n";
  json += "  \"max_abs_gradient_delta\": " + v(max_grad_delta) + ",\n";
  json += "  \"solve_scenario\": \"campus_500\",\n";
  json += "  \"solve_dense_s\": " + v(solve_dense_s) + ",\n";
  json += "  \"solve_grid_s\": " + v(solve_grid_s) + ",\n";
  json += "  \"solve_speedup\": " + v(solve_speedup) + ",\n";
  json += "  \"solve_gd_evaluations\": " + std::to_string(solve_evals) + ",\n";
  json += "  \"solve_list_rebuilds\": " + std::to_string(solve_rebuilds) + ",\n";
  json += "  \"solve_rebuilds_per_eval\": " + v(rebuild_rate) + ",\n";
  json += "  \"descent_dense_us_per_eval\": " + v(descent_dense_us) + ",\n";
  json += "  \"descent_grid_us_per_eval\": " + v(descent_grid_us) + ",\n";
  json += "  \"solve_stress\": " + v(grid_stress) + ",\n";
  json += "  \"solve_mean_error_m\": " + v(grid_error) + "\n";
  json += "}\n";
  if (!resloc::eval::write_text_file(json_path, json)) {
    std::fprintf(stderr, "error: could not write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("\nbench record: %s\n", json_path.c_str());

  const bool ok = stage_speedup_at_500 >= 10.0 && eval_speedup_at_1000 >= 10.0 &&
                  solve_speedup >= 10.0 && max_error_delta == 0.0 && max_grad_delta == 0.0 &&
                  solutions_match;
  if (!ok) {
    std::fprintf(stderr,
                 "FAIL: stage speedup@500 %.1fx / eval speedup@1000 %.1fx / solve speedup %.1fx "
                 "(all need >= 10x), error delta %g, grad delta %g, solutions %s\n",
                 stage_speedup_at_500, eval_speedup_at_1000, solve_speedup, max_error_delta,
                 max_grad_delta, solutions_match ? "match" : "differ");
  }
  return ok ? 0 : 1;
}
