// Ablation A1: sweep of the soft-constraint weight w_D (Section 4.2.1 fixes
// w_D = 10 without justification). Shows the plateau where the constraint is
// strong enough to unfold configurations but does not distort the fit.
#include <algorithm>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "core/lss.hpp"
#include "eval/metrics.hpp"
#include "eval/report.hpp"
#include "math/parallel_for.hpp"
#include "sim/scenarios.hpp"

using namespace resloc;

int main() {
  bench::print_banner("Ablation A1 -- soft-constraint weight w_D sweep (sparse grass data)");
  const auto scenario = sim::grass_grid_scenario(0xAB'01, /*rounds=*/3);

  const std::vector<double> weights = {0.0, 0.1, 1.0, 3.0, 10.0, 30.0, 100.0};
  constexpr std::size_t kSeeds = 3;

  // One slot per (w_D, seed) solve. Each solve has its own generator and
  // reads the scenario as const, so the slots -- and the table reduced from
  // them in order -- are the same at any thread count.
  struct Solve {
    double error_m = 0.0;
    double stress = 0.0;
  };
  std::vector<Solve> solves(weights.size() * kSeeds);
  const unsigned threads = std::max(1u, std::thread::hardware_concurrency());
  math::parallel_for(solves.size(), threads, [&](std::size_t i) {
    const double wd = weights[i / kSeeds];
    core::LssOptions options;
    if (wd == 0.0) {
      options.min_spacing_m.reset();
    } else {
      options.min_spacing_m = 9.14;
      options.constraint_weight = wd;
    }
    options.gd.max_iterations = 5000;
    options.independent_inits = 12;
    options.target_stress_per_edge = 0.75;

    math::Rng rng(0xAB'02 + 1 + i % kSeeds);
    const auto run = core::localize_lss(scenario.measurements, options, rng);
    const auto rep =
        eval::evaluate_localization(run.positions, scenario.deployment.positions, true);
    solves[i] = {rep.average_error_m, run.stress};
  });

  eval::Table table({"w_D", "avg error (m)", "stress", "failures/3"});
  for (std::size_t w = 0; w < weights.size(); ++w) {
    double err_sum = 0.0;
    double stress_sum = 0.0;
    int failures = 0;
    for (std::size_t k = 0; k < kSeeds; ++k) {
      const Solve& solve = solves[w * kSeeds + k];
      err_sum += solve.error_m;
      stress_sum += solve.stress;
      if (solve.error_m > 3.0) ++failures;
    }
    table.add_row({eval::fmt(weights[w], 1), eval::fmt(err_sum / 3.0, 2),
                   eval::fmt(stress_sum / 3.0, 0), std::to_string(failures)});
  }
  std::fputs(table.to_string().c_str(), stdout);
  std::puts(
      "\nreading: w_D = 0 (no constraint) folds; very small w_D under-penalizes;\n"
      "the paper's w_D = 10 sits on the stable plateau.");
  return 0;
}
