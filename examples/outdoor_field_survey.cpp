// Outdoor field survey: the paper's motivating scenario, end to end.
//
// A 46-node network on a grassy field self-localizes with no surveying, no
// GPS, and no anchors: acoustic TDoA ranging (chirp accumulation + pattern
// check), statistical filtering, bidirectional consistency checking, and
// centralized LSS with the minimum-spacing soft constraint. Per-stage
// diagnostics show what each layer of the stack contributes.
#include <cstdio>
#include <set>
#include <utility>

#include "core/lss.hpp"
#include "eval/metrics.hpp"
#include "sim/scenarios.hpp"

int main() {
  using namespace resloc;
  std::puts("== outdoor field survey: 46 motes, grass, no anchors ==\n");

  // Stage 1: the acoustic ranging campaign (3 rounds, every node chirps).
  const auto scenario = sim::grass_grid_scenario(/*seed=*/20260611, /*rounds=*/3);
  const auto raw = eval::summarize_ranging_errors(scenario.data.raw_errors());
  std::set<std::pair<core::NodeId, core::NodeId>> directed_pairs;
  for (const auto& s : scenario.data.samples) directed_pairs.insert({s.source, s.receiver});
  std::printf("[ranging]   %zu raw estimates over %zu directed pairs\n", raw.count,
              directed_pairs.size());
  std::printf("[ranging]   median |error| %.2f m, %zu estimates off by >1 m\n", raw.median_abs_m,
              raw.underestimates_beyond_1m + raw.overestimates_beyond_1m);

  // Stage 2: filtering + consistency checking.
  std::size_t bidirectional = 0;
  for (const auto& p : scenario.data.filtered) {
    if (p.bidirectional) ++bidirectional;
  }
  std::printf("[filtering] %zu symmetric pairs kept (%zu bidirectionally confirmed)\n",
              scenario.data.filtered.size(), bidirectional);
  const auto violations = ranging::find_triangle_violations(scenario.data.filtered, 0.05);
  const auto cleaned = ranging::drop_triangle_offenders(scenario.data.filtered, 0.05, 2);
  std::printf("[filtering] %zu triangle-inequality violations flagged, %zu edges dropped\n",
              violations.size(), scenario.data.filtered.size() - cleaned.size());
  core::MeasurementSet measurements(scenario.deployment.size());
  measurements.set_node_count(scenario.deployment.size());
  for (const auto& p : cleaned) {
    // Bidirectionally confirmed edges earn full confidence; unidirectional
    // survivors are kept (data is scarce) but down-weighted.
    measurements.add(p.a, p.b, p.distance_m, p.bidirectional ? 1.0 : 0.3);
  }

  // Stage 3: centralized LSS with the 9 m minimum-spacing soft constraint.
  core::LssOptions options;
  options.min_spacing_m = 9.0;
  options.constraint_weight = 10.0;
  options.gd.max_iterations = 6000;
  options.independent_inits = 16;
  options.target_stress_per_edge = 0.75;
  math::Rng rng(7);
  const auto result = core::localize_lss(measurements, options, rng);
  std::printf("[localize]  stress %.1f after %d iterations\n", result.stress, result.iterations);

  // Stage 4: evaluation against the surveyed ground truth.
  const auto report = eval::evaluate_localization(result.positions,
                                                  scenario.deployment.positions, true);
  std::printf("[evaluate]  average error %.2f m over %zu nodes (max %.2f m)\n",
              report.average_error_m, report.localized, report.max_error_m);
  std::printf("[evaluate]  average without the worst 5 nodes: %.2f m\n",
              report.average_without_worst(5));
  std::puts("\nThe network located itself to within a couple of meters per node\n"
            "using nothing but sound, radio, and least squares scaling.");
  return report.average_error_m < 5.0 ? 0 : 1;
}
