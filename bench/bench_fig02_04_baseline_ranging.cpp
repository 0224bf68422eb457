// Figures 2 and 4: errors of the baseline acoustic ranging service on a
// 60-node urban deployment (distances up to 30 m), raw and after median
// filtering of up to five measurements.
//
// Paper-reported shape: many measurements with >1 m errors; the large
// under-estimates come from echoes/noise firing the tone detector early, the
// over-estimates from missed onsets. Median filtering collapses most of the
// uncorrelated outliers.
#include <cstdio>
#include <set>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "eval/metrics.hpp"
#include "eval/report.hpp"
#include "math/stats.hpp"
#include "sim/deployments.hpp"
#include "sim/field_experiment.hpp"
#include "sim/scenarios.hpp"

using namespace resloc;

int main() {
  bench::print_banner(
      "Figure 2 / Figure 4 -- baseline ranging errors, 60-node urban site");

  math::Rng rng(0xF16'02);
  // 60 nodes over an urban site; pairs recorded out to ~30 m.
  const auto deployment = sim::random_uniform(60, 70.0, 55.0, 6.0, rng);

  sim::FieldExperimentConfig config = sim::urban_baseline_campaign_config(/*rounds=*/5);
  config.ranging.max_window_range_m = 35.0;
  config.simulate_within_m = 32.0;
  config.filter.kind = ranging::FilterKind::kMedian;
  config.filter.max_samples = 5;  // "median filtering of up to five measurements"

  const auto data = sim::run_field_experiment(deployment, config, rng);

  // --- Figure 2: raw single-measurement errors ---
  const auto raw = eval::summarize_ranging_errors(data.raw_errors());
  std::set<std::pair<core::NodeId, core::NodeId>> directed_pairs;
  for (const auto& s : data.samples) directed_pairs.insert({s.source, s.receiver});
  std::printf("raw measurements: %zu over %zu directed pairs\n", raw.count,
              directed_pairs.size());
  std::printf("  mean error          %8.3f m\n", raw.mean_m);
  std::printf("  median |error|      %8.3f m\n", raw.median_abs_m);
  std::printf("  within +/-1 m       %7.1f %%\n", 100.0 * raw.within_1m_fraction);
  std::printf("  underestimates >1m  %zu\n", raw.underestimates_beyond_1m);
  std::printf("  overestimates  >1m  %zu\n", raw.overestimates_beyond_1m);
  std::printf("  max |error|         %8.2f m\n", raw.max_abs_m);
  std::puts("paper (Fig 2): many >1 m errors; large underestimates from echo/noise pickup.");

  // Error vs distance series (the Fig 2 scatter, summarized by distance bin).
  eval::Table table({"distance bin", "samples", "mean err", "|err|>1m", "worst"});
  for (double lo = 0.0; lo < 30.0; lo += 5.0) {
    std::vector<double> errors;
    double worst = 0.0;
    for (const auto& s : data.samples) {
      if (s.true_distance_m < lo || s.true_distance_m >= lo + 5.0) continue;
      const double e = s.measured_m - s.true_distance_m;
      errors.push_back(e);
      if (std::abs(e) > std::abs(worst)) worst = e;
    }
    std::size_t big = 0;
    for (double e : errors) {
      if (std::abs(e) > 1.0) ++big;
    }
    char bin[32];
    std::snprintf(bin, sizeof bin, "%2.0f-%2.0f m", lo, lo + 5.0);
    table.add_row({bin, std::to_string(errors.size()), eval::fmt(math::mean(errors)),
                   std::to_string(big), eval::fmt(worst, 2)});
  }
  std::puts("");
  std::fputs(table.to_string().c_str(), stdout);

  // --- Figure 4: median filtering of up to five measurements ---
  std::vector<double> filtered_errors;
  for (const auto& pair : ranging::symmetric_estimates(data.samples, config.filter, 1e9)) {
    const double true_d =
        math::distance(deployment.positions[pair.a], deployment.positions[pair.b]);
    filtered_errors.push_back(pair.distance_m - true_d);
  }
  const auto filtered = eval::summarize_ranging_errors(filtered_errors);
  std::puts("\nFigure 4 -- after median filtering (<=5 measurements per direction):");
  std::printf("  pairs               %zu\n", filtered.count);
  std::printf("  median |error|      %8.3f m\n", filtered.median_abs_m);
  std::printf("  errors beyond 1 m   %zu (raw had %zu)\n",
              filtered.underestimates_beyond_1m + filtered.overestimates_beyond_1m,
              raw.underestimates_beyond_1m + raw.overestimates_beyond_1m);
  std::printf("  max |error|         %8.2f m (raw %.2f m)\n", filtered.max_abs_m, raw.max_abs_m);
  std::puts("paper (Fig 4): outlier count collapses relative to Figure 2.");
  return 0;
}
