// Figure 12: multilateration localization with 15 nodes (5 anchors) in a
// 25 x 25 m parking lot, using acoustic ranging with median filtering.
//
// Paper-reported result: average localization error 0.868 m (one-way
// measurements from the 5 loudspeaker-fitted anchors; pre-pattern-encoding
// ranging with larger individual error magnitudes).
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "core/multilateration.hpp"
#include "eval/metrics.hpp"
#include "ranging/measurement_table.hpp"
#include "ranging/ranging_service.hpp"
#include "sim/deployments.hpp"
#include "sim/scenarios.hpp"

using namespace resloc;

int main() {
  bench::print_banner("Figure 12 -- multilateration, 15 nodes / 5 anchors, parking lot");
  const auto deployment = sim::parking_lot_15();

  // One-way ranging: only the 5 anchor boards had loudspeakers. The
  // experiment predates the pattern encoding, so individual measurements
  // carried "larger error magnitudes": no pattern verification, fewer chirps,
  // echoes off the surrounding structures, uncalibrated sensing offset.
  auto config = sim::grass_refined_ranging();
  config.environment = acoustics::EnvironmentProfile::pavement();
  config.environment.echo_rate = 0.6;
  config.environment.noise_burst_rate_hz = 0.6;
  config.max_window_range_m = 36.0;
  config.pattern.num_chirps = 5;
  config.verify_pattern = false;
  config.tdoa.delta_const_true_s = config.tdoa.delta_const_calibrated_s + 0.0005;

  const ranging::RangingService service(config);
  math::Rng rng(0xF16'12);
  acoustics::UnitVariationModel units;
  units.speaker_stddev_db = 2.5;

  std::vector<ranging::RangingSample> samples;
  for (core::NodeId anchor : deployment.anchors) {
    const auto speaker = units.sample_speaker(acoustics::kLoudspeakerDb, rng);
    for (core::NodeId node = 0; node < deployment.size(); ++node) {
      if (node == anchor || deployment.is_anchor(node)) continue;
      const double d =
          math::distance(deployment.positions[anchor], deployment.positions[node]);
      const auto mic = units.sample_mic(rng);
      for (int round = 0; round < 5; ++round) {
        const auto est = service.measure(d, speaker, mic, rng);
        if (est) samples.push_back({anchor, node, d, *est});
      }
    }
  }

  ranging::FilterPolicy policy;
  policy.kind = ranging::FilterKind::kMedian;  // "the median operation was used"
  core::MeasurementSet measurements(deployment.size());
  for (const auto& pair : ranging::symmetric_estimates(samples, policy, 1e9)) {
    measurements.add(pair.a, pair.b, pair.distance_m);
  }
  std::printf("measured anchor links: %zu\n", measurements.edge_count());

  core::MultilaterationOptions options;
  const auto result = core::localize_by_multilateration(deployment, measurements, options, rng);
  const auto report = eval::evaluate_localization(result.positions, deployment.positions,
                                                  /*align_first=*/false, deployment.anchors);
  std::printf("localized: %zu / %zu non-anchors\n", report.localized, report.total_nodes);
  bench::print_compare("average localization error", 0.868, report.average_error_m, "m");
  std::printf("max error: %.3f m\n", report.max_error_m);
  std::puts("\npaper (Fig 12): 0.868 m average error; all nodes localized.");
  return 0;
}
