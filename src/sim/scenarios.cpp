#include "sim/scenarios.hpp"

#include "sim/deployments.hpp"

namespace resloc::sim {

using resloc::acoustics::EnvironmentProfile;

resloc::ranging::RangingConfig grass_refined_ranging() {
  resloc::ranging::RangingConfig config;
  config.environment = EnvironmentProfile::grass();
  config.pattern.num_chirps = 10;
  config.pattern.chirp_duration_s = 0.008;
  config.pattern.tone_frequency_hz = 4300.0;
  config.detection = {/*threshold=*/2, /*window=*/32, /*min_detections=*/6};
  config.baseline = false;
  config.verify_pattern = true;
  // The grass service's buffer covers 22 m of acoustic travel -- the paper's
  // observed maximum measurable range there (Figure 13 uses a 22 m cutoff),
  // and the basis of its <500-byte RAM budget.
  config.max_window_range_m = 22.0;
  return config;
}

resloc::ranging::RangingConfig urban_baseline_ranging() {
  resloc::ranging::RangingConfig config;
  config.environment = EnvironmentProfile::urban();
  config.pattern.num_chirps = 1;
  config.pattern.chirp_duration_s = 0.008;
  config.baseline = true;
  config.max_window_range_m = 40.0;
  return config;
}

resloc::ranging::RangingConfig urban_refined_ranging() {
  resloc::ranging::RangingConfig config = grass_refined_ranging();
  config.environment = EnvironmentProfile::urban();
  config.max_window_range_m = 35.0;
  // Urban calibration: higher accumulation threshold and denser window
  // requirement to reject the frequent wide-band noise bursts.
  config.detection = {/*threshold=*/4, /*window=*/32, /*min_detections=*/10};
  return config;
}

FieldExperimentConfig grass_campaign_config(int rounds) {
  FieldExperimentConfig config;
  config.ranging = grass_refined_ranging();
  config.rounds = rounds;
  config.filter.kind = resloc::ranging::FilterKind::kAuto;
  config.simulate_within_m = 30.0;
  return config;
}

FieldExperimentConfig urban_baseline_campaign_config(int rounds) {
  FieldExperimentConfig config;
  config.ranging = urban_baseline_ranging();
  config.rounds = rounds;
  config.filter.kind = resloc::ranging::FilterKind::kMedian;
  config.simulate_within_m = 38.0;
  return config;
}

GrassGridScenario grass_grid_scenario(std::uint64_t seed, int rounds) {
  resloc::math::Rng rng(seed);
  GrassGridScenario scenario;
  scenario.deployment = offset_grid_with_failures(/*drop_count=*/3, rng);
  scenario.data = run_field_experiment(scenario.deployment, grass_campaign_config(rounds), rng);
  scenario.measurements = scenario.data.to_measurement_set(scenario.deployment.size());
  return scenario;
}

void assign_random_anchors(resloc::core::Deployment& deployment, std::size_t count,
                           std::uint64_t seed) {
  resloc::math::Rng rng(seed);
  // choose_random_anchors clamps count to the node count, clears any previous
  // anchor set, and samples without replacement -- oversized requests and
  // repeated calls are safe rather than trusted to the caller.
  choose_random_anchors(deployment, count, rng);
}

}  // namespace resloc::sim
