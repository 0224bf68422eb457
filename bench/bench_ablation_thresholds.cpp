// Ablation A3: detection threshold calibration (Section 3.6).
//
// "A high threshold is advantageous in noisy environments to limit false
// positives. On the other hand, a low threshold is more appropriate in
// quieter settings as it reduces false negatives." Sweep (T, k) on grass
// (quiet) and urban (noisy) and report detection rate at range plus the
// false/large-error rate.
#include <cmath>
#include <cstdio>

#include "bench_util.hpp"
#include "eval/report.hpp"
#include "ranging/ranging_service.hpp"
#include "sim/scenarios.hpp"

using namespace resloc;

namespace {

struct SweepRow {
  double detect_rate;
  double large_error_rate;
};

SweepRow sweep(const ranging::RangingConfig& base, int threshold, int min_detections,
               double distance, std::uint64_t seed) {
  ranging::RangingConfig config = base;
  config.detection.threshold = threshold;
  config.detection.min_detections = min_detections;
  const ranging::RangingService service(config);
  math::Rng rng(seed);
  ranging::RangingScratch scratch;
  int detections = 0;
  int large = 0;
  const int trials = 50;
  for (int i = 0; i < trials; ++i) {
    const auto est =
        service.measure(distance, acoustics::SpeakerUnit{}, acoustics::MicUnit{}, rng, scratch)
            .distance_m;
    if (!est) continue;
    ++detections;
    if (std::abs(*est - distance) > 1.0) ++large;
  }
  return {static_cast<double>(detections) / trials,
          detections ? static_cast<double>(large) / detections : 0.0};
}

}  // namespace

int main() {
  bench::print_banner("Ablation A3 -- detection thresholds (T, k of 32) by environment");

  const auto grass = sim::grass_refined_ranging();
  auto urban = sim::urban_refined_ranging();

  eval::Table table(
      {"T", "k", "grass@16m det%", "grass err>1m%", "urban@16m det%", "urban err>1m%"});
  const std::vector<std::pair<int, int>> settings{{1, 4}, {2, 6}, {3, 8}, {4, 10}, {6, 14}};
  for (const auto& [t, k] : settings) {
    const auto g = sweep(grass, t, k, 16.0, 0xAB'31);
    const auto u = sweep(urban, t, k, 16.0, 0xAB'32);
    table.add_row({std::to_string(t), std::to_string(k), eval::fmt(100.0 * g.detect_rate, 0),
                   eval::fmt(100.0 * g.large_error_rate, 0), eval::fmt(100.0 * u.detect_rate, 0),
                   eval::fmt(100.0 * u.large_error_rate, 0)});
  }
  std::fputs(table.to_string().c_str(), stdout);
  std::puts(
      "\npaper shape: low thresholds maximize range in quiet environments but\n"
      "admit false detections in noisy ones; the urban site needs the higher\n"
      "(T, k) operating point, trading a little range for reliability.");
  return 0;
}
