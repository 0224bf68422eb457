// Per-detector detection-offset accuracy + throughput, written as
// BENCH_detector.json.
//
// The fixture family is the detection-offset harness of
// tests/test_detector_accuracy.cpp at bench scale: a zero-jitter grass
// campaign config where the true arrival sample of every trial is exactly
// detection_index_for_distance(d), so |detected - true| is measurable per
// trial with no estimation step. Two acoustic scenes:
//   - clean: line-of-sight grass propagation, distances 5..20 m;
//   - echo:  a fixed deterministic reflector 10 ms (160 samples) behind the
//     direct path and 8 dB LOUDER (a focusing surface), distances 14..20 m.
//     This is the scene that separates the detectors: the hardware interval
//     model latches the strong echo (+160 samples), the Goertzel scan drifts
//     as the direct arrival weakens, and the NCC matched filter's
//     first-arrival peak picking stays on the true onset.
//
// Offsets are pooled across distances into per-detector median/p95 records.
// Throughput is us/pair with a reused scratch at the scene's middle
// distance: the three detectors take turns within each of 9 interleaved
// reps (bench::interleave), and the record keeps the median and quartiles.
// The exit code gates the CI contract: all three detectors must produce
// records, and the NCC median |offset| on the echo scene must be strictly
// below the Goertzel median.
#include <cmath>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "acoustics/environment.hpp"
#include "bench_util.hpp"
#include "math/rng.hpp"
#include "math/stats.hpp"
#include "ranging/ranging_service.hpp"
#include "ranging/tdoa.hpp"

using namespace resloc;

namespace {

volatile double g_sink = 0.0;

/// Zero-jitter fixture: ground truth per trial is exactly
/// detection_index_for_distance(d), so offsets need no estimation.
ranging::RangingConfig fixture_config(ranging::DetectorMode mode, bool echo) {
  ranging::RangingConfig config;
  config.environment = acoustics::EnvironmentProfile::grass();
  config.environment.echo_rate = 0.0;
  config.environment.noise_burst_rate_hz = 0.0;
  if (echo) {
    config.environment.fixed_echo_lag_s = 0.010;          // 160 samples
    config.environment.fixed_echo_attenuation_db = -8.0;  // echo louder than direct
  }
  config.pattern.num_chirps = 10;
  config.pattern.chirp_duration_s = 0.008;
  config.pattern.tone_frequency_hz = 4300.0;
  config.detection = {2, 32, 6};
  config.max_window_range_m = 22.0;
  config.tdoa.sync_jitter_s = 0.0;
  config.channel_jitter.actuation_jitter_s = 0.0;
  config.tdoa.delta_const_true_s = config.tdoa.delta_const_calibrated_s;
  config.detector_mode = mode;
  return config;
}

struct DetectorRecord {
  double median_abs_offset = 0.0;  ///< samples; -1 when nothing detected
  double p95_abs_offset = 0.0;
  double detect_rate = 0.0;
  bench::Quartiles us_per_pair;
};

DetectorRecord measure_offsets(const ranging::RangingService& service,
                               const std::vector<double>& distances, int trials,
                               std::uint64_t seed) {
  std::vector<double> offsets;
  int attempts = 0;
  ranging::RangingScratch scratch;
  for (double d : distances) {
    const int expected = ranging::detection_index_for_distance(d, service.config().tdoa);
    math::Rng rng(seed);
    for (int t = 0; t < trials; ++t) {
      math::Rng stream = rng.fork(t);
      ++attempts;
      const auto attempt = service.measure(d, {}, {}, stream, scratch);
      if (!attempt.distance_m) continue;
      offsets.push_back(std::abs(static_cast<double>(attempt.detection_index - expected)));
    }
  }
  DetectorRecord record;
  record.detect_rate =
      attempts > 0 ? static_cast<double>(offsets.size()) / attempts : 0.0;
  record.median_abs_offset = offsets.empty() ? -1.0 : *math::median(std::vector<double>(offsets));
  record.p95_abs_offset = offsets.empty() ? -1.0 : *math::percentile(offsets, 95.0);
  return record;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = argc > 1 ? argv[1] : "BENCH_detector.json";
  bench::print_banner("Detector accuracy: detection offset per mode, clean vs fixed echo");

  const std::vector<double> clean_distances = {5.0, 10.0, 15.0, 20.0};
  const std::vector<double> echo_distances = {14.0, 16.0, 18.0, 20.0};
  constexpr int kTrials = 40;
  constexpr int kTimedPairs = 30;
  constexpr int kTimingReps = 9;
  constexpr std::uint64_t kCleanSeed = 0xF00D;
  constexpr std::uint64_t kEchoSeed = 0xBEEF;

  const std::vector<std::pair<std::string, ranging::DetectorMode>> modes = {
      {"hardware", ranging::DetectorMode::kHardware},
      {"goertzel", ranging::DetectorMode::kGoertzel},
      {"ncc", ranging::DetectorMode::kMatchedFilter},
  };

  bench::Json record = bench::record("bench_detector_accuracy");
  record.set("trials_per_distance", kTrials)
      .set("echo_lag_samples", 160)
      .set("echo_attenuation_db", -8)
      .set("timed_pairs", kTimedPairs)
      .set("timing_reps", kTimingReps);

  double ncc_echo_median = -1.0;
  double goertzel_echo_median = -1.0;
  std::size_t records = 0;
  for (const bool echo : {false, true}) {
    const auto& distances = echo ? echo_distances : clean_distances;
    const std::uint64_t seed = echo ? kEchoSeed : kCleanSeed;
    std::vector<ranging::RangingService> services;
    std::vector<DetectorRecord> results;
    for (const auto& mode : modes) {
      services.emplace_back(fixture_config(mode.second, echo));
      results.push_back(measure_offsets(services.back(), distances, kTrials, seed));
    }

    // Throughput: the mid-fixture distance with a reused scratch per detector.
    const double mid = distances[distances.size() / 2];
    std::vector<ranging::RangingScratch> scratches(modes.size());
    std::vector<std::function<void()>> timed;
    for (std::size_t m = 0; m < modes.size(); ++m) {
      timed.push_back([&, m] {
        math::Rng r(seed ^ 0x7157);
        double sum = 0.0;
        for (int i = 0; i < kTimedPairs; ++i) {
          sum += services[m].measure(mid, {}, {}, r, scratches[m]).distance_m.value_or(0.0);
        }
        g_sink = sum;
      });
    }
    const auto seconds = bench::interleave(kTimingReps, timed);

    std::printf("%s scene (%d trials x %zu distances)\n", echo ? "echo" : "clean", kTrials,
                distances.size());
    bench::Json scene = bench::Json::object();
    for (std::size_t m = 0; m < modes.size(); ++m) {
      DetectorRecord& r = results[m];
      r.us_per_pair = bench::quartiles(seconds[m]).scaled(1e6 / kTimedPairs);
      std::printf("  %-8s median|off| %7.1f  p95 %7.1f  detect %5.1f%%  %8.2f us/pair"
                  " (q1-q3 %.2f-%.2f)\n",
                  modes[m].first.c_str(), r.median_abs_offset, r.p95_abs_offset,
                  r.detect_rate * 100.0, r.us_per_pair.median, r.us_per_pair.q1,
                  r.us_per_pair.q3);
      scene.set(modes[m].first, bench::Json::object()
                                    .set("median_abs_offset_samples", r.median_abs_offset)
                                    .set("p95_abs_offset_samples", r.p95_abs_offset)
                                    .set("detect_rate", r.detect_rate)
                                    .set("us_per_pair", r.us_per_pair));
      if (r.median_abs_offset >= 0.0) ++records;
      if (echo && modes[m].first == "ncc") ncc_echo_median = r.median_abs_offset;
      if (echo && modes[m].first == "goertzel") goertzel_echo_median = r.median_abs_offset;
    }
    record.set(echo ? "echo" : "clean", scene);
  }

  std::printf("\nncc echo median %.1f vs goertzel %.1f samples (gate: strictly less)\n",
              ncc_echo_median, goertzel_echo_median);
  const bool written = record.write(json_path);
  return bench::exit_code(
      written, {{"a record per detector and scene", records == 2 * modes.size()},
                {"NCC echo median below Goertzel", ncc_echo_median >= 0.0 &&
                                                       goertzel_echo_median >= 0.0 &&
                                                       ncc_echo_median < goertzel_echo_median}});
}
