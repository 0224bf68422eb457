// Detection-offset accuracy harness: the lock on the matched-filter detector
// and the robust measurement filtering.
//
// Every fixture here is zero-jitter (sync_jitter = actuation_jitter = 0,
// delta_const_true == calibrated), so the ground-truth arrival sample of a
// trial is exactly ranging::detection_index_for_distance(d) and the detection
// offset |detected - truth| is measurable per trial with no estimation step.
// Two scene families:
//   - clean: line-of-sight grass propagation;
//   - fixed echo: a deterministic reflector fixed_echo_lag_s = 10 ms
//     (160 samples at 16 kHz) behind the direct path and 8 dB LOUDER (a
//     focusing surface). The constant lag survives the accumulation pattern
//     -- random inter-chirp delays cannot decorrelate it -- which makes it
//     the adversarial scene the three detector front ends disagree on.
//
// Seeds and scene parameters are shared with bench_detector_accuracy so the
// CI gate and this harness pin the same distributions.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <vector>

#include "acoustics/environment.hpp"
#include "math/geometry.hpp"
#include "math/rng.hpp"
#include "math/stats.hpp"
#include "ranging/ranging_service.hpp"
#include "ranging/tdoa.hpp"
#include "sim/field_experiment.hpp"
#include "sim/scenarios.hpp"

namespace {

using resloc::ranging::DetectorMode;

/// Zero-jitter grass fixture; ambient interference off so the echo under test
/// is the only adversary.
resloc::ranging::RangingConfig fixture_config(DetectorMode mode, bool fixed_echo) {
  resloc::ranging::RangingConfig config;
  config.environment = resloc::acoustics::EnvironmentProfile::grass();
  config.environment.echo_rate = 0.0;
  config.environment.noise_burst_rate_hz = 0.0;
  if (fixed_echo) {
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

struct OffsetSummary {
  double median_abs = -1.0;   ///< -1 when nothing was detected
  double median_signed = 0.0;
  int detections = 0;
  int attempts = 0;
};

/// Per-trial |detection index - true index| over fixed-seed substreams.
OffsetSummary offset_summary(const resloc::ranging::RangingConfig& config,
                             const std::vector<double>& distances, int trials,
                             std::uint64_t seed, double mic_sensitivity_db = 0.0) {
  const resloc::ranging::RangingService service(config);
  resloc::acoustics::MicUnit mic;
  mic.sensitivity_db = mic_sensitivity_db;
  OffsetSummary summary;
  std::vector<double> abs_offsets;
  std::vector<double> signed_offsets;
  resloc::ranging::RangingScratch scratch;
  for (const double d : distances) {
    const int expected = resloc::ranging::detection_index_for_distance(d, config.tdoa);
    resloc::math::Rng rng(seed);
    for (int t = 0; t < trials; ++t) {
      resloc::math::Rng stream = rng.fork(t);
      ++summary.attempts;
      const auto attempt = service.measure(d, {}, mic, stream, scratch);
      if (!attempt.distance_m) continue;
      ++summary.detections;
      const double off = attempt.detection_index - expected;
      abs_offsets.push_back(std::abs(off));
      signed_offsets.push_back(off);
    }
  }
  if (!abs_offsets.empty()) {
    summary.median_abs = *resloc::math::median(std::move(abs_offsets));
    summary.median_signed = *resloc::math::median(std::move(signed_offsets));
  }
  return summary;
}

const std::vector<double> kEchoDistances = {14.0, 16.0, 18.0, 20.0};
constexpr int kTrials = 30;
constexpr std::uint64_t kCleanSeed = 0xF00D;
constexpr std::uint64_t kEchoSeed = 0xBEEF;

// --- The acceptance inequality: NCC beats the software tone detector ---

TEST(DetectorAccuracy, NccMedianOffsetStrictlyBelowGoertzelOnEchoFixtures) {
  const auto goertzel = offset_summary(fixture_config(DetectorMode::kGoertzel, true),
                                       kEchoDistances, kTrials, kEchoSeed);
  const auto ncc = offset_summary(fixture_config(DetectorMode::kMatchedFilter, true),
                                  kEchoDistances, kTrials, kEchoSeed);
  ASSERT_GT(goertzel.detections, 0);
  ASSERT_GT(ncc.detections, 0);
  // The tentpole claim, strict: matched-filter peak picking stays on the true
  // first arrival where the per-sample Goertzel scan drifts.
  EXPECT_LT(ncc.median_abs, goertzel.median_abs);
  // Fixed-seed regression pins (probed margins ~4x): NCC holds sample-level
  // accuracy; the Goertzel median sits multiple samples off on this scene.
  EXPECT_LE(ncc.median_abs, 2.0);
  EXPECT_GE(goertzel.median_abs, 2.0);
  // Both software detectors must actually detect: an accuracy win at a lower
  // detection rate would be a false victory.
  EXPECT_EQ(ncc.detections, ncc.attempts);
  EXPECT_EQ(goertzel.detections, goertzel.attempts);
}

TEST(DetectorAccuracy, NccHoldsSampleAccuracyOnCleanFixtures) {
  const std::vector<double> distances = {5.0, 10.0, 15.0, 20.0};
  const auto ncc = offset_summary(fixture_config(DetectorMode::kMatchedFilter, false),
                                  distances, kTrials, kCleanSeed);
  EXPECT_EQ(ncc.detections, ncc.attempts);
  EXPECT_LE(ncc.median_abs, 2.0);
}

// --- Known-position fixtures: offset = detected - actual ---
//
// In the shape of a chirp-detection test suite: the direct arrival is placed
// at a list of known sample positions spread over the window, and every
// trial's offset is detected minus actual. The median pins above say where
// NCC's offsets sit; these pin how far its worst 5% stray.

struct PositionOffsets {
  std::vector<double> abs_offsets;  ///< |detected - actual| per detected trial
  int attempts = 0;
};

/// Runs `trials` fixed-seed exchanges with the direct-path onset at each of
/// `positions` (in samples), placing the source mid-sample so the true onset
/// index is exactly the position.
PositionOffsets offsets_at_positions(const resloc::ranging::RangingConfig& config,
                                     const std::vector<int>& positions, int trials,
                                     std::uint64_t seed) {
  const resloc::ranging::RangingService service(config);
  PositionOffsets out;
  resloc::ranging::RangingScratch scratch;
  for (const int actual : positions) {
    const double d = config.tdoa.speed_of_sound_mps * (actual + 0.5) / config.tdoa.sample_rate_hz;
    EXPECT_EQ(resloc::ranging::detection_index_for_distance(d, config.tdoa), actual);
    resloc::math::Rng rng(seed);
    for (int t = 0; t < trials; ++t) {
      resloc::math::Rng stream = rng.fork(t);
      ++out.attempts;
      const auto attempt = service.measure(d, {}, {}, stream, scratch);
      if (attempt.distance_m) out.abs_offsets.push_back(std::abs(attempt.detection_index - actual));
    }
  }
  return out;
}

TEST(DetectorAccuracy, NccKnownPositionOffsetP95OnCleanScene) {
  const auto ncc = offsets_at_positions(fixture_config(DetectorMode::kMatchedFilter, false),
                                        {100, 250, 400, 550, 700, 850}, kTrials, kCleanSeed);
  EXPECT_EQ(static_cast<int>(ncc.abs_offsets.size()), ncc.attempts);
  ASSERT_FALSE(ncc.abs_offsets.empty());
  EXPECT_LE(*resloc::math::percentile(ncc.abs_offsets, 95.0), 2.0);
}

TEST(DetectorAccuracy, NccKnownPositionOffsetP95OnEchoScene) {
  // 14-20 m: the band where the louder echo 160 samples behind is the
  // adversary (see NccMedianOffsetStrictlyBelowGoertzelOnEchoFixtures).
  const auto ncc = offsets_at_positions(fixture_config(DetectorMode::kMatchedFilter, true),
                                        {660, 710, 760, 810, 860, 910}, kTrials, kEchoSeed);
  EXPECT_EQ(static_cast<int>(ncc.abs_offsets.size()), ncc.attempts);
  ASSERT_FALSE(ncc.abs_offsets.empty());
  EXPECT_LE(*resloc::math::percentile(ncc.abs_offsets, 95.0), 2.0);
}

// --- Echo-injection properties ---

TEST(DetectorAccuracy, HardwareDetectorLatchesLouderEchoByExpectedLag) {
  // With the direct arrival pushed near the hardware front end's detection
  // floor (mic -6 dB, 18-20 m) and the echo 8 dB louder, the interval
  // detector locks the echo: the signed detection offset lands at the
  // injected lag (160 samples), not at zero. This is the unfiltered-
  // detection shift the robust filters exist for.
  const auto hw = offset_summary(fixture_config(DetectorMode::kHardware, true),
                                 {18.0, 20.0}, kTrials, kEchoSeed,
                                 /*mic_sensitivity_db=*/-6.0);
  ASSERT_GT(hw.detections, 0);
  EXPECT_NEAR(hw.median_signed, 160.0, 10.0);
}

TEST(DetectorAccuracy, NccRecoversTrueFirstArrivalDespiteLouderEcho) {
  // Same scene: NCC's leftmost-peak rule keeps the weaker-but-first direct
  // correlation peak instead of the stronger echo peak.
  const auto ncc = offset_summary(fixture_config(DetectorMode::kMatchedFilter, true),
                                  {18.0, 20.0}, kTrials, kEchoSeed);
  EXPECT_EQ(ncc.detections, ncc.attempts);
  EXPECT_NEAR(ncc.median_signed, 0.0, 2.0);
}

TEST(DetectorAccuracy, NccFallsBackToEchoOnlyWhenDirectIsBelowFloor) {
  // Drop the mic 12 dB: the direct arrival sinks below even the matched
  // filter's ~-6 dB operating point, and the only detectable arrival IS the
  // echo. NCC then reports the echo onset (offset ~ lag), pinning where its
  // processing-gain advantage ends.
  resloc::ranging::RangingConfig config =
      fixture_config(DetectorMode::kMatchedFilter, true);
  config.environment.fixed_echo_attenuation_db = -10.0;
  const auto ncc = offset_summary(config, {15.0}, kTrials, 0xCAFE,
                                  /*mic_sensitivity_db=*/-12.0);
  ASSERT_GT(ncc.detections, 0);
  EXPECT_NEAR(ncc.median_signed, 160.0, 10.0);
  // At -9 dB the direct path is still above the NCC floor and wins.
  const auto still_direct = offset_summary(config, {15.0}, kTrials, 0xCAFE,
                                           /*mic_sensitivity_db=*/-9.0);
  EXPECT_NEAR(still_direct.median_signed, 0.0, 3.0);
}

// --- Unknown-mode failure paths ---

TEST(DetectorAccuracy, UnknownDetectorNameThrowsNamingTheValue) {
  try {
    resloc::ranging::detector_mode_by_name("fancy");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("fancy"), std::string::npos) << what;
    EXPECT_NE(what.find("ncc"), std::string::npos) << what;
  }
}

TEST(DetectorAccuracy, OutOfRangeDetectorEnumThrowsInServiceConstructor) {
  resloc::ranging::RangingConfig config = fixture_config(DetectorMode::kHardware, false);
  config.detector_mode = static_cast<DetectorMode>(99);
  try {
    const resloc::ranging::RangingService service(config);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("99"), std::string::npos) << what;
  }
}

TEST(DetectorAccuracy, DetectorModeNamesRoundTrip) {
  for (const auto mode : {DetectorMode::kHardware, DetectorMode::kGoertzel,
                          DetectorMode::kMatchedFilter}) {
    EXPECT_EQ(resloc::ranging::detector_mode_by_name(
                  resloc::ranging::detector_mode_name(mode)),
              mode);
  }
  // The service runs the configured front end.
  resloc::ranging::RangingConfig config = fixture_config(DetectorMode::kHardware, false);
  config.detector_mode = DetectorMode::kGoertzel;
  const resloc::ranging::RangingService service(config);
  EXPECT_EQ(service.detector_mode(), DetectorMode::kGoertzel);
}

// --- Robust filtering cuts the 22-30 m error tail ---

TEST(DetectorAccuracy, RobustFiltersCutLongLinkErrorTailOnEchoHostileCampaign) {
  // Baseline single-chirp urban campaign (no accumulation pattern, so random
  // echoes and noise bursts survive into individual measurements -- the
  // paper's Figure 4 regime) over a 4x3 grid with 10 m spacing: link true
  // distances reach ~36 m, and the 22-30 m band is where weak direct
  // arrivals lose to interference. The consistency vote drops links with no
  // repeatable distance and MAD trims round-to-round stragglers; plain
  // median averaging keeps them all.
  resloc::core::Deployment dep;
  for (int y = 0; y < 3; ++y) {
    for (int x = 0; x < 4; ++x) dep.positions.push_back({10.0 * x, 10.0 * y});
  }
  resloc::sim::FieldExperimentConfig config =
      resloc::sim::urban_baseline_campaign_config(/*rounds=*/5);
  config.simulate_within_m = 32.0;

  resloc::math::Rng rng(0x22AA);
  const auto data = resloc::sim::run_field_experiment(dep, config, rng);

  resloc::ranging::FilterPolicy plain;
  plain.kind = resloc::ranging::FilterKind::kMedian;
  resloc::ranging::FilterPolicy robust = plain;
  robust.consistency_vote = true;
  robust.mad_reject = true;

  struct Band {
    double mean = 0.0;
    double worst = 0.0;
    int links = 0;
  };
  const auto band_error = [&](const resloc::ranging::FilterPolicy& policy) {
    Band band;
    double sum = 0.0;
    for (const auto& p : resloc::ranging::symmetric_estimates(data.samples, policy, 1.0)) {
      const double truth =
          resloc::math::distance(dep.positions[p.a], dep.positions[p.b]);
      if (truth < 22.0 || truth > 30.0) continue;
      const double err = std::abs(p.distance_m - truth);
      sum += err;
      band.worst = std::max(band.worst, err);
      ++band.links;
    }
    band.mean = band.links > 0 ? sum / band.links : -1.0;
    return band;
  };

  const Band unfiltered = band_error(plain);
  const Band filtered = band_error(robust);
  ASSERT_GT(unfiltered.links, 5);
  ASSERT_GT(filtered.links, 5);
  // The improvement claim, strict, plus fixed-seed regression bounds with
  // ~2x margin on the probed values (plain mean 4.9 m / worst 26.4 m,
  // robust mean 0.47 m / worst 1.36 m at seed 0x22AA).
  EXPECT_LT(filtered.mean, unfiltered.mean);
  EXPECT_LT(filtered.worst, unfiltered.worst);
  EXPECT_GT(unfiltered.mean, 2.0);
  EXPECT_LT(filtered.mean, 1.0);
  EXPECT_GT(unfiltered.worst, 10.0);
  EXPECT_LT(filtered.worst, 3.0);
  // The vote is doing real work: some long links end with no consensus at
  // all and are dropped rather than estimated from garbage.
  const auto report = resloc::ranging::robust_report(data.samples, robust);
  EXPECT_GT(report.vote_rejected, 0u);
  EXPECT_GT(report.pairs_without_consensus, 0u);
}

// --- Byte-identity guard: the robust-filter machinery off = the old path ---

TEST(DetectorAccuracy, DefaultPolicyCampaignUnchangedByRobustMachinery) {
  // A grass campaign with the default (all-off) policy must produce exactly
  // the same filtered estimates as before the robust stages existed; the
  // statistical filter only changes behaviour when a policy opts in. (The
  // golden acoustic fixtures enforce this end to end; this is the targeted
  // unit-level version with a nonzero-vote policy as the contrast.)
  resloc::core::Deployment dep;
  for (int y = 0; y < 2; ++y) {
    for (int x = 0; x < 3; ++x) dep.positions.push_back({8.0 * x, 8.0 * y});
  }
  resloc::sim::FieldExperimentConfig config = resloc::sim::grass_campaign_config(3);
  resloc::math::Rng rng(0x900D);
  const auto data = resloc::sim::run_field_experiment(dep, config, rng);
  const auto defaults =
      resloc::ranging::symmetric_estimates(data.samples, resloc::ranging::FilterPolicy{}, 1.0);
  const auto campaign = data.filtered;
  ASSERT_EQ(defaults.size(), campaign.size());
  for (std::size_t i = 0; i < defaults.size(); ++i) {
    EXPECT_EQ(defaults[i].a, campaign[i].a);
    EXPECT_EQ(defaults[i].b, campaign[i].b);
    EXPECT_DOUBLE_EQ(defaults[i].distance_m, campaign[i].distance_m);
  }
}

}  // namespace
