// End-to-end regression lock on the acoustic ranging campaign: a fixed-seed
// 3x3 grid ranged by the full Section 3 service and localized by both
// multilateration and centralized LSS, plus the numerical equivalence of the
// Goertzel fast path against the direct DFT and the determinism/diagnosis
// guarantees of the acoustic sweep axis. Labeled `slow` in ctest: these run
// whole campaigns, not single functions.
#include <gtest/gtest.h>

#include <cmath>

#include "acoustics/signal_synth.hpp"
#include "pipeline/localization_pipeline.hpp"
#include "ranging/dft_detector.hpp"
#include "reference/dft.hpp"
#include "runner/campaign_runner.hpp"
#include "runner/sweep_spec.hpp"
#include "sim/deployments.hpp"
#include "sim/field_experiment.hpp"
#include "sim/scenarios.hpp"

namespace {

using resloc::math::Rng;
using resloc::pipeline::LocalizationPipeline;
using resloc::pipeline::MeasurementSource;
using resloc::pipeline::PipelineConfig;
using resloc::pipeline::PipelineRun;
using resloc::pipeline::Solver;

// The shared fixture: a 3x3 offset grid (spacings 9 m, everything within the
// grass service's 22 m window except the far corners) with 6 anchors -- the
// anchor density multilateration needs on a 9-node graph whose edges the
// shadowing model thins (fewer anchors flips placement on single silenced
// links, which would make the regression bound flaky rather than sharp).
resloc::core::Deployment grid3x3() {
  resloc::core::Deployment d = resloc::sim::offset_grid(3, 3);
  resloc::math::Rng rng(11);
  resloc::sim::choose_random_anchors(d, 6, rng);
  return d;
}

PipelineRun run_acoustic(Solver solver, std::uint64_t seed) {
  PipelineConfig config;
  config.source = MeasurementSource::kAcousticRanging;
  config.solver = solver;
  const LocalizationPipeline pipe(config);
  Rng rng(seed);
  return pipe.run(grid3x3(), rng);
}

TEST(AcousticRegression, MultilaterationPlacesGridWithinBounds) {
  const PipelineRun run = run_acoustic(Solver::kMultilateration, 2024);
  // Regression bounds, not aspirations: the fixed seed currently places all
  // 5 non-anchor nodes at ~0.2 m mean error; the asserted envelope leaves
  // room for legitimate model tweaks but catches a broken campaign (placement
  // collapse) or a broken detector (meter-scale error).
  EXPECT_GE(run.report.localized_fraction(), 0.8);
  EXPECT_GT(run.measurements.edge_count(), 10u);
  EXPECT_LT(run.report.average_error_m, 1.0);
}

TEST(AcousticRegression, CentralizedLssPlacesGridWithinBounds) {
  const PipelineRun run = run_acoustic(Solver::kCentralizedLss, 2024);
  EXPECT_GE(run.report.localized_fraction(), 0.8);
  EXPECT_LT(run.report.average_error_m, 1.5);
  EXPECT_TRUE(std::isfinite(run.stress));
}

TEST(AcousticRegression, GoertzelMatchesDirectDftOnSharedTones) {
  // One noisy capture with in-band chirps, run through both filters at two
  // different bins; the sliding recurrence must track the direct sum to
  // better than 1e-9 in magnitude at every sample.
  resloc::acoustics::WaveformSpec spec;
  spec.tone_frequency_hz = 4300.0;
  spec.tone_amplitude = 1.0;
  spec.noise_stddev = 0.5;
  Rng rng(0xD1F7);
  const std::vector<double> wave = resloc::acoustics::synthesize_waveform(
      spec, resloc::acoustics::periodic_chirps(8, 50, 420, 128), 4096, rng);

  for (const int bin : {9, 10, 6}) {
    resloc::reference::DirectDftFilter direct(resloc::ranging::SlidingDftFilter::kWindow, bin);
    resloc::ranging::GoertzelSlidingFilter fast(resloc::ranging::SlidingDftFilter::kWindow, bin);
    double max_delta = 0.0;
    for (double s : wave) {
      const double d = std::abs(std::sqrt(direct.step(s)) - std::sqrt(fast.step(s)));
      if (d > max_delta) max_delta = d;
    }
    EXPECT_LT(max_delta, 1e-9) << "bin " << bin;
  }
}

TEST(AcousticRegression, GoertzelBinFourMatchesFigureNineBand) {
  // At bin 9 of 36 (= fs/4) the generic recurrence reproduces the
  // multiplication-free Figure 9 band power exactly (up to rounding).
  resloc::acoustics::WaveformSpec spec;
  spec.tone_frequency_hz = 4000.0;
  spec.tone_amplitude = 1.0;
  spec.noise_stddev = 0.3;
  Rng rng(0xF19);
  const std::vector<double> wave = resloc::acoustics::synthesize_waveform(
      spec, resloc::acoustics::periodic_chirps(4, 64, 400, 128), 2048, rng);

  resloc::ranging::SlidingDftFilter fig9;
  resloc::ranging::GoertzelSlidingFilter fast(resloc::ranging::SlidingDftFilter::kWindow, 9);
  for (double s : wave) {
    const double band = fig9.filter(s).band_fs4;
    const double power = fast.step(s);
    EXPECT_NEAR(std::sqrt(band), std::sqrt(power), 1e-9);
  }
}

TEST(AcousticRegression, SoftwareDetectorRangesShortDistances) {
  // Section 3.7 mode: the mic is sampled raw and the Goertzel tone detector
  // produces the binary series. The refined pattern detection on top must
  // still range a 5 m grass link reliably and to sub-meter accuracy.
  resloc::ranging::RangingConfig config;
  config.detector_mode = resloc::ranging::DetectorMode::kGoertzel;
  const resloc::ranging::RangingService service(config);
  const resloc::acoustics::SpeakerUnit speaker;
  const resloc::acoustics::MicUnit mic;
  Rng rng(0x507F);
  resloc::ranging::RangingScratch scratch;

  const double true_distance_m = 5.0;
  int detected = 0;
  double total_abs_error_m = 0.0;
  for (int i = 0; i < 12; ++i) {
    const auto estimate = service.measure(true_distance_m, speaker, mic, rng, scratch).distance_m;
    if (!estimate) continue;
    ++detected;
    total_abs_error_m += std::abs(*estimate - true_distance_m);
  }
  ASSERT_GE(detected, 8);
  EXPECT_LT(total_abs_error_m / static_cast<double>(detected), 1.0);
}

TEST(AcousticRegression, SoftwareDetectorSharedScratchMatchesFresh) {
  // A scratch reused across sequences must stay draw-for-draw identical to
  // a fresh one per sequence in software-detector mode too.
  resloc::ranging::RangingConfig config;
  config.detector_mode = resloc::ranging::DetectorMode::kGoertzel;
  const resloc::ranging::RangingService service(config);
  const resloc::acoustics::SpeakerUnit speaker;
  const resloc::acoustics::MicUnit mic;
  resloc::ranging::RangingScratch scratch;
  for (int i = 0; i < 4; ++i) {
    Rng rng_a(77 + i);
    Rng rng_b(77 + i);
    resloc::ranging::RangingScratch fresh_scratch;
    const auto fresh = service.measure(8.0, speaker, mic, rng_a, fresh_scratch).distance_m;
    const auto reused = service.measure(8.0, speaker, mic, rng_b, scratch).distance_m;
    EXPECT_EQ(fresh.has_value(), reused.has_value());
    if (fresh && reused) {
      EXPECT_DOUBLE_EQ(*fresh, *reused);
    }
  }
}

TEST(AcousticRegression, FieldExperimentSurfacesSkippedPairs) {
  // Two nodes 5 m apart plus one 200 m away: both far pairs must be counted
  // as skipped (once per unordered pair, not per round or direction), and the
  // count must ride through the pipeline into the run diagnostics.
  resloc::core::Deployment d;
  d.positions = {{0.0, 0.0}, {5.0, 0.0}, {200.0, 0.0}};
  resloc::sim::FieldExperimentConfig config = resloc::sim::grass_campaign_config(/*rounds=*/2);

  Rng rng(3);
  const resloc::sim::FieldExperimentData data =
      resloc::sim::run_field_experiment(d, config, rng);
  EXPECT_EQ(data.skipped_pairs, 2u);

  PipelineConfig pc;
  pc.source = MeasurementSource::kAcousticRanging;
  pc.campaign = config;
  pc.solver = Solver::kCentralizedLss;
  Rng rng2(3);
  const PipelineRun run = LocalizationPipeline(pc).run(d, rng2);
  EXPECT_EQ(run.skipped_pairs, 2u);

  // And it lands in the per-trial outcome / serialized aggregates.
  resloc::runner::SweepSpec spec;
  spec.name = "skip";
  spec.seed = 3;
  spec.trials_per_cell = 1;
  spec.base = pc;
  spec.axes.scenarios = {"wooded_patch"};  // 60 x 60 m field, 30 m cutoff
  spec.axes.solvers = {Solver::kCentralizedLss};
  spec.axes.anchor_counts = {0};
  const auto result = resloc::runner::CampaignRunner(resloc::runner::RunnerOptions{1}).run(spec);
  ASSERT_EQ(result.trials.size(), 1u);
  ASSERT_TRUE(result.trials[0].ok);
  EXPECT_GT(result.trials[0].skipped_pairs, 0u);
  EXPECT_NE(result.to_json().find("\"mean_skipped_pairs\": "), std::string::npos);
  EXPECT_NE(result.to_csv().find("mean_skipped_pairs"), std::string::npos);
}

TEST(AcousticRegression, AcousticSweepDeterministicAcrossThreads) {
  // The PR-2 invariant extended to the acoustic axis: a sweep over terrain x
  // chirp count serializes byte-identically at any thread count.
  resloc::runner::SweepSpec spec;
  spec.name = "acoustic-det";
  spec.seed = 99;
  spec.trials_per_cell = 2;
  spec.base.source = MeasurementSource::kAcousticRanging;
  spec.axes.scenarios = {"offset_grid"};
  spec.axes.node_counts = {9};
  spec.axes.anchor_counts = {4};
  spec.axes.environments = {"grass", "pavement"};
  spec.axes.chirp_counts = {5, 10};

  const auto serial = resloc::runner::CampaignRunner(resloc::runner::RunnerOptions{1}).run(spec);
  const auto parallel = resloc::runner::CampaignRunner(resloc::runner::RunnerOptions{4}).run(spec);
  EXPECT_EQ(serial.to_json(), parallel.to_json());
  EXPECT_EQ(serial.to_csv(), parallel.to_csv());
  ASSERT_EQ(serial.cells.size(), 4u);
  for (const auto& cell : serial.cells) EXPECT_EQ(cell.aggregate.ok_trials, 2u);
}

TEST(AcousticRegression, EnvironmentAxisChangesOutcomes) {
  // The axis must actually reach the campaign: urban terrain (echo-rich,
  // noisy) and grass terrain may not produce identical aggregates.
  resloc::runner::SweepSpec spec;
  spec.name = "env-effect";
  spec.seed = 5;
  spec.trials_per_cell = 1;
  spec.base.source = MeasurementSource::kAcousticRanging;
  spec.axes.scenarios = {"offset_grid"};
  spec.axes.node_counts = {9};
  spec.axes.anchor_counts = {4};
  spec.axes.environments = {"grass", "urban"};
  const auto result = resloc::runner::CampaignRunner(resloc::runner::RunnerOptions{2}).run(spec);
  ASSERT_EQ(result.trials.size(), 2u);
  ASSERT_TRUE(result.trials[0].ok);
  ASSERT_TRUE(result.trials[1].ok);
  EXPECT_NE(result.trials[0].measured_edges, result.trials[1].measured_edges);
}

TEST(AcousticRegression, OutOfRangeAxisValuesFailTrialNotCampaign) {
  // A chirp count past the 4-bit counter cap would be paid for but never
  // recorded, and the "scenario" environment value has nothing to resolve on
  // a scenario without a canonical site -- both must fail the trial loudly
  // instead of silently sweeping something other than the label claims.
  resloc::runner::SweepSpec chirp_spec;
  chirp_spec.name = "chirp-cap";
  chirp_spec.seed = 1;
  chirp_spec.trials_per_cell = 1;
  chirp_spec.base.source = MeasurementSource::kAcousticRanging;
  chirp_spec.axes.scenarios = {"offset_grid"};
  chirp_spec.axes.node_counts = {9};
  chirp_spec.axes.chirp_counts = {20};
  const auto chirp_result =
      resloc::runner::CampaignRunner(resloc::runner::RunnerOptions{1}).run(chirp_spec);
  ASSERT_EQ(chirp_result.trials.size(), 1u);
  EXPECT_FALSE(chirp_result.trials[0].ok);
  EXPECT_NE(chirp_result.trials[0].error.find("counter cap"), std::string::npos);

  resloc::runner::SweepSpec env_spec;
  env_spec.name = "no-canonical-env";
  env_spec.seed = 1;
  env_spec.trials_per_cell = 1;
  env_spec.base.source = MeasurementSource::kAcousticRanging;
  env_spec.axes.scenarios = {"random_uniform"};  // no canonical site
  env_spec.axes.node_counts = {9};
  env_spec.axes.environments = {"scenario"};
  const auto env_result =
      resloc::runner::CampaignRunner(resloc::runner::RunnerOptions{1}).run(env_spec);
  ASSERT_EQ(env_result.trials.size(), 1u);
  EXPECT_FALSE(env_result.trials[0].ok);
  EXPECT_NE(env_result.trials[0].error.find("canonical environment"), std::string::npos);
}

TEST(AcousticRegression, UnknownEnvironmentFailsTrialNotCampaign) {
  resloc::runner::SweepSpec spec;
  spec.name = "bad-env";
  spec.seed = 1;
  spec.trials_per_cell = 1;
  spec.base.source = MeasurementSource::kAcousticRanging;
  spec.axes.scenarios = {"offset_grid"};
  spec.axes.node_counts = {9};
  spec.axes.environments = {"moon"};
  const auto result = resloc::runner::CampaignRunner(resloc::runner::RunnerOptions{1}).run(spec);
  ASSERT_EQ(result.trials.size(), 1u);
  EXPECT_FALSE(result.trials[0].ok);
  EXPECT_NE(result.trials[0].error.find("moon"), std::string::npos);
}

}  // namespace
