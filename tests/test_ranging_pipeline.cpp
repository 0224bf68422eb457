#include <gtest/gtest.h>

#include <cmath>

#include "math/stats.hpp"
#include "ranging/memory_model.hpp"
#include "ranging/ranging_service.hpp"
#include "ranging/statistical_filter.hpp"
#include "ranging/tdoa.hpp"
#include "sim/scenarios.hpp"

namespace {

using namespace resloc::ranging;
using resloc::math::Rng;

TEST(Tdoa, IndexDistanceRoundTrip) {
  TdoaParams params;
  for (double d : {1.0, 5.0, 10.0, 20.0}) {
    const int index = detection_index_for_distance(d, params);
    const double back = distance_from_detection_index(index, params);
    // Quantization error bounded by one sample of acoustic travel (~2.1 cm).
    EXPECT_NEAR(back, d, params.speed_of_sound_mps / params.sample_rate_hz + 1e-9);
  }
}

TEST(Tdoa, IndexZeroIsDistanceZero) {
  TdoaParams params;
  EXPECT_DOUBLE_EQ(distance_from_detection_index(0, params), 0.0);
}

TEST(Tdoa, WindowCoversRangePlusChirp) {
  TdoaParams params;
  const std::size_t samples = window_samples_for_range(20.0, 0.008, params);
  // 20 m at 340 m/s = 58.8 ms; + 8 ms chirp = 66.8 ms at 16 kHz = 1069 samples.
  EXPECT_NEAR(static_cast<double>(samples), (20.0 / 340.0 + 0.008) * 16000.0, 2.0);
}

TEST(MemoryModel, PaperRamBudget) {
  // Section 3.6.2: "for 15 samples at distances up to 20m, the service uses
  // less than 500 bytes of RAM" with 4 bits per offset.
  EXPECT_LT(hardware_detector_buffer_bytes(20.0), 500u);
  EXPECT_GT(hardware_detector_buffer_bytes(20.0), 400u);
}

TEST(MemoryModel, SoftwareDetectorIsLarger) {
  // Section 3.7: ~2 kB for 20 m at 16 kHz.
  const std::size_t software = software_detector_buffer_bytes(20.0);
  EXPECT_GT(software, 1500u);
  EXPECT_LT(software, 3000u);
  EXPECT_GT(software, 3 * hardware_detector_buffer_bytes(20.0));
}

TEST(MemoryModel, MaxRangeInverse) {
  const std::size_t bytes = hardware_detector_buffer_bytes(20.0);
  const double range = hardware_detector_max_range_m(bytes);
  EXPECT_NEAR(range, 20.0, 0.1);
}

TEST(StatisticalFilter, EmptyInput) {
  EXPECT_FALSE(filter_measurements({}, FilterPolicy{}).has_value());
}

TEST(StatisticalFilter, MedianRemovesOutlier) {
  FilterPolicy policy;
  policy.kind = FilterKind::kMedian;
  const auto result = filter_measurements({10.0, 10.1, 9.9, 44.0, 10.05}, policy);
  ASSERT_TRUE(result.has_value());
  EXPECT_NEAR(*result, 10.05, 1e-9);
}

TEST(StatisticalFilter, MaxSamplesLimitsWindow) {
  FilterPolicy policy;
  policy.kind = FilterKind::kMedian;
  policy.max_samples = 3;
  // Only the first three measurements are used (Figure 4: "up to five").
  const auto result = filter_measurements({1.0, 2.0, 3.0, 100.0, 200.0}, policy);
  EXPECT_DOUBLE_EQ(*result, 2.0);
}

TEST(StatisticalFilter, AutoSwitchesToModeWithEnoughSamples) {
  FilterPolicy policy;
  policy.kind = FilterKind::kAuto;
  // 4 samples -> median (average of the central pair).
  const auto median_result = filter_measurements({10.0, 10.1, 9.9, 20.0}, policy);
  // 7 samples (kModeMinSamples) -> mode; outliers cannot move the dominant
  // bin.
  const auto mode_result =
      filter_measurements({10.0, 10.1, 9.9, 10.05, 9.95, 20.0, 30.0}, policy);
  ASSERT_TRUE(median_result && mode_result);
  EXPECT_DOUBLE_EQ(*median_result, 10.05);
  EXPECT_NEAR(*mode_result, 10.0, 0.5);
}

TEST(StatisticalFilter, ModeNeedsMoreSamplesThanMedian) {
  // The paper: mode "is more resistant to the effects of uncorrelated
  // outliers than the median, but it needs more measurements to be
  // effective". With 3 samples and 2 outliers in one bin, mode fails where
  // median fails too, but with 5 honest + 2 outliers mode nails it.
  FilterPolicy mode_policy;
  mode_policy.kind = FilterKind::kMode;
  const auto bad = filter_measurements({10.0, 20.0, 20.1}, mode_policy);
  ASSERT_TRUE(bad.has_value());
  EXPECT_GT(*bad, 15.0);  // two correlated outliers dominate 1 honest sample
  const auto good = filter_measurements({10.0, 10.1, 9.9, 10.05, 9.95, 20.0, 20.1}, mode_policy);
  EXPECT_NEAR(*good, 10.0, 0.5);
}

// --- End-to-end ranging service ---

TEST(RangingService, ShortRangeAccurate) {
  const auto config = resloc::sim::grass_refined_ranging();
  const RangingService service(config);
  Rng rng(1);
  RangingScratch scratch;
  int detections = 0;
  double worst = 0.0;
  for (int i = 0; i < 30; ++i) {
    const auto estimate = service
                              .measure(9.0, resloc::acoustics::SpeakerUnit{},
                                       resloc::acoustics::MicUnit{}, rng, scratch)
                              .distance_m;
    if (!estimate) continue;
    ++detections;
    worst = std::max(worst, std::abs(*estimate - 9.0));
  }
  EXPECT_GE(detections, 27);
  EXPECT_LT(worst, 1.5);
}

TEST(RangingService, BeyondMaxRangeRarelyDetects) {
  const auto config = resloc::sim::grass_refined_ranging();
  const RangingService service(config);
  Rng rng(2);
  RangingScratch scratch;
  int detections = 0;
  for (int i = 0; i < 30; ++i) {
    if (service.measure(28.0, resloc::acoustics::SpeakerUnit{}, resloc::acoustics::MicUnit{},
                        rng, scratch).distance_m) {
      ++detections;
    }
  }
  EXPECT_LE(detections, 3);
}

TEST(RangingService, GrassDetectionFallsOffWithDistance) {
  const auto config = resloc::sim::grass_refined_ranging();
  const RangingService service(config);
  Rng rng(3);
  RangingScratch scratch;
  const auto rate = [&](double d) {
    int det = 0;
    for (int i = 0; i < 25; ++i) {
      if (service.measure(d, resloc::acoustics::SpeakerUnit{}, resloc::acoustics::MicUnit{},
                          rng, scratch).distance_m) {
        ++det;
      }
    }
    return det / 25.0;
  };
  EXPECT_GT(rate(10.0), 0.85);  // reliable range
  EXPECT_LT(rate(24.0), 0.25);  // beyond max range
}

TEST(RangingService, StockBuzzerShorterRangeThanLoudspeaker) {
  const auto config = resloc::sim::grass_refined_ranging();
  const RangingService service(config);
  Rng rng(4);
  RangingScratch scratch;
  resloc::acoustics::SpeakerUnit stock;
  stock.output_db = resloc::acoustics::kStockBuzzerDb;
  int stock_detections = 0;
  int loud_detections = 0;
  for (int i = 0; i < 25; ++i) {
    if (service.measure(14.0, stock, resloc::acoustics::MicUnit{}, rng, scratch).distance_m) {
      ++stock_detections;
    }
    if (service.measure(14.0, resloc::acoustics::SpeakerUnit{}, resloc::acoustics::MicUnit{},
                        rng, scratch).distance_m) {
      ++loud_detections;
    }
  }
  EXPECT_GT(loud_detections, stock_detections + 10);
}

TEST(RangingService, DiagnosticsExposeDetectionIndex) {
  const auto config = resloc::sim::grass_refined_ranging();
  const RangingService service(config);
  Rng rng(5);
  RangingScratch scratch;
  const auto attempt = service.measure(10.0, resloc::acoustics::SpeakerUnit{},
                                       resloc::acoustics::MicUnit{}, rng, scratch);
  ASSERT_TRUE(attempt.distance_m.has_value());
  EXPECT_GE(attempt.detection_index, 0);
  EXPECT_EQ(scratch.accumulator.size(), service.window_samples());
  // Detection index consistent with the returned distance.
  EXPECT_NEAR(distance_from_detection_index(attempt.detection_index, config.tdoa),
              *attempt.distance_m, 1e-9);
}

TEST(RangingService, CalibrationBiasShiftsEstimates) {
  // A miscalibrated delta_const adds a constant offset (Section 3.6:
  // "a constant offset of 10-20cm may be added to every ranging measurement").
  // The detector itself has a small distance-invariant bias (it anchors on
  // the earliest jittered chirp onset), so compare against a calibrated run.
  const auto mean_error = [](const resloc::ranging::RangingConfig& config,
                             std::uint64_t seed) {
    const RangingService service(config);
    Rng rng(seed);
    RangingScratch scratch;
    std::vector<double> errors;
    for (int i = 0; i < 60; ++i) {
      const auto estimate = service
                                .measure(8.0, resloc::acoustics::SpeakerUnit{},
                                         resloc::acoustics::MicUnit{}, rng, scratch)
                                .distance_m;
      if (estimate) errors.push_back(*estimate - 8.0);
    }
    return resloc::math::mean(errors);
  };
  auto calibrated = resloc::sim::grass_refined_ranging();
  auto biased = calibrated;
  biased.tdoa.delta_const_true_s = calibrated.tdoa.delta_const_calibrated_s + 0.0006;
  const double shift = mean_error(biased, 6) - mean_error(calibrated, 6);
  EXPECT_NEAR(shift, 0.0006 * 340.0, 0.1);  // ~20 cm
}

TEST(RangingService, BaselineProducesMoreLargeErrorsThanRefined) {
  // The Figure 2 vs Figure 6 contrast, urban environment. The refined
  // service must use the urban-calibrated thresholds ("a high threshold is
  // advantageous in noisy environments").
  const auto baseline_config = resloc::sim::urban_baseline_ranging();
  const auto refined_config = resloc::sim::urban_refined_ranging();
  const RangingService baseline(baseline_config);
  const RangingService refined(refined_config);
  Rng rng(7);
  RangingScratch scratch;
  int baseline_large = 0;
  int refined_large = 0;
  for (int i = 0; i < 60; ++i) {
    const double d = 15.0;
    const auto b = baseline
                       .measure(d, resloc::acoustics::SpeakerUnit{},
                                resloc::acoustics::MicUnit{}, rng, scratch)
                       .distance_m;
    const auto r = refined
                       .measure(d, resloc::acoustics::SpeakerUnit{},
                                resloc::acoustics::MicUnit{}, rng, scratch)
                       .distance_m;
    if (b && std::abs(*b - d) > 1.0) ++baseline_large;
    if (r && std::abs(*r - d) > 1.0) ++refined_large;
  }
  EXPECT_GT(baseline_large, refined_large);
}

}  // namespace
