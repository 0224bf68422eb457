#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "acoustics/signal_synth.hpp"
#include "math/constants.hpp"
#include "math/rng.hpp"
#include "ranging/dft_detector.hpp"
#include "ranging/signal_detection.hpp"
#include "reference/ranging.hpp"

namespace {

using namespace resloc::ranging;
using resloc::math::Rng;
using resloc::reference::accumulator_from_counts;
using resloc::reference::counts_of;

/// Records one chirp given as one 0/1 byte per sample.
void record(SignalAccumulator& acc, const std::vector<std::uint8_t>& fired) {
  acc.record_chirp(resloc::reference::fired_mask({fired.begin(), fired.end()}).data());
}

TEST(SignalAccumulator, AccumulatesAcrossChirps) {
  SignalAccumulator acc(4);
  record(acc, {1, 0, 1, 0});
  record(acc, {1, 1, 0, 0});
  record(acc, {1, 0, 0, 1});
  EXPECT_EQ(counts_of(acc), (std::vector<std::uint8_t>{3, 1, 1, 1}));
  EXPECT_EQ(acc.chirps_recorded(), 3);
}

TEST(SignalAccumulator, SaturatesAtFourBits) {
  SignalAccumulator acc(1);
  for (int i = 0; i < 20; ++i) record(acc, {1});
  EXPECT_EQ(acc.count(0), 15);  // 4-bit counter cap
  EXPECT_EQ(acc.chirps_recorded(), SignalAccumulator::kMaxChirps);
}

TEST(SignalAccumulator, BitPlanesMatchByteCounters) {
  // Random fired masks, garbage past n included, against a per-sample byte
  // counter that ignores chirps past the 4-bit cap.
  Rng rng(0xB175, 3);
  for (const std::size_t n : {1u, 63u, 64u, 65u, 2011u}) {
    const std::size_t words = (n + 63) / 64;
    for (int trial = 0; trial < 20; ++trial) {
      const int chirps = static_cast<int>(rng.uniform_int(1, 19));
      const double density = rng.uniform(0.0, 1.0);
      SignalAccumulator acc(n);
      std::vector<std::uint8_t> expect(n, 0);
      for (int chirp = 0; chirp < chirps; ++chirp) {
        std::vector<std::uint64_t> fired(words, 0);
        for (std::size_t i = 0; i < 64 * words; ++i) {
          if (!rng.bernoulli(density)) continue;
          fired[i / 64] |= std::uint64_t{1} << (i % 64);
          if (i < n && chirp < SignalAccumulator::kMaxChirps) ++expect[i];
        }
        acc.record_chirp(fired.data());
      }
      ASSERT_EQ(counts_of(acc), expect) << "n=" << n << " trial=" << trial;
      ASSERT_EQ(acc.chirps_recorded(), std::min(chirps, SignalAccumulator::kMaxChirps));
      for (int t = -1; t <= 17; ++t) {
        std::vector<std::uint64_t> mask(words, 0xA5A5A5A5A5A5A5A5ULL);
        acc.at_least(t, mask.data());
        for (std::size_t i = 0; i < 64 * words; ++i) {
          const bool bit = (mask[i / 64] >> (i % 64)) & 1u;
          ASSERT_EQ(bit, i < n && expect[i] >= t)
              << "n=" << n << " trial=" << trial << " t=" << t << " i=" << i;
        }
      }
    }
  }
}

/// The scanner's first candidate at or after `start_index`: the paper's
/// detect-signal restarted there.
int detect_signal(const std::vector<std::uint8_t>& samples, const DetectionParams& params,
                  int start_index = 0) {
  SignalScanner scanner(accumulator_from_counts(samples), params);
  int index = scanner.next();
  while (index >= 0 && index < start_index) index = scanner.next();
  return index;
}

/// The scanner's pattern verification at accumulation threshold `threshold`.
bool verify_preceding_silence(const std::vector<std::uint8_t>& samples, int index, int gap,
                              int threshold, int max_noisy) {
  return SignalScanner(accumulator_from_counts(samples), {threshold, 1, 1})
      .quiet_before(index, gap, max_noisy);
}

TEST(DetectSignal, FindsWindowStart) {
  // Counts: quiet until index 10, then strong.
  std::vector<std::uint8_t> samples(40, 0);
  for (int i = 10; i < 40; ++i) samples[static_cast<std::size_t>(i)] = 5;
  DetectionParams params{/*threshold=*/2, /*window=*/8, /*min_detections=*/4};
  EXPECT_EQ(detect_signal(samples, params), 10);
}

TEST(DetectSignal, RequiresWindowDensity) {
  // A single spike is not enough when k > 1.
  std::vector<std::uint8_t> samples(64, 0);
  samples[20] = 9;
  DetectionParams params{2, 8, 4};
  EXPECT_EQ(detect_signal(samples, params), -1);
}

TEST(DetectSignal, IgnoresSubThresholdCounts) {
  std::vector<std::uint8_t> samples(64, 1);  // everything below T=2
  DetectionParams params{2, 8, 4};
  EXPECT_EQ(detect_signal(samples, params), -1);
}

TEST(DetectSignal, WindowStartMustQualify) {
  // Dense block starting at 12; index 11 is quiet, so detection anchors at 12.
  std::vector<std::uint8_t> samples(64, 0);
  for (int i = 12; i < 30; ++i) samples[static_cast<std::size_t>(i)] = 3;
  DetectionParams params{2, 8, 4};
  EXPECT_EQ(detect_signal(samples, params), 12);
}

TEST(DetectSignal, StartIndexSkipsEarlyCandidates) {
  std::vector<std::uint8_t> samples(80, 0);
  for (int i = 5; i < 15; ++i) samples[static_cast<std::size_t>(i)] = 3;   // first burst
  for (int i = 40; i < 60; ++i) samples[static_cast<std::size_t>(i)] = 3;  // second burst
  DetectionParams params{2, 8, 4};
  EXPECT_EQ(detect_signal(samples, params, 0), 5);
  // Restarting inside the first burst re-detects within it...
  EXPECT_EQ(detect_signal(samples, params, 6), 6);
  // ...while restarting past it finds the second burst.
  EXPECT_EQ(detect_signal(samples, params, 15), 40);
  EXPECT_EQ(detect_signal(samples, params, 61), -1);
}

TEST(DetectSignal, ShortInputSafe) {
  std::vector<std::uint8_t> samples(4, 9);
  DetectionParams params{1, 8, 1};
  EXPECT_EQ(detect_signal(samples, params), -1);  // window longer than input
  EXPECT_EQ(detect_signal({}, params), -1);
}

TEST(VerifyPrecedingSilence, AcceptsQuietGap) {
  std::vector<std::uint8_t> samples(64, 0);
  for (int i = 30; i < 50; ++i) samples[static_cast<std::size_t>(i)] = 4;
  EXPECT_TRUE(verify_preceding_silence(samples, 30, 16, 2, 2));
}

TEST(VerifyPrecedingSilence, RejectsNoisyGap) {
  std::vector<std::uint8_t> samples(64, 0);
  for (int i = 20; i < 50; ++i) samples[static_cast<std::size_t>(i)] = 4;  // noise before 30
  EXPECT_FALSE(verify_preceding_silence(samples, 30, 16, 2, 2));
}

TEST(VerifyPrecedingSilence, WindowClampedAtStart) {
  std::vector<std::uint8_t> samples(16, 4);
  // Index 2: only 2 noisy samples precede; allowed when max_noisy >= 2.
  EXPECT_TRUE(verify_preceding_silence(samples, 2, 16, 2, 2));
  EXPECT_FALSE(verify_preceding_silence(samples, 2, 16, 2, 1));
  EXPECT_FALSE(verify_preceding_silence(samples, -1, 16, 2, 2));
}

// --- Figure 9 sliding DFT filter ---

std::vector<double> tone(std::size_t n, double period, double amplitude, double phase = 0.0) {
  std::vector<double> wave(n);
  for (std::size_t i = 0; i < n; ++i) {
    wave[i] = amplitude * std::sin(2.0 * resloc::math::kPi * static_cast<double>(i) / period + phase);
  }
  return wave;
}

TEST(SlidingDft, Fs4ToneExcitesBand4Only) {
  SlidingDftFilter filter;
  BandPowers last{};
  for (double s : tone(144, 4.0, 100.0)) last = filter.filter(s);
  EXPECT_GT(last.band_fs4, 1e5);
  EXPECT_LT(last.band_fs6, last.band_fs4 / 50.0);
}

TEST(SlidingDft, Fs6ToneExcitesBand6Only) {
  SlidingDftFilter filter;
  BandPowers last{};
  for (double s : tone(144, 6.0, 100.0)) last = filter.filter(s);
  EXPECT_GT(last.band_fs6, 1e5);
  EXPECT_LT(last.band_fs4, last.band_fs6 / 50.0);
}

TEST(SlidingDft, OffBandToneRejected) {
  SlidingDftFilter filter;
  BandPowers last{};
  for (double s : tone(144, 9.0, 100.0)) last = filter.filter(s);  // fs/9 tone
  // Window of 36 samples holds an integer number of fs/9 periods -> full
  // rejection in both bands.
  EXPECT_LT(last.band_fs4, 1e3);
  EXPECT_LT(last.band_fs6, 1e3);
}

TEST(SlidingDft, WindowEnergyTracksParseval) {
  SlidingDftFilter filter;
  const auto wave = tone(36, 4.0, 10.0);
  double sum_sq = 0.0;
  for (double s : wave) {
    filter.filter(s);
    sum_sq += s * s;
  }
  EXPECT_NEAR(filter.window_energy(), sum_sq, 1e-9);
}

TEST(SlidingDft, ResetClearsState) {
  SlidingDftFilter filter;
  for (double s : tone(72, 4.0, 50.0)) filter.filter(s);
  filter.reset();
  EXPECT_DOUBLE_EQ(filter.window_energy(), 0.0);
  const auto powers = filter.filter(0.0);
  EXPECT_DOUBLE_EQ(powers.band_fs4, 0.0);
  EXPECT_DOUBLE_EQ(powers.band_fs6, 0.0);
}

TEST(SlidingDft, SlidingUpdateMatchesBatchRecompute) {
  // After arbitrary history, the band power must equal recomputing the DFT
  // over the last 36 samples from scratch.
  Rng rng(17);
  SlidingDftFilter filter;
  std::vector<double> history;
  BandPowers streamed{};
  for (int i = 0; i < 200; ++i) {
    const double s = rng.uniform(-50.0, 50.0);
    history.push_back(s);
    streamed = filter.filter(s);
  }
  SlidingDftFilter fresh;
  BandPowers batch{};
  // Zero-pad so that the fresh filter's ring-buffer slot phase (n mod 4,
  // k mod 6) matches the streamed filter's: 200 mod 36 alignment.
  const std::size_t start = history.size() - SlidingDftFilter::kWindow;
  for (std::size_t i = 0; i < start; ++i) fresh.filter(0.0);
  for (std::size_t i = start; i < history.size(); ++i) batch = fresh.filter(history[i]);
  EXPECT_NEAR(batch.band_fs4, streamed.band_fs4, 1e-6);
  EXPECT_NEAR(batch.band_fs6, streamed.band_fs6, 1e-6);
}

TEST(DftToneDetector, DetectsCleanChirps) {
  resloc::acoustics::WaveformSpec spec;
  spec.tone_frequency_hz = 4000.0;  // fs/4 at 16 kHz
  spec.noise_stddev = 0.0;
  Rng rng(18);
  const auto chirps = resloc::acoustics::periodic_chirps(4, 100, 400, 128);
  const auto wave = resloc::acoustics::synthesize_waveform(spec, chirps, 1800, rng);
  DftToneDetector detector(4);
  const auto metric = detector.run(wave);
  EXPECT_EQ(DftToneDetector::count_detections(metric), 4);
}

TEST(DftToneDetector, NoisySignalStillMostlyDetected) {
  // The Figure 10 situation: noisy capture; most chirps found, no false
  // positives from noise alone.
  resloc::acoustics::WaveformSpec spec;
  spec.tone_frequency_hz = 4000.0;
  spec.tone_amplitude = 1000.0;
  spec.noise_stddev = 300.0;
  Rng rng(19);
  const auto chirps = resloc::acoustics::periodic_chirps(4, 100, 400, 128);
  const auto wave = resloc::acoustics::synthesize_waveform(spec, chirps, 1800, rng);
  DftToneDetector detector(4);
  const auto metric = detector.run(wave);
  const int found = DftToneDetector::count_detections(metric);
  EXPECT_GE(found, 3);
  EXPECT_LE(found, 4);
}

TEST(DftToneDetector, PureNoiseYieldsNoDetections) {
  resloc::acoustics::WaveformSpec spec;
  spec.tone_amplitude = 0.0;
  spec.noise_stddev = 400.0;
  Rng rng(20);
  const auto wave = resloc::acoustics::synthesize_waveform(spec, {}, 4000, rng);
  DftToneDetector detector(4);
  const auto metric = detector.run(wave);
  EXPECT_EQ(DftToneDetector::count_detections(metric), 0);
}

TEST(DftToneDetector, OffBandInterferenceRejected) {
  resloc::acoustics::WaveformSpec spec;
  spec.tone_amplitude = 0.0;
  spec.interference_frequency_hz = 1777.0;  // strong off-band interferer
  spec.interference_amplitude = 800.0;
  spec.noise_stddev = 50.0;
  Rng rng(21);
  const auto wave = resloc::acoustics::synthesize_waveform(spec, {}, 4000, rng);
  DftToneDetector detector(4);
  const auto metric = detector.run(wave);
  EXPECT_EQ(DftToneDetector::count_detections(metric), 0);
}

TEST(DftToneDetector, CountDetectionsMergesCloseRuns) {
  std::vector<double> metric(300, -1.0);
  // Two runs separated by a short gap (merged), one far later (separate).
  for (int i = 50; i < 70; ++i) metric[static_cast<std::size_t>(i)] = 1.0;
  for (int i = 75; i < 95; ++i) metric[static_cast<std::size_t>(i)] = 1.0;
  for (int i = 200; i < 220; ++i) metric[static_cast<std::size_t>(i)] = 1.0;
  EXPECT_EQ(DftToneDetector::count_detections(metric, 8, 16), 2);
  // With merge_gap 2 the first two runs count separately.
  EXPECT_EQ(DftToneDetector::count_detections(metric, 8, 2), 3);
  // min_run longer than every run: nothing counts.
  EXPECT_EQ(DftToneDetector::count_detections(metric, 25, 16), 0);
}

}  // namespace
