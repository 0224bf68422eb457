#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "acoustics/channel.hpp"
#include "acoustics/chirp_pattern.hpp"
#include "acoustics/environment.hpp"
#include "acoustics/propagation.hpp"
#include "acoustics/signal_synth.hpp"
#include "acoustics/tone_detector.hpp"
#include "acoustics/units.hpp"
#include "math/rng.hpp"
#include "ranging/signal_detection.hpp"
#include "reference/ranging.hpp"

namespace {

using namespace resloc::acoustics;
using resloc::math::Rng;

TEST(Environment, ProfilesAreDistinct) {
  const auto grass = EnvironmentProfile::grass();
  const auto pavement = EnvironmentProfile::pavement();
  const auto urban = EnvironmentProfile::urban();
  const auto wooded = EnvironmentProfile::wooded();
  // Absorption ordering: pavement < urban < grass < wooded.
  EXPECT_LT(pavement.excess_attenuation_db_per_m, urban.excess_attenuation_db_per_m);
  EXPECT_LT(urban.excess_attenuation_db_per_m, grass.excess_attenuation_db_per_m);
  EXPECT_LT(grass.excess_attenuation_db_per_m, wooded.excess_attenuation_db_per_m);
  // Urban is the echo-rich environment.
  EXPECT_GT(urban.echo_rate, grass.echo_rate);
  EXPECT_GT(urban.echo_rate, pavement.echo_rate);
}

TEST(Propagation, ReceivedLevelDecreasesWithDistance) {
  const auto env = EnvironmentProfile::grass();
  double prev = received_level_db(105.0, 0.5, env);
  for (double d = 1.0; d <= 40.0; d += 1.0) {
    const double level = received_level_db(105.0, d, env);
    EXPECT_LT(level, prev);
    prev = level;
  }
}

TEST(Propagation, SphericalSpreadingSixDbPerDoubling) {
  EnvironmentProfile vacuum;
  vacuum.excess_attenuation_db_per_m = 0.0;
  const double l1 = received_level_db(100.0, 5.0, vacuum);
  const double l2 = received_level_db(100.0, 10.0, vacuum);
  EXPECT_NEAR(l1 - l2, 20.0 * std::log10(2.0), 1e-9);
}

TEST(Propagation, DetectionProbabilityMonotoneInSnr) {
  double prev = detection_probability(-20.0);
  for (double snr = -15.0; snr <= 40.0; snr += 5.0) {
    const double p = detection_probability(snr);
    EXPECT_GE(p, prev);
    EXPECT_GE(p, 0.0);
    EXPECT_LT(p, 1.0);  // saturates below 1: the detector misses even strong tones
    prev = p;
  }
  EXPECT_LT(detection_probability(-20.0), 0.001);
  EXPECT_GT(detection_probability(30.0), 0.9);
}

TEST(Propagation, PaperRangeShapes) {
  // Section 3.2 / 3.6.2 calibration targets (shape, not exact numbers):
  const auto grass = EnvironmentProfile::grass();
  const auto pavement = EnvironmentProfile::pavement();

  // Stock 88 dB buzzer dies within a few meters on grass...
  const double stock_grass = range_for_detection_probability(kStockBuzzerDb, 0.0, grass, 0.3);
  EXPECT_LT(stock_grass, 8.0);
  // ...while the 105 dB loudspeaker reaches 2-4x farther.
  const double loud_grass = range_for_detection_probability(kLoudspeakerDb, 0.0, grass, 0.3);
  EXPECT_GT(loud_grass, 2.0 * stock_grass);
  EXPECT_GT(loud_grass, 10.0);
  EXPECT_LT(loud_grass, 32.0);

  // Pavement carries much farther than grass.
  const double loud_pavement =
      range_for_detection_probability(kLoudspeakerDb, 0.0, pavement, 0.3);
  EXPECT_GT(loud_pavement, 1.5 * loud_grass);
}

TEST(Units, SpeakerSamplingVariesAroundNominal) {
  UnitVariationModel model;
  model.fault_probability = 0.0;
  Rng rng(42);
  double min_db = 1e9;
  double max_db = -1e9;
  for (int i = 0; i < 200; ++i) {
    const auto s = model.sample_speaker(kLoudspeakerDb, rng);
    EXPECT_FALSE(s.faulty);
    min_db = std::min(min_db, s.output_db);
    max_db = std::max(max_db, s.output_db);
  }
  EXPECT_LT(min_db, kLoudspeakerDb - 1.0);
  EXPECT_GT(max_db, kLoudspeakerDb + 1.0);
  EXPECT_GT(min_db, kLoudspeakerDb - 10.0);  // bounded spread
}

TEST(Units, FaultySpeakerLosesPower) {
  SpeakerUnit s;
  s.output_db = 105.0;
  EXPECT_DOUBLE_EQ(s.effective_db(), 105.0);
  s.faulty = true;
  EXPECT_LT(s.effective_db(), 85.0);
}

TEST(Units, FaultProbabilityRespected) {
  UnitVariationModel model;
  model.fault_probability = 0.5;
  Rng rng(7);
  int faults = 0;
  for (int i = 0; i < 2000; ++i) {
    if (model.sample_mic(rng).faulty) ++faults;
  }
  EXPECT_NEAR(faults / 2000.0, 0.5, 0.05);
}

TEST(ChirpPattern, StartTimesRespectStructure) {
  ChirpPattern pattern;
  pattern.num_chirps = 10;
  Rng rng(3);
  std::vector<double> starts;
  chirp_start_times_into(pattern, rng, starts);
  ASSERT_EQ(starts.size(), 10u);
  EXPECT_DOUBLE_EQ(starts[0], 0.0);
  for (std::size_t i = 1; i < starts.size(); ++i) {
    const double gap = starts[i] - starts[i - 1];
    EXPECT_GE(gap, pattern.chirp_duration_s + pattern.inter_chirp_gap_s - 1e-12);
    EXPECT_LE(gap, pattern.chirp_duration_s + pattern.inter_chirp_gap_s +
                        pattern.random_delay_max_s + 1e-12);
  }
}

TEST(ChirpPattern, RandomDelaysDecorrelate) {
  ChirpPattern pattern;
  Rng rng1(1), rng2(2);
  std::vector<double> a, b;
  chirp_start_times_into(pattern, rng1, a);
  chirp_start_times_into(pattern, rng2, b);
  bool differs = false;
  for (std::size_t i = 1; i < a.size(); ++i) {
    if (std::abs(a[i] - b[i]) > 1e-9) differs = true;
  }
  EXPECT_TRUE(differs);
}

// One exchange's channel realized, then clipped to one window with that
// window's bursts drawn: the channel v2 steps RangingService runs per window.
ReceivedWindow receive_window(const std::vector<double>& starts, double chirp_duration_s,
                              double window_start_s, double window_duration_s, double distance_m,
                              const SpeakerUnit& speaker, const MicUnit& mic,
                              const EnvironmentProfile& env, const ChannelJitter& jitter,
                              Rng& rng) {
  ExchangeChannel exchange;
  realize_exchange(exchange, starts, chirp_duration_s, distance_m, speaker, mic, env, jitter,
                   rng);
  ReceivedWindow window;
  clip_window(window, exchange, window_start_s, window_duration_s);
  draw_noise_bursts(window, env, rng);
  return window;
}

TEST(Channel, DirectSignalArrivesAtTravelTime) {
  auto env = EnvironmentProfile::grass();
  env.echo_rate = 0.0;
  env.noise_burst_rate_hz = 0.0;
  ChannelJitter jitter;
  jitter.actuation_jitter_s = 0.0;
  Rng rng(5);
  const double d = 17.0;
  const auto window = receive_window({0.0}, 0.008, 0.0, 0.2, d, SpeakerUnit{}, MicUnit{}, env,
                                     jitter, rng);
  // Ramp-up segment plus full-level segment.
  ASSERT_EQ(window.signals.size(), 2u);
  const double travel = d / env.speed_of_sound_mps;
  EXPECT_NEAR(window.signals[0].start_s, travel, 1e-9);
  EXPECT_NEAR(window.signals[0].end_s, travel + jitter.rampup_s, 1e-9);
  EXPECT_NEAR(window.signals[0].snr_db + jitter.rampup_penalty_db, window.signals[1].snr_db,
              1e-9);
  EXPECT_NEAR(window.signals[1].end_s, travel + 0.008, 1e-9);
}

TEST(Channel, DirectSnrIsPropagationSnr) {
  // The channel has one SNR formula, propagation.hpp's: the direct interval
  // carries snr_db(...) bit for bit and the ramp-up interval that value
  // minus the ramp penalty, at any distance (the 10 cm reference clamp
  // included) and for any speaker and mic, faulty ones too.
  auto env = EnvironmentProfile::grass();
  env.echo_rate = 0.0;
  env.noise_burst_rate_hz = 0.0;
  ChannelJitter jitter;
  jitter.actuation_jitter_s = 0.0;
  const UnitVariationModel units;
  Rng rng(53, 9);
  const auto same_bits = [](double a, double b) {
    return std::memcmp(&a, &b, sizeof(double)) == 0;
  };
  int below_reference = 0;
  int faulty_speakers = 0;
  int faulty_mics = 0;
  for (int i = 0; i < 2000; ++i) {
    const double d = i % 7 == 0 ? rng.uniform(0.0, 0.15) : rng.uniform(0.0, 60.0);
    SpeakerUnit speaker = units.sample_speaker(rng.uniform(80.0, 110.0), rng);
    MicUnit mic = units.sample_mic(rng);
    if (i % 5 == 0) speaker.faulty = true;
    if (i % 3 == 0) mic.faulty = true;
    below_reference += d < 0.1;
    faulty_speakers += speaker.faulty;
    faulty_mics += mic.faulty;

    ExchangeChannel exchange;
    realize_exchange(exchange, {0.0}, 0.008, d, speaker, mic, env, jitter, rng);
    ASSERT_EQ(exchange.signals.size(), 2u) << "d=" << d;
    const double expect = snr_db(speaker.effective_db(), d, mic.sensitivity_db, env);
    EXPECT_TRUE(same_bits(exchange.signals[1].snr_db, expect)) << "d=" << d;
    EXPECT_TRUE(same_bits(exchange.signals[0].snr_db, expect - jitter.rampup_penalty_db))
        << "d=" << d;
  }
  EXPECT_GT(below_reference, 100);
  EXPECT_GT(faulty_speakers, 100);
  EXPECT_GT(faulty_mics, 100);
}

TEST(Channel, SignalsOutsideWindowAreDropped) {
  auto env = EnvironmentProfile::grass();
  env.echo_rate = 0.0;
  env.noise_burst_rate_hz = 0.0;
  Rng rng(6);
  // Emission whose sound arrives after the window closes.
  const auto window = receive_window({10.0}, 0.008, 0.0, 0.05, 5.0, SpeakerUnit{}, MicUnit{},
                                     env, ChannelJitter{}, rng);
  EXPECT_TRUE(window.signals.empty());
}

TEST(Channel, UrbanProducesEchoes) {
  const auto env = EnvironmentProfile::urban();
  Rng rng(8);
  std::size_t echo_windows = 0;
  for (int i = 0; i < 100; ++i) {
    const auto window = receive_window({0.0}, 0.008, 0.0, 0.3, 10.0, SpeakerUnit{}, MicUnit{},
                                       env, ChannelJitter{}, rng);
    if (window.signals.size() > 1) ++echo_windows;
  }
  EXPECT_GT(echo_windows, 30u);  // echo_rate 0.9 -> most windows see an echo
}

TEST(Channel, EchoesAreWeakerAndLater) {
  auto env = EnvironmentProfile::urban();
  env.noise_burst_rate_hz = 0.0;
  Rng rng(9);
  const double d = 10.0;
  const double body_snr = snr_db(SpeakerUnit{}.effective_db(), d, 0.0, env);
  int echoes_seen = 0;
  for (int i = 0; i < 50; ++i) {
    ChannelJitter jitter;
    jitter.actuation_jitter_s = 0.0;
    const auto window =
        receive_window({0.0}, 0.008, 0.0, 0.5, d, SpeakerUnit{}, MicUnit{}, env, jitter, rng);
    // The strongest interval is the full-level direct body; anything clearly
    // below it is an echo and must start no earlier than the direct signal.
    const double direct_start = d / env.speed_of_sound_mps;
    for (const auto& s : window.signals) {
      EXPECT_LE(s.snr_db, body_snr + 3.0);
      if (s.snr_db < body_snr - jitter.rampup_penalty_db - 0.5) {
        ++echoes_seen;
        EXPECT_GT(s.start_s, direct_start - 1e-9);
      }
    }
  }
  EXPECT_GT(echoes_seen, 20);  // urban is echo-rich
}

bool same_interval(const SignalInterval& a, const SignalInterval& b) {
  return a.start_s == b.start_s && a.end_s == b.end_s && a.snr_db == b.snr_db;
}

TEST(Channel, ClipKeepsExactlyTheOverlappingIntervals) {
  Rng rng(10, 4);
  for (int trial = 0; trial < 400; ++trial) {
    auto env = EnvironmentProfile::urban();
    env.echo_rate = rng.uniform(0.0, 3.0);
    if (rng.bernoulli(0.5)) env.fixed_echo_lag_s = rng.uniform(0.001, 0.05);
    // Chirps up to 0.4 s long against gaps of at most 0.2 s, so intervals
    // that start early often reach past several later starts.
    std::vector<double> starts;
    double t = rng.uniform(-0.1, 0.1);
    const auto k = rng.uniform_int(1, 12);
    for (std::int64_t i = 0; i < k; ++i) {
      starts.push_back(t);
      t += rng.uniform(0.0, 0.2);
    }
    const double chirp_s = rng.bernoulli(0.5) ? rng.uniform(0.01, 0.4) : 0.008;
    ExchangeChannel exchange;
    realize_exchange(exchange, starts, chirp_s, rng.uniform(0.0, 40.0), SpeakerUnit{},
                     MicUnit{}, env, ChannelJitter{}, rng);
    ASSERT_FALSE(exchange.signals.empty());
    const double first = exchange.signals.front().start_s;
    double last = first;
    for (const SignalInterval& s : exchange.signals) last = std::max(last, s.end_s);

    for (int w = 0; w < 40; ++w) {
      double start;
      const double duration = rng.uniform(0.0, 0.3);
      switch (w % 5) {
        case 0: start = first - duration; break;  // ends where the first starts
        case 1: start = first + rng.uniform(-0.05, 0.05); break;
        case 2: start = last; break;  // starts where the last ends
        case 3: start = last - rng.uniform(0.0, 0.05); break;
        default: start = rng.uniform(first - 0.5, last + 0.1); break;
      }
      ReceivedWindow window;
      window.bursts.push_back({0.0, 1.0});  // cleared by the clip
      clip_window(window, exchange, start, duration);
      std::vector<SignalInterval> expect;
      for (const SignalInterval& s : exchange.signals) {
        if (s.end_s > start && s.start_s < start + duration) expect.push_back(s);
      }
      ASSERT_EQ(window.signals.size(), expect.size()) << "trial=" << trial << " w=" << w;
      for (std::size_t i = 0; i < expect.size(); ++i) {
        EXPECT_TRUE(same_interval(window.signals[i], expect[i])) << "trial=" << trial;
      }
      EXPECT_TRUE(window.bursts.empty());
      EXPECT_EQ(window.start_s, start);
      EXPECT_EQ(window.duration_s, duration);
    }
  }
}

TEST(Channel, EveryWindowHearsTheSameChirps) {
  // Windows long enough to span several chirps, opened per chirp the way
  // RangingService does (sync error, clip, bursts). Wherever two windows
  // overlap they must hear the same intervals: one onset jitter and one set
  // of echoes per emission, not one per window.
  const auto env = EnvironmentProfile::urban();
  const ChirpPattern pattern;
  Rng rng(21);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> starts;
    chirp_start_times_into(pattern, rng, starts);
    ExchangeChannel exchange;
    realize_exchange(exchange, starts, pattern.chirp_duration_s, 12.0, SpeakerUnit{}, MicUnit{},
                     env, ChannelJitter{}, rng);
    std::vector<ReceivedWindow> windows(starts.size());
    for (std::size_t i = 0; i < starts.size(); ++i) {
      clip_window(windows[i], exchange, starts[i] - rng.gaussian(0.0, 1e-4), 0.9);
      draw_noise_bursts(windows[i], env, rng);
    }
    const auto heard_in = [](const ReceivedWindow& heard, const ReceivedWindow& span) {
      std::vector<SignalInterval> out;
      for (const SignalInterval& s : heard.signals) {
        if (s.end_s > span.start_s && s.start_s < span.start_s + span.duration_s) {
          out.push_back(s);
        }
      }
      return out;
    };
    int shared = 0;
    for (std::size_t a = 0; a < windows.size(); ++a) {
      for (std::size_t b = a + 1; b < windows.size(); ++b) {
        const auto from_a = heard_in(windows[a], windows[b]);
        const auto from_b = heard_in(windows[b], windows[a]);
        ASSERT_EQ(from_a.size(), from_b.size()) << "trial=" << trial << " a=" << a << " b=" << b;
        for (std::size_t i = 0; i < from_a.size(); ++i) {
          EXPECT_TRUE(same_interval(from_a[i], from_b[i])) << "trial=" << trial;
        }
        shared += static_cast<int>(from_a.size());
      }
    }
    EXPECT_GT(shared, 0);
  }
}

// Fired-sample counts of one chirp window from both detector paths, each
// drawn from its own Rng(seed): the shipped path (ToneDetectorModel::fire_runs
// + Rng::fill_bernoulli_mask_block + SignalAccumulator::record_chirp, one
// chirp, so every counter is 0 or 1) and the per-sample reference. The statistical checks below run on
// both, so a shared drift away from the modelled rates fails them.
struct FiredCounts {
  double production = 0.0;
  double reference = 0.0;
};

FiredCounts count_fired(const EnvironmentProfile& env, const ReceivedWindow& window,
                        std::size_t n, const MicUnit& mic, std::uint64_t seed) {
  FiredCounts counts;
  const ToneDetectorModel model(env, 16000.0);
  DetectorScratch scratch;
  std::vector<resloc::math::BernoulliRun> runs;
  model.fire_runs(window, n, mic, scratch, runs);
  std::vector<std::uint64_t> fired((n + 63) / 64);
  Rng production_rng(seed);
  production_rng.fill_bernoulli_mask_block(runs, n, fired.data());
  resloc::ranging::SignalAccumulator acc(n);
  acc.record_chirp(fired.data());
  for (std::size_t i = 0; i < n; ++i) counts.production += acc.count(i);

  Rng reference_rng(seed);
  const auto out = resloc::reference::sample_window(env, 16000.0, window, n, mic, reference_rng);
  counts.reference = static_cast<double>(std::count(out.begin(), out.end(), true));
  return counts;
}

TEST(ToneDetector, StrongSignalDetectedOften) {
  auto env = EnvironmentProfile::grass();
  env.false_positive_rate = 0.0;
  ReceivedWindow window;
  window.start_s = 0.0;
  window.duration_s = 0.01;
  window.signals.push_back({0.0, 0.01, 30.0});  // very strong tone everywhere
  const auto hits = count_fired(env, window, 160, MicUnit{}, 10);
  EXPECT_GT(hits.production, 130.0);  // ~95% hit rate
  EXPECT_GT(hits.reference, 130.0);
}

TEST(ToneDetector, NoSignalRespectsFalsePositiveRate) {
  auto env = EnvironmentProfile::grass();
  env.false_positive_rate = 0.05;
  env.noise_burst_rate_hz = 0.0;
  ReceivedWindow window;
  window.duration_s = 1.0;
  const auto hits = count_fired(env, window, 16000, MicUnit{}, 11);
  EXPECT_NEAR(hits.production / 16000.0, 0.05, 0.01);
  EXPECT_NEAR(hits.reference / 16000.0, 0.05, 0.01);
}

TEST(ToneDetector, NoiseBurstElevatesFalsePositives) {
  auto env = EnvironmentProfile::grass();
  env.false_positive_rate = 0.01;
  ReceivedWindow window;
  window.duration_s = 0.1;
  window.bursts.push_back({0.0, 0.1});
  const auto hits = count_fired(env, window, 1600, MicUnit{}, 12);
  EXPECT_GT(hits.production / 1600.0, 0.2);
  EXPECT_GT(hits.reference / 1600.0, 0.2);
}

TEST(ToneDetector, FaultyMicIsNoisy) {
  auto env = EnvironmentProfile::grass();
  env.false_positive_rate = 0.005;
  env.noise_burst_rate_hz = 0.0;
  ReceivedWindow window;
  window.duration_s = 0.1;
  MicUnit faulty;
  faulty.faulty = true;
  const auto hits = count_fired(env, window, 1600, faulty, 13);
  EXPECT_GT(hits.production / 1600.0, 0.08);
  EXPECT_GT(hits.reference / 1600.0, 0.08);
}

TEST(SignalSynth, CleanToneHasExpectedAmplitude) {
  WaveformSpec spec;
  spec.tone_amplitude = 1000.0;
  spec.noise_stddev = 0.0;
  Rng rng(14);
  const auto wave = synthesize_waveform(spec, {{0, 64}}, 128, rng);
  double peak = 0.0;
  for (std::size_t i = 0; i < 64; ++i) peak = std::max(peak, std::abs(wave[i]));
  EXPECT_NEAR(peak, 1000.0, 10.0);
  for (std::size_t i = 64; i < 128; ++i) EXPECT_DOUBLE_EQ(wave[i], 0.0);
}

TEST(SignalSynth, PeriodicChirpsPlacement) {
  const auto chirps = periodic_chirps(3, 100, 500, 128);
  ASSERT_EQ(chirps.size(), 3u);
  EXPECT_EQ(chirps[0].start_sample, 100u);
  EXPECT_EQ(chirps[1].start_sample, 600u);
  EXPECT_EQ(chirps[2].start_sample, 1100u);
}

TEST(SignalSynth, NoiseChangesWaveform) {
  WaveformSpec spec;
  spec.noise_stddev = 100.0;
  Rng rng(15);
  const auto wave = synthesize_waveform(spec, {}, 256, rng);
  double energy = 0.0;
  for (double s : wave) energy += s * s;
  EXPECT_GT(energy / 256.0, 100.0 * 100.0 * 0.5);
}

}  // namespace
