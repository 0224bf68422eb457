// Bit-equality tests for the block-DSP kernels of the measure path.
//
// Every block kernel has a per-sample reference (the pre-refactor loop, kept
// in the test-only resloc_reference library, or for the block normal stream
// a test-local scalar oracle written from its definition); these tests drive
// both over the same inputs and the same RNG stream and require last-ulp
// identical outputs AND identical post-call generator state, at odd block
// sizes, partial tails, and window-boundary offsets. The capstone test diffs
// RangingService end to end against the per-sample reference measure for
// all three detector front ends.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <stdexcept>
#include <vector>

#include "acoustics/channel.hpp"
#include "acoustics/environment.hpp"
#include "acoustics/signal_synth.hpp"
#include "acoustics/tone_detector.hpp"
#include "acoustics/units.hpp"
#include "math/bernoulli_mask_kernels.hpp"
#include "math/constants.hpp"
#include "math/rng.hpp"
#include "math/simd_dispatch.hpp"
#include "ranging/dft_detector.hpp"
#include "ranging/matched_filter.hpp"
#include "ranging/ranging_service.hpp"
#include "ranging/signal_detection.hpp"
#include "reference/ranging.hpp"

namespace {

using resloc::math::Rng;
namespace acoustics = resloc::acoustics;
namespace ranging = resloc::ranging;

// Sizes chosen to cross the 4-draw quad stride of fill_uniform_bits_block and
// the Goertzel 256-step resync period, plus odd/partial-tail cases.
const std::size_t kBlockSizes[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 31, 36, 100, 255, 256, 257, 1163};

TEST(RngBlocks, UniformBitsBlockMatchesSequential) {
  for (std::size_t n : kBlockSizes) {
    Rng a(0x1234u + n, 7);
    Rng b(0x1234u + n, 7);
    std::vector<std::uint64_t> block(n, 0);
    a.fill_uniform_bits_block(block.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(block[i], b.uniform_bits()) << "n=" << n << " i=" << i;
    }
    // Post-call state: the next draws must agree too.
    for (int i = 0; i < 8; ++i) ASSERT_EQ(a.uniform_bits(), b.uniform_bits());
  }
}

/// Slow-path tallies of the oracle below.
struct ZigguratPaths {
  int wedge = 0;          ///< wedge tests made (retries included)
  int wedge_rejects = 0;  ///< wedge tests that drew a fresh word
  int tail = 0;           ///< layer-0 words resolved in the tail beyond R
  int tail_rejects = 0;   ///< rejected tail (t, y) pairs
};

/// Test-local scalar oracle of the block normal stream, written from its
/// definition in rng.hpp: n sequential uniform_bits() words, each decoded
/// into (layer, u) and accepted against the shared tables, then the wedge
/// and tail samples resolved in index order with further sequential draws.
std::vector<double> ziggurat_oracle(Rng& rng, std::size_t n, ZigguratPaths& paths) {
  const auto& z = resloc::math::NormalZiggurat::get();
  const double r = resloc::math::NormalZiggurat::kTailStart;
  std::vector<std::uint64_t> words(n);
  for (std::uint64_t& w : words) w = rng.uniform_bits();
  std::vector<double> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    std::uint64_t w = words[k];
    for (;;) {
      const auto layer = static_cast<std::size_t>(w % 256);
      const double j = static_cast<double>(w >> 8);  // 45 bits, exact
      const double u = (2.0 * j + 1.0 - 0x1.0p45) / 0x1.0p45;
      if (std::fabs(u) < z.ratio[layer]) {
        out[k] = u * z.x[layer];
        break;
      }
      if (layer == 0) {
        ++paths.tail;
        double t = -std::log(1.0 - rng.uniform()) / r;
        double y = -std::log(1.0 - rng.uniform());
        while (2.0 * y < t * t) {
          ++paths.tail_rejects;
          t = -std::log(1.0 - rng.uniform()) / r;
          y = -std::log(1.0 - rng.uniform());
        }
        out[k] = u < 0.0 ? -(r + t) : r + t;
        break;
      }
      ++paths.wedge;
      const double x = u * z.x[layer];
      const double height = z.f[layer] + rng.uniform() * (z.f[layer + 1] - z.f[layer]);
      if (height < std::exp(-0.5 * x * x)) {
        out[k] = x;
        break;
      }
      ++paths.wedge_rejects;
      w = rng.uniform_bits();
    }
  }
  return out;
}

TEST(RngBlocks, GaussianBlockMatchesZigguratOracleAndKeepsCachedHalf) {
  // kBlockSizes for the tails and group strides, plus one long block so the
  // fixture reaches the rare tail path (~2.6e-4 of words) and its retries.
  std::vector<std::size_t> sizes(std::begin(kBlockSizes), std::end(kBlockSizes));
  sizes.push_back(std::size_t{1} << 18);
  ZigguratPaths paths;
  for (std::size_t n : sizes) {
    for (int warmup = 0; warmup < 2; ++warmup) {
      Rng a(0x9e3779b9u, 3 + n);
      Rng b(0x9e3779b9u, 3 + n);
      double pending_half = 0.0;
      if (warmup) {
        // Leave a Box-Muller cached second normal pending before the block;
        // a third generator reveals its value.
        Rng c(0x9e3779b9u, 3 + n);
        c.gaussian();
        pending_half = c.gaussian();
        ASSERT_EQ(a.gaussian(), b.gaussian());
      }
      std::vector<double> block(n, 0.0);
      a.fill_gaussian_block(block.data(), n);
      const std::vector<double> expect = ziggurat_oracle(b, n, paths);
      // n = 0 leaves data() null, which memcmp must not be handed.
      ASSERT_TRUE(n == 0 || std::memcmp(block.data(), expect.data(), n * sizeof(double)) == 0)
          << "n=" << n << " warmup=" << warmup;
      if (warmup) {
        // The block neither consumed nor cleared the pending half.
        const double after = a.gaussian();
        ASSERT_EQ(std::memcmp(&after, &pending_half, sizeof(double)), 0) << "n=" << n;
        ASSERT_EQ(b.gaussian(), pending_half);
      }
      // Post-call state: the next draws must agree too.
      for (int i = 0; i < 8; ++i) ASSERT_EQ(a.uniform_bits(), b.uniform_bits()) << "n=" << n;
      for (int i = 0; i < 4; ++i) ASSERT_EQ(a.gaussian(), b.gaussian()) << "n=" << n;
    }
  }
  // The fixture must exercise both slow paths and both of their retry loops,
  // or the oracle proves little.
  EXPECT_GE(paths.wedge, 1);
  EXPECT_GE(paths.wedge_rejects, 1);
  EXPECT_GE(paths.tail, 1);
  EXPECT_GE(paths.tail_rejects, 1);
}

TEST(RngBlocks, BernoulliThresholdSplitsExactlyLikeUniformCompare) {
  const double probs[] = {0.0, 1e-300, 1e-17, 0.003, 0.15, 0.5,
                          0.78342, 1.0 - 1e-16, 1.0, 1.5, -0.2};
  for (double p : probs) {
    const std::uint64_t t = Rng::bernoulli_threshold(p);
    Rng a(42, 9);
    Rng b(42, 9);
    for (int i = 0; i < 2000; ++i) {
      ASSERT_EQ(b.uniform_bits() < t, a.bernoulli(p)) << "p=" << p;
    }
  }
}

using resloc::math::BernoulliRun;

/// Fills a Bernoulli mask from `rng` the way Rng::fill_bernoulli_mask_block
/// does, through one dispatch variant.
using MaskFill = void (*)(Rng&, const std::vector<BernoulliRun>&, std::size_t, std::uint64_t*);

template <std::uint64_t (*kKernel)(std::uint64_t, std::uint64_t, const BernoulliRun*,
                                   std::size_t, std::uint64_t*)>
void fill_with_variant(Rng& rng, const std::vector<BernoulliRun>& runs, std::size_t n,
                       std::uint64_t* mask) {
  std::uint64_t& state = resloc::math::RngState::state(rng);
  state = kKernel(state, resloc::math::RngState::inc(rng), runs.data(), n, mask);
}

void fill_dispatched(Rng& rng, const std::vector<BernoulliRun>& runs, std::size_t n,
                     std::uint64_t* mask) {
  rng.fill_bernoulli_mask_block(runs, n, mask);
}

constexpr std::uint64_t kAlwaysFires = std::uint64_t{1} << 53;

/// Threshold that ties `word`'s high 32 bits (word >> 21) and puts the
/// 21-bit tie-break at `low`: the draw fires iff its low 21 bits are < low.
std::uint64_t tie_threshold(std::uint64_t word, std::uint64_t low) {
  return ((word >> 21) << 21) | low;
}

/// A random run list over n samples. Run ends land anywhere, so edges fall
/// inside lane groups; thresholds mix detector-like and random probabilities,
/// 0, 2^53, UINT64_MAX, and hi-word ties forced on a sample of the run from
/// `words`, the draws the kernel is about to make. The last run may end past n.
std::vector<BernoulliRun> oracle_runs(Rng& gen, const std::vector<std::uint64_t>& words) {
  const std::size_t n = words.size();
  std::vector<BernoulliRun> runs;
  std::size_t pos = 0;
  while (pos < n) {
    const auto len = static_cast<std::size_t>(
        gen.bernoulli(0.2) ? gen.uniform_int(1, static_cast<std::int64_t>(n))
                           : gen.uniform_int(1, 40));
    std::size_t end = std::min(n, pos + len);
    if (end == n && gen.bernoulli(0.3)) end += 5;
    const std::uint64_t tied = words[static_cast<std::size_t>(gen.uniform_int(
        static_cast<std::int64_t>(pos), static_cast<std::int64_t>(std::min(end, n) - 1)))];
    std::uint64_t threshold = 0;
    const auto low = static_cast<std::uint64_t>(gen.uniform_int(0, (1 << 21) - 1));
    switch (gen.uniform_int(0, 8)) {
      case 0: threshold = Rng::bernoulli_threshold(gen.uniform()); break;
      case 1: threshold = Rng::bernoulli_threshold(0.003); break;
      case 2: threshold = Rng::bernoulli_threshold(0.15); break;
      case 3: threshold = 0; break;
      case 4: threshold = kAlwaysFires; break;
      case 5: threshold = ~std::uint64_t{0}; break;
      case 6: threshold = tie_threshold(tied, low); break;
      case 7: threshold = tie_threshold(tied, gen.bernoulli(0.5) ? 0 : (1 << 21) - 1); break;
      default: threshold = tied + static_cast<std::uint64_t>(gen.uniform_int(0, 1)); break;
    }
    runs.push_back({end, threshold});
    pos = end;
  }
  return runs;
}

/// Drives `fill` against sequential uniform_bits() < threshold over random
/// run lists, a one-run-per-sample all-ties list, and sizes on both sides of
/// every lane-group width; also checks the words past the mask stay
/// untouched and the generator ends in the same state.
void expect_mask_matches_sequential(MaskFill fill) {
  const std::size_t sizes[] = {1, 7, 8, 9, 15, 16, 17, 31, 33, 64, 65, 1994};
  constexpr std::uint64_t kGuard = 0xA5A5A5A5A5A5A5A5ULL;
  Rng gen(0xB17, 3);
  std::size_t ties_fired = 0;
  std::size_t ties_missed = 0;
  std::size_t samples = 0;
  for (int trial = 0; trial < 120; ++trial) {
    for (std::size_t n : sizes) {
      Rng a(0x5EED + static_cast<std::uint64_t>(trial), 1 + n);
      Rng peek = a;
      std::vector<std::uint64_t> words(n);
      for (std::uint64_t& w : words) w = peek.uniform_bits();

      std::vector<BernoulliRun> runs;
      if (trial % 4 == 3) {
        // Every sample its own run, each a forced tie: the tie path on every
        // lane, with both outcomes.
        for (std::size_t i = 0; i < n; ++i) {
          const auto low = static_cast<std::uint64_t>(gen.uniform_int(0, (1 << 21) - 1));
          runs.push_back({i + 1, tie_threshold(words[i], low)});
        }
      } else {
        runs = oracle_runs(gen, words);
      }

      const std::size_t mask_words = (n + 63) / 64;
      std::vector<std::uint64_t> expect(mask_words, 0);
      std::size_t run = 0;
      for (std::size_t i = 0; i < n; ++i) {
        while (runs[run].end <= i) ++run;
        const std::uint64_t t = runs[run].threshold;
        const bool fires = words[i] < t;
        if (t < kAlwaysFires && (words[i] >> 21) == (t >> 21)) ++(fires ? ties_fired : ties_missed);
        if (fires) expect[i / 64] |= std::uint64_t{1} << (i % 64);
      }
      samples += n;

      std::vector<std::uint64_t> mask(mask_words + 1, kGuard);
      fill(a, runs, n, mask.data());
      for (std::size_t w = 0; w < mask_words; ++w) {
        ASSERT_EQ(mask[w], expect[w]) << "trial=" << trial << " n=" << n << " word=" << w;
      }
      ASSERT_EQ(mask[mask_words], kGuard) << "wrote past the mask, n=" << n;
      for (int i = 0; i < 4; ++i) {
        ASSERT_EQ(a.uniform_bits(), peek.uniform_bits()) << "trial=" << trial << " n=" << n;
      }
    }
  }
  // Ties are ~2^-32 events on their own; the fixture must force plenty,
  // settled both ways.
  EXPECT_GE(ties_fired, samples / 32);
  EXPECT_GE(ties_missed, samples / 32);
}

TEST(RngBlocks, BernoulliMaskMatchesSequentialCompare) {
  expect_mask_matches_sequential(&fill_dispatched);
  // No draws, no mask words, no state change.
  Rng a(9, 9), b(9, 9);
  a.fill_bernoulli_mask_block({}, 0, nullptr);
  EXPECT_EQ(a.uniform_bits(), b.uniform_bits());
}

TEST(RngBlocks, BernoulliMaskPortableMatchesSequentialCompare) {
  expect_mask_matches_sequential(&fill_with_variant<resloc::math::bernoulli_mask::portable>);
}

TEST(RngBlocks, BernoulliMaskAvx2MatchesSequentialCompare) {
#if RESLOC_X86_SIMD
  if (!resloc::math::cpu_has_avx2_kernels()) GTEST_SKIP() << "host has no AVX2";
  expect_mask_matches_sequential(&fill_with_variant<resloc::math::bernoulli_mask::avx2>);
#else
  GTEST_SKIP() << "no x86 SIMD variants in this build";
#endif
}

TEST(RngBlocks, BernoulliMaskAvx512MatchesSequentialCompare) {
#if RESLOC_X86_SIMD
  if (!resloc::math::cpu_has_avx512_kernels()) GTEST_SKIP() << "host has no AVX-512";
  expect_mask_matches_sequential(&fill_with_variant<resloc::math::bernoulli_mask::avx512>);
#else
  GTEST_SKIP() << "no x86 SIMD variants in this build";
#endif
}

TEST(RngBlocks, BernoulliMaskRejectsRunsEndingBeforeTheBlock) {
  Rng rng(1, 1);
  std::uint64_t mask[1] = {0};
  EXPECT_THROW(rng.fill_bernoulli_mask_block({{5, 0}}, 6, mask), std::invalid_argument);
  EXPECT_THROW(rng.fill_bernoulli_mask_block({}, 1, mask), std::invalid_argument);
}

TEST(IntervalSampleSpan, MatchesPerSamplePredicate) {
  Rng rng(7, 1);
  const double dt = 1.0 / 16000.0;
  for (int trial = 0; trial < 500; ++trial) {
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(1, 400));
    const double window_start = rng.uniform(-1.0, 1.0);
    // Mix of random intervals and intervals snapped near sample boundaries.
    double start = window_start + rng.uniform(-5.0, 400.0) * dt;
    double end = start + rng.uniform(-2.0, 300.0) * dt;
    if (trial % 3 == 0) {
      start = window_start + static_cast<double>(rng.uniform_int(-2, 400)) * dt;
      end = start + static_cast<double>(rng.uniform_int(0, 64)) * dt;
    }
    const acoustics::SampleSpan span =
        acoustics::interval_sample_span(window_start, dt, n, start, end);
    std::size_t expect_lo = n, expect_hi = n;
    bool any = false;
    for (std::size_t i = 0; i < n; ++i) {
      const double t = window_start + static_cast<double>(i) * dt;
      const bool inside = t >= start && t < end;
      if (inside && !any) {
        expect_lo = i;
        any = true;
      }
      if (inside) expect_hi = i + 1;
      if (any) {
        // The span must be contiguous: no gap then re-entry.
        ASSERT_TRUE(inside || i >= expect_hi);
      }
    }
    if (!any) {
      EXPECT_EQ(span.lo, span.hi) << "trial=" << trial;
    } else {
      EXPECT_EQ(span.lo, expect_lo) << "trial=" << trial;
      EXPECT_EQ(span.hi, expect_hi) << "trial=" << trial;
    }
  }
}

/// A synthetic received window with overlapping signals, bursts, and edges
/// crossing the window boundaries.
acoustics::ReceivedWindow synthetic_window(Rng& rng, double window_start_s, std::size_t n,
                                           double dt) {
  acoustics::ReceivedWindow w;
  w.start_s = window_start_s;
  w.duration_s = static_cast<double>(n) * dt;
  const int signals = static_cast<int>(rng.uniform_int(0, 6));
  for (int i = 0; i < signals; ++i) {
    const double s = window_start_s + rng.uniform(-30.0, static_cast<double>(n)) * dt;
    const double e = s + rng.uniform(0.0, 200.0) * dt;
    w.signals.push_back({s, e, rng.uniform(-10.0, 30.0)});
  }
  const int bursts = static_cast<int>(rng.uniform_int(0, 3));
  for (int i = 0; i < bursts; ++i) {
    const double s = window_start_s + rng.uniform(-10.0, static_cast<double>(n)) * dt;
    w.bursts.push_back({s, s + rng.uniform(0.0, 80.0) * dt});
  }
  return w;
}

TEST(HardwareBlock, ThresholdsPlusBernoulliMatchSampleWindow) {
  const acoustics::EnvironmentProfile env = acoustics::EnvironmentProfile::grass();
  const acoustics::ToneDetectorModel detector(env);
  const double dt = detector.sample_period_s();
  Rng gen(0xFEED, 5);
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t n = static_cast<std::size_t>(gen.uniform_int(1, 700));
    acoustics::MicUnit mic;
    mic.sensitivity_db = gen.uniform(-3.0, 3.0);
    mic.faulty = trial % 5 == 0;
    const double window_start = gen.uniform(-0.05, 0.05);
    const acoustics::ReceivedWindow w = synthetic_window(gen, window_start, n, dt);

    // Reference: the per-sample detector loop.
    Rng ref_rng(1000 + trial, 11);
    const std::vector<bool> ref_out =
        resloc::reference::sample_window(env, detector.sample_rate_hz(), w, n, mic, ref_rng);
    const std::vector<std::uint8_t> ref_fired(ref_out.begin(), ref_out.end());
    ranging::SignalAccumulator ref_acc(n);
    ref_acc.record_chirp_block(ref_fired.data(), n);

    // Block: threshold runs + fused mask draw/accumulate.
    Rng blk_rng(1000 + trial, 11);
    acoustics::DetectorScratch blk_scratch;
    std::vector<resloc::math::BernoulliRun> runs;
    detector.fire_runs(w, n, mic, blk_scratch, runs);
    ASSERT_FALSE(runs.empty());
    EXPECT_EQ(runs.back().end, n) << "trial=" << trial;
    for (std::size_t r = 1; r < runs.size(); ++r) {
      ASSERT_LT(runs[r - 1].end, runs[r].end) << "trial=" << trial;
      ASSERT_NE(runs[r - 1].threshold, runs[r].threshold) << "unmerged runs, trial=" << trial;
    }
    ranging::SignalAccumulator blk_acc(n);
    blk_acc.record_chirp_bernoulli(blk_rng, runs);

    ASSERT_EQ(blk_acc.samples(), ref_acc.samples()) << "trial=" << trial;
    ASSERT_EQ(blk_rng.uniform_bits(), ref_rng.uniform_bits()) << "trial=" << trial;
  }
}

TEST(HardwareBlock, BernoulliDrawsEvenWhenCountersFull) {
  // The scalar path consumes RNG for every chirp past kMaxChirps; the fused
  // block accumulate must too, or streams desynchronize at chirp 16.
  const std::size_t n = 37;
  const std::vector<resloc::math::BernoulliRun> runs = {{n, Rng::bernoulli_threshold(0.5)}};
  Rng a(5, 1), b(5, 1);
  ranging::SignalAccumulator acc(n);
  for (int chirp = 0; chirp < ranging::SignalAccumulator::kMaxChirps + 4; ++chirp) {
    acc.record_chirp_bernoulli(a, runs);
  }
  for (int chirp = 0; chirp < ranging::SignalAccumulator::kMaxChirps + 4; ++chirp) {
    for (std::size_t i = 0; i < n; ++i) b.uniform_bits();
  }
  EXPECT_EQ(acc.chirps_recorded(), ranging::SignalAccumulator::kMaxChirps);
  EXPECT_EQ(a.uniform_bits(), b.uniform_bits());
}

TEST(RecordChirpBlock, CountsFiredSamplesOfTheFirstFifteenChirps) {
  Rng rng(99, 2);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(1, 300));
    const double rate = trial == 0 ? 1.0 : 0.4;  // trial 0: every counter saturates at 15
    ranging::SignalAccumulator acc(n);
    std::vector<std::uint8_t> expect(n, 0);
    for (int chirp = 0; chirp < 18; ++chirp) {
      std::vector<std::uint8_t> fired(n);
      for (std::size_t i = 0; i < n; ++i) {
        fired[i] = rng.bernoulli(rate) ? 1 : 0;
        if (chirp < ranging::SignalAccumulator::kMaxChirps) expect[i] += fired[i];
      }
      acc.record_chirp_block(fired.data(), n);
    }
    ASSERT_EQ(acc.samples(), expect) << "trial=" << trial;
    ASSERT_EQ(acc.chirps_recorded(), ranging::SignalAccumulator::kMaxChirps);
    if (trial == 0) {
      ASSERT_EQ(expect, std::vector<std::uint8_t>(n, 15));
    }
  }
}

TEST(GoertzelBlock, RunBlockMatchesStepAcrossResync) {
  // n > kResyncPeriod so the in-step exact resync happens mid-block.
  for (std::size_t n : {1u, 36u, 255u, 256u, 257u, 700u}) {
    Rng rng(3 + n, 4);
    std::vector<double> x(n);
    for (double& v : x) v = rng.gaussian(0.0, 1.0) + 0.5 * rng.uniform();
    ranging::GoertzelToneDetector blk(4300.0, 16000.0);
    ranging::GoertzelToneDetector ref(4300.0, 16000.0);
    std::vector<double> metric(n, 0.0);
    blk.run_block(x.data(), n, metric.data());
    for (std::size_t i = 0; i < n; ++i) {
      const double expect = ref.step(x[i]);
      ASSERT_EQ(std::memcmp(&metric[i], &expect, sizeof(double)), 0)
          << "n=" << n << " i=" << i;
    }
  }
}

TEST(MixKernel, MatchesFusedFormula) {
  Rng rng(17, 6);
  const std::size_t n = 513;
  std::vector<double> amplitude(n), tone(n), noise(n), out(n);
  std::vector<std::uint8_t> burst(n);
  for (std::size_t i = 0; i < n; ++i) {
    amplitude[i] = rng.uniform(0.0, 8.0);
    tone[i] = rng.uniform(-1.0, 1.0);
    noise[i] = rng.gaussian();
    burst[i] = rng.bernoulli(0.3) ? 1 : 0;
  }
  acoustics::mix_tone_noise_block(amplitude.data(), tone.data(), noise.data(), burst.data(),
                                  4.0, out.data(), n);
  for (std::size_t i = 0; i < n; ++i) {
    const double sigma = burst[i] != 0 ? 4.0 : 1.0;
    const double expect = amplitude[i] * tone[i] + sigma * noise[i];
    ASSERT_EQ(std::memcmp(&out[i], &expect, sizeof(double)), 0) << i;
  }
}

TEST(MatchedFilterBlock, MarksAPlateauAtEachPickedPeakClippedAtTheWindow) {
  Rng rng(23, 8);
  const std::size_t chirp = 128;
  const double step = 2.0 * resloc::math::kPi * 4300.0 / 16000.0;
  // The default plateau, and one longer than the chirp so a chirp at the
  // window's end has its plateau clipped at n.
  for (const int plateau : {ranging::MatchedFilterNcc::kDefaultPeakPlateau, 200}) {
    ranging::MatchedFilterNcc filt(ranging::MatchedFilterNcc::kDefaultThreshold, plateau);
    int peaks = 0;
    int clipped = 0;
    for (int trial = 0; trial < 20; ++trial) {
      const std::size_t n =
          static_cast<std::size_t>(rng.uniform_int(static_cast<std::int64_t>(chirp), 900));
      const std::size_t onset = trial % 2 == 0 ? n / 3 : n - chirp;
      std::vector<double> sin_t(n), cos_t(n);
      for (std::size_t i = 0; i < n; ++i) {
        sin_t[i] = std::sin(step * static_cast<double>(i));
        cos_t[i] = std::cos(step * static_cast<double>(i));
      }
      const acoustics::ToneTemplateView tpl{sin_t.data(), cos_t.data(), n};
      std::vector<double> x(n);
      for (std::size_t i = 0; i < n; ++i) {
        const bool in_chirp = i >= onset && i < onset + chirp;
        x[i] = (in_chirp ? 3.0 * tpl.sin_t[i] : 0.0) + rng.gaussian();
      }
      std::vector<std::uint8_t> marks(n, 0xCC);
      filt.detect_into(x.data(), n, chirp, tpl, marks.data());
      std::vector<std::uint8_t> expect(n, 0);
      for (const std::size_t peak : filt.peaks()) {
        ASSERT_LT(peak, n);
        const std::size_t end = std::min(n, peak + static_cast<std::size_t>(plateau));
        clipped += end < peak + static_cast<std::size_t>(plateau);
        std::fill(expect.begin() + static_cast<std::ptrdiff_t>(peak),
                  expect.begin() + static_cast<std::ptrdiff_t>(end), std::uint8_t{1});
      }
      peaks += static_cast<int>(filt.peaks().size());
      ASSERT_EQ(marks, expect) << "plateau=" << plateau << " trial=" << trial;
    }
    EXPECT_GT(peaks, 0) << "plateau=" << plateau;
    if (plateau > static_cast<int>(chirp)) {
      EXPECT_GT(clipped, 0);
    }
  }
}

TEST(SignalScanner, YieldsSameCandidatesAsRestartScan) {
  // Buffers up to 1,000 samples (mostly not a multiple of the 64-bit mask
  // word), windows up to 100 samples (wider than one word), sparse to dense
  // fill, and thresholds from 0 (every sample qualifies) to 5 (above every
  // count).
  Rng rng(31, 12);
  for (int trial = 0; trial < 600; ++trial) {
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(0, 1000));
    const double density = rng.uniform(0.0, 1.0);
    std::vector<std::uint8_t> samples(n);
    for (auto& s : samples) {
      s = static_cast<std::uint8_t>(rng.bernoulli(density) ? rng.uniform_int(1, 4) : 0);
    }
    ranging::DetectionParams params;
    params.threshold = static_cast<int>(rng.uniform_int(0, 5));
    params.window = static_cast<int>(rng.uniform_int(1, 100));
    params.min_detections = static_cast<int>(rng.uniform_int(1, params.window));
    ranging::SignalScanner scanner(samples, params);
    int expect = resloc::reference::detect_signal(samples, params, 0);
    int guard = 0;
    for (;;) {
      const int got = scanner.next();
      ASSERT_EQ(got, expect) << "trial=" << trial;
      // The pattern check over the same mask, gap and noise budget random.
      const int gap = static_cast<int>(rng.uniform_int(0, 120));
      const int max_noisy = static_cast<int>(rng.uniform_int(-1, 8));
      ASSERT_EQ(scanner.quiet_before(got, gap, max_noisy),
                resloc::reference::verify_preceding_silence(samples, got, gap, params.threshold,
                                                            max_noisy))
          << "trial=" << trial << " index=" << got;
      if (got < 0) break;
      expect = resloc::reference::detect_signal(samples, params, got + 1);
      ASSERT_LE(++guard, static_cast<int>(n));  // at most one hit per start
    }
    // Exhausted scanners stay exhausted.
    EXPECT_EQ(scanner.next(), -1);
  }
}

/// End-to-end: RangingService and the per-sample reference measure must
/// agree on every diagnostic field and leave the generator in the identical
/// state, for all three detector front ends.
void expect_service_equivalence(ranging::DetectorMode mode) {
  ranging::RangingConfig cfg;
  cfg.detector_mode = mode;
  cfg.max_window_range_m = 22.0;
  const ranging::RangingService block(cfg);

  Rng unit_rng(61, 2);
  const acoustics::UnitVariationModel units;
  for (int trial = 0; trial < 12; ++trial) {
    acoustics::SpeakerUnit speaker = units.sample_speaker(acoustics::kLoudspeakerDb, unit_rng);
    acoustics::MicUnit mic = units.sample_mic(unit_rng);
    if (trial == 5) mic.faulty = true;   // exercise the faulty-mic branches
    if (trial == 7) speaker.faulty = true;
    const double d = 0.5 + 1.7 * trial;

    Rng ref_rng(900 + trial, 21);
    Rng blk_rng(900 + trial, 21);
    resloc::reference::MeasureScratch ref_scratch;
    ranging::RangingScratch blk_scratch;
    const ranging::RangingAttempt a =
        resloc::reference::measure_per_sample(block, d, speaker, mic, ref_rng, ref_scratch);
    const ranging::RangingAttempt b = block.measure(d, speaker, mic, blk_rng, blk_scratch);

    ASSERT_EQ(a.distance_m.has_value(), b.distance_m.has_value()) << "trial=" << trial;
    if (a.distance_m) {
      ASSERT_EQ(std::memcmp(&*a.distance_m, &*b.distance_m, sizeof(double)), 0)
          << "trial=" << trial;
    }
    ASSERT_EQ(a.detection_index, b.detection_index) << "trial=" << trial;
    ASSERT_EQ(a.rejected_detections, b.rejected_detections) << "trial=" << trial;
    ASSERT_EQ(ref_scratch.counts, blk_scratch.accumulator.samples()) << "trial=" << trial;
    ASSERT_EQ(ref_rng.uniform_bits(), blk_rng.uniform_bits()) << "trial=" << trial;
    ASSERT_EQ(ref_rng.gaussian(), blk_rng.gaussian()) << "trial=" << trial;
  }
}

TEST(RangingServiceBlockEquivalence, Hardware) {
  expect_service_equivalence(ranging::DetectorMode::kHardware);
}

TEST(RangingServiceBlockEquivalence, Goertzel) {
  expect_service_equivalence(ranging::DetectorMode::kGoertzel);
}

TEST(RangingServiceBlockEquivalence, MatchedFilter) {
  expect_service_equivalence(ranging::DetectorMode::kMatchedFilter);
}

/// One scratch carried across two differently-tuned services (4.3 and
/// 4.0 kHz) and back must give exactly what a fresh scratch per call gives:
/// nothing tuning-dependent may survive in it from one service to the next.
void expect_scratch_migrates_between_services(ranging::DetectorMode mode) {
  ranging::RangingConfig cfg_43;
  cfg_43.detector_mode = mode;
  cfg_43.max_window_range_m = 22.0;
  ranging::RangingConfig cfg_40 = cfg_43;
  cfg_40.pattern.tone_frequency_hz = 4000.0;
  const ranging::RangingService service_43(cfg_43);
  const ranging::RangingService service_40(cfg_40);
  const acoustics::SpeakerUnit speaker;
  const acoustics::MicUnit mic;

  ranging::RangingScratch shared;
  int detected = 0;
  for (int trial = 0; trial < 12; ++trial) {
    const ranging::RangingService& service = (trial / 3) % 2 == 0 ? service_43 : service_40;
    const double d = 2.0 + 1.3 * trial;
    Rng fresh_rng(300 + trial, 4);
    Rng reused_rng(300 + trial, 4);
    ranging::RangingScratch fresh_scratch;
    const auto fresh = service.measure(d, speaker, mic, fresh_rng, fresh_scratch).distance_m;
    const auto reused = service.measure(d, speaker, mic, reused_rng, shared).distance_m;
    ASSERT_EQ(fresh.has_value(), reused.has_value()) << "trial=" << trial;
    if (fresh) {
      ASSERT_EQ(std::memcmp(&*fresh, &*reused, sizeof(double)), 0) << "trial=" << trial;
      ++detected;
    }
    ASSERT_EQ(fresh_rng.uniform_bits(), reused_rng.uniform_bits()) << "trial=" << trial;
  }
  EXPECT_GT(detected, 6);
}

TEST(RangingScratchReuse, GoertzelScratchMigratesBetweenTunedServices) {
  expect_scratch_migrates_between_services(ranging::DetectorMode::kGoertzel);
}

TEST(RangingScratchReuse, NccScratchMigratesBetweenTunedServices) {
  expect_scratch_migrates_between_services(ranging::DetectorMode::kMatchedFilter);
}

}  // namespace
