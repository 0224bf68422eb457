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
#include <string>
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
#include "reference/dft.hpp"
#include "reference/matched_filter.hpp"
#include "reference/ranging.hpp"

namespace {

using resloc::math::Rng;
namespace acoustics = resloc::acoustics;
namespace ranging = resloc::ranging;

// Sizes chosen to cross the 8-draw group of fill_uniform_bits_block, every
// residue of its 8-word group count mod 4 (the AVX-512 variant's 4-group
// iteration: 16, 24 and 40 words end one with 2, 3 and 1 groups), and the
// Goertzel 256-step resync period, plus odd/partial-tail cases.
const std::size_t kBlockSizes[] = {0,  1,  2,   3,   4,   5,   7,   8,   9,   16,
                                   24, 31, 36, 40, 100, 255, 256, 257, 1163};

TEST(RngBlocks, UniformBitsBlockMatchesSequential) {
  constexpr std::uint64_t kGuard = 0x5A5A5A5A5A5A5A5AULL;
  for (std::size_t n : kBlockSizes) {
    Rng a(0x1234u + n, 7);
    Rng b(0x1234u + n, 7);
    // A whole 32-word iteration of guard words past the block.
    std::vector<std::uint64_t> block(n + 32, kGuard);
    a.fill_uniform_bits_block(block.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(block[i], b.uniform_bits()) << "n=" << n << " i=" << i;
    }
    for (std::size_t i = n; i < n + 32; ++i) {
      ASSERT_EQ(block[i], kGuard) << "wrote past the block, n=" << n << " i=" << i;
    }
    // Post-call state: the next draws must agree too.
    for (int i = 0; i < 8; ++i) ASSERT_EQ(a.uniform_bits(), b.uniform_bits());
  }
}

using UniformBitsGroups = std::uint64_t (*)(std::uint64_t, std::uint64_t, std::uint64_t*,
                                            std::size_t);

/// Runs one uniform-bits variant from a generator's state over whole groups
/// and checks every output, the word past them and the final state against
/// sequential uniform_bits().
void expect_uniform_bits_matches_sequential(UniformBitsGroups fill_groups) {
  constexpr std::uint64_t kGuard = 0x5A5A5A5A5A5A5A5AULL;
  for (int trial = 0; trial < 20; ++trial) {
    for (std::size_t groups : {0u, 1u, 2u, 3u, 7u, 64u, 145u}) {
      Rng a(0x4321u + static_cast<std::uint64_t>(trial), 3 + groups);
      Rng b = a;
      std::vector<std::uint64_t> out(8 * groups + 1, kGuard);
      std::uint64_t& state = resloc::math::RngState::state(a);
      state = fill_groups(state, resloc::math::RngState::inc(a), out.data(), groups);
      for (std::size_t i = 0; i < 8 * groups; ++i) {
        ASSERT_EQ(out[i], b.uniform_bits()) << "trial=" << trial << " groups=" << groups;
      }
      ASSERT_EQ(out[8 * groups], kGuard) << "wrote past the groups, groups=" << groups;
      for (int i = 0; i < 4; ++i) ASSERT_EQ(a.uniform_bits(), b.uniform_bits());
    }
  }
}

TEST(RngBlocks, UniformBitsPortableMatchesSequential) {
  expect_uniform_bits_matches_sequential(&resloc::math::uniform_bits::portable);
}

TEST(RngBlocks, UniformBitsAvx2MatchesSequential) {
#if RESLOC_X86_SIMD
  if (!resloc::math::cpu_has_avx2_kernels()) GTEST_SKIP() << "host has no AVX2";
  expect_uniform_bits_matches_sequential(&resloc::math::uniform_bits::avx2);
#else
  GTEST_SKIP() << "no x86 SIMD variants in this build";
#endif
}

TEST(RngBlocks, UniformBitsAvx512MatchesSequential) {
#if RESLOC_X86_SIMD
  if (!resloc::math::cpu_has_avx512_kernels()) GTEST_SKIP() << "host has no AVX-512";
  expect_uniform_bits_matches_sequential(&resloc::math::uniform_bits::avx512);
#else
  GTEST_SKIP() << "no x86 SIMD variants in this build";
#endif
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

using GaussianFill = void (*)(Rng&, double*, std::size_t);

/// Runs one block normal fill against the oracle: every output bit, the
/// post-call generator state, and a Box-Muller half left pending before the
/// block, which the block must neither consume nor clear.
void expect_gaussian_matches_oracle(GaussianFill fill) {
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
      fill(a, block.data(), n);
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

TEST(RngBlocks, GaussianBlockMatchesZigguratOracleAndKeepsCachedHalf) {
  expect_gaussian_matches_oracle(
      [](Rng& rng, double* out, std::size_t n) { rng.fill_gaussian_block(out, n); });
}

/// fill_gaussian_block with the given fast-path variant in place of the
/// dispatched one: step 1's words are drawn by fill_uniform_bits_block.
template <GaussianFill kFastPath>
void fill_with_fast_path(Rng& rng, double* out, std::size_t n) {
  std::vector<std::uint64_t> words(n);
  rng.fill_uniform_bits_block(words.data(), n);
  if (n > 0) std::memcpy(out, words.data(), n * sizeof(double));
  kFastPath(rng, out, n);
}

TEST(RngBlocks, GaussianFastPathPortableMatchesZigguratOracle) {
  expect_gaussian_matches_oracle(
      &fill_with_fast_path<&resloc::math::gaussian_fast_path::portable>);
}

TEST(RngBlocks, GaussianFastPathAvx512MatchesZigguratOracle) {
#if RESLOC_X86_SIMD
  if (!resloc::math::cpu_has_avx512_kernels()) GTEST_SKIP() << "host has no AVX-512";
  expect_gaussian_matches_oracle(&fill_with_fast_path<&resloc::math::gaussian_fast_path::avx512>);
#else
  GTEST_SKIP() << "no x86 SIMD variants in this build";
#endif
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

/// Tallies of the forced hi-word ties the mask checks below settled.
struct TieTally {
  std::size_t fired = 0;
  std::size_t missed = 0;
};

/// Fills an n-sample mask from `a` through `fill` and checks it against
/// sequential uniform_bits() < threshold: every mask word, the word past the
/// mask left untouched, and the generator's state after the block.
void expect_mask_matches(MaskFill fill, Rng a, const std::vector<BernoulliRun>& runs,
                         std::size_t n, TieTally& ties, const std::string& label) {
  constexpr std::uint64_t kGuard = 0xA5A5A5A5A5A5A5A5ULL;
  Rng peek = a;
  const std::size_t mask_words = (n + 63) / 64;
  std::vector<std::uint64_t> expect(mask_words, 0);
  std::size_t run = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t word = peek.uniform_bits();
    while (runs[run].end <= i) ++run;
    const std::uint64_t t = runs[run].threshold;
    const bool fires = word < t;
    if (t < kAlwaysFires && (word >> 21) == (t >> 21)) ++(fires ? ties.fired : ties.missed);
    if (fires) expect[i / 64] |= std::uint64_t{1} << (i % 64);
  }
  std::vector<std::uint64_t> mask(mask_words + 1, kGuard);
  fill(a, runs, n, mask.data());
  for (std::size_t w = 0; w < mask_words; ++w) {
    ASSERT_EQ(mask[w], expect[w]) << label << " n=" << n << " word=" << w;
  }
  ASSERT_EQ(mask[mask_words], kGuard) << label << " wrote past the mask, n=" << n;
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(a.uniform_bits(), peek.uniform_bits()) << label << " final state, n=" << n;
  }
}

/// The n draws a block from `rng` would make.
std::vector<std::uint64_t> upcoming_words(Rng rng, std::size_t n) {
  std::vector<std::uint64_t> words(n);
  for (std::uint64_t& w : words) w = rng.uniform_bits();
  return words;
}

/// Drives `fill` against sequential uniform_bits() < threshold over random
/// run lists, a one-run-per-sample all-ties list, and sizes on both sides of
/// every lane-group width (8, 16, 64) and of the hardware detector's
/// 1164-sample window; then over a run edge at every offset of one 64-sample
/// group and groups with three and more edges, each edge set once between
/// never/always-firing runs (so a threshold one lane off flips a bit) and
/// once between forced ties on both sides of it (so the tie's run walk
/// must land on the right run).
void expect_mask_matches_sequential(MaskFill fill) {
  const std::size_t sizes[] = {1,  7,   8,   9,   15,  16,  17,   31,  33,
                               63, 64,  65,  127, 128, 129, 1164, 1994};
  Rng gen(0xB17, 3);
  TieTally ties;
  std::size_t samples = 0;
  for (int trial = 0; trial < 120; ++trial) {
    for (std::size_t n : sizes) {
      const Rng a(0x5EED + static_cast<std::uint64_t>(trial), 1 + n);
      const std::vector<std::uint64_t> words = upcoming_words(a, n);
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
      samples += n;
      expect_mask_matches(fill, a, runs, n, ties, "trial=" + std::to_string(trial));
    }
  }
  // Ties are ~2^-32 events on their own; the fixture must force plenty,
  // settled both ways.
  EXPECT_GE(ties.fired, samples / 32);
  EXPECT_GE(ties.missed, samples / 32);

  // Edges inside the second group of a 3.3-group block.
  constexpr std::size_t kEdgeN = 3 * 64 + 21;
  const auto tie_at = [&](const std::vector<std::uint64_t>& words, std::size_t i) {
    return tie_threshold(words[i], static_cast<std::uint64_t>(gen.uniform_int(0, (1 << 21) - 1)));
  };
  for (std::size_t offset = 1; offset < 64; ++offset) {
    const std::size_t edge = 64 + offset;
    const Rng a(0xED6E + offset, 11);
    const std::vector<std::uint64_t> words = upcoming_words(a, kEdgeN);
    const std::string label = "edge at group offset " + std::to_string(offset);
    expect_mask_matches(fill, a, {{edge, 0}, {kEdgeN, kAlwaysFires}}, kEdgeN, ties, label);
    expect_mask_matches(fill, a, {{edge, kAlwaysFires}, {kEdgeN, 0}}, kEdgeN, ties, label);
    expect_mask_matches(fill, a,
                        {{edge, tie_at(words, edge - 1)}, {kEdgeN, tie_at(words, edge)}},
                        kEdgeN, ties, label + " (ties)");
  }
  // Three and more edges in one group, runs of one sample among them.
  const std::vector<std::vector<std::size_t>> edge_sets = {
      {64 + 5, 64 + 20, 64 + 21},
      {64 + 1, 64 + 2, 64 + 3, 64 + 40, 64 + 63},
      {3, 64 + 16, 64 + 17, 64 + 32, 64 + 48, 3 * 64 + 1}};
  for (std::size_t k = 0; k < edge_sets.size(); ++k) {
    const Rng a(0x3ED6E + k, 13);
    const std::vector<std::uint64_t> words = upcoming_words(a, kEdgeN);
    std::vector<BernoulliRun> alternating;
    std::vector<BernoulliRun> tied;
    std::size_t start = 0;
    for (std::size_t end : edge_sets[k]) {
      alternating.push_back({end, alternating.size() % 2 ? kAlwaysFires : 0});
      tied.push_back({end, tie_at(words, start)});
      start = end;
    }
    alternating.push_back({kEdgeN, alternating.size() % 2 ? kAlwaysFires : 0});
    tied.push_back({kEdgeN, tie_at(words, start)});
    const std::string label = "edge set " + std::to_string(k);
    expect_mask_matches(fill, a, alternating, kEdgeN, ties, label);
    expect_mask_matches(fill, a, tied, kEdgeN, ties, label + " (ties)");
  }
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

using resloc::reference::counts_of;
using resloc::reference::fired_mask;

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
    ranging::SignalAccumulator ref_acc(n);
    ref_acc.record_chirp(fired_mask(ref_out).data());

    // Block: threshold runs + mask draw, then the bitmask accumulate.
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
    std::vector<std::uint64_t> fired((n + 63) / 64);
    blk_rng.fill_bernoulli_mask_block(runs, n, fired.data());
    ranging::SignalAccumulator blk_acc(n);
    blk_acc.record_chirp(fired.data());

    ASSERT_EQ(counts_of(blk_acc), counts_of(ref_acc)) << "trial=" << trial;
    ASSERT_EQ(blk_rng.uniform_bits(), ref_rng.uniform_bits()) << "trial=" << trial;
  }
}

TEST(HardwareBlock, BernoulliDrawsEvenWhenCountersFull) {
  // The scalar path consumes RNG for every chirp past kMaxChirps; the block
  // path's mask draw + record must too, or streams desynchronize at chirp 16.
  const std::size_t n = 37;
  const std::vector<resloc::math::BernoulliRun> runs = {{n, Rng::bernoulli_threshold(0.5)}};
  Rng a(5, 1), b(5, 1);
  ranging::SignalAccumulator acc(n);
  std::vector<std::uint64_t> fired((n + 63) / 64);
  for (int chirp = 0; chirp < ranging::SignalAccumulator::kMaxChirps + 4; ++chirp) {
    a.fill_bernoulli_mask_block(runs, n, fired.data());
    acc.record_chirp(fired.data());
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
      std::vector<bool> fired(n);
      for (std::size_t i = 0; i < n; ++i) {
        fired[i] = rng.bernoulli(rate);
        if (chirp < ranging::SignalAccumulator::kMaxChirps) expect[i] += fired[i];
      }
      acc.record_chirp(fired_mask(fired).data());
    }
    ASSERT_EQ(counts_of(acc), expect) << "trial=" << trial;
    ASSERT_EQ(acc.chirps_recorded(), ranging::SignalAccumulator::kMaxChirps);
    if (trial == 0) {
      ASSERT_EQ(expect, std::vector<std::uint8_t>(n, 15));
    }
  }
}

TEST(GoertzelBlock, RunBlockMatchesStepAcrossResync) {
  // n > kResyncPeriod so the in-step exact resync happens mid-block; 1163
  // and 2000 run past four and seven resync periods.
  for (std::size_t n : {1u, 36u, 255u, 256u, 257u, 700u, 1163u, 2000u}) {
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

/// reference::GoertzelOracle over a whole series.
std::vector<double> goertzel_oracle(const std::vector<double>& x, double tone_hz,
                                    double rate_hz) {
  resloc::reference::GoertzelOracle oracle(tone_hz, rate_hz);
  std::vector<double> metric(x.size());
  for (std::size_t k = 0; k < x.size(); ++k) metric[k] = oracle.step(x[k]);
  return metric;
}

TEST(GoertzelBlock, MatchesScalarOracleAtAnyBlockSplit) {
  // The block recurrence runs the samples between ring wraps and resyncs
  // without their checks; feeding the same stream in blocks that start at
  // every phase of the ring and of the resync period must not move a bit.
  Rng rng(29, 5);
  const std::size_t n = 2000;
  std::vector<double> x(n);
  for (double& v : x) v = rng.gaussian(0.0, 1.0) + 0.5 * rng.uniform();
  const std::vector<double> expect = goertzel_oracle(x, 4300.0, 16000.0);
  for (const std::size_t block : {std::size_t{1}, std::size_t{7}, std::size_t{35},
                                  std::size_t{36}, std::size_t{37}, std::size_t{255},
                                  std::size_t{256}, std::size_t{257}, n}) {
    ranging::GoertzelToneDetector det(4300.0, 16000.0);
    std::vector<double> metric(n, 0.0);
    for (std::size_t i = 0; i < n; i += block) {
      det.run_block(x.data() + i, std::min(block, n - i), metric.data() + i);
    }
    ASSERT_EQ(std::memcmp(metric.data(), expect.data(), n * sizeof(double)), 0)
        << "block=" << block;
  }
  ranging::GoertzelToneDetector det(4300.0, 16000.0);
  for (std::size_t i = 0; i < n; ++i) {
    const double m = det.step(x[i]);
    ASSERT_EQ(std::memcmp(&m, &expect[i], sizeof(double)), 0) << "step i=" << i;
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
      std::vector<std::uint64_t> marks((n + 63) / 64, 0xCCCCCCCCCCCCCCCCULL);
      filt.detect_into(x.data(), n, chirp, tpl, marks.data());
      std::vector<bool> expect(n, false);
      for (const std::size_t peak : filt.peaks()) {
        ASSERT_LT(peak, n);
        const std::size_t end = std::min(n, peak + static_cast<std::size_t>(plateau));
        clipped += end < peak + static_cast<std::size_t>(plateau);
        std::fill(expect.begin() + static_cast<std::ptrdiff_t>(peak),
                  expect.begin() + static_cast<std::ptrdiff_t>(end), true);
      }
      peaks += static_cast<int>(filt.peaks().size());
      ASSERT_EQ(marks, fired_mask(expect)) << "plateau=" << plateau << " trial=" << trial;
    }
    EXPECT_GT(peaks, 0) << "plateau=" << plateau;
    if (plateau > static_cast<int>(chirp)) {
      EXPECT_GT(clipped, 0);
    }
  }
}

/// One NCC test window: unit noise, optionally with exact-zero stretches
/// (lags whose window energy is 0) and a planted chirp plus an echo.
struct NccScene {
  std::vector<double> x;
  std::vector<double> sin_t;
  std::vector<double> cos_t;
};

NccScene ncc_scene(Rng& rng, std::size_t n, std::size_t chirp, bool zero_stretches,
                   bool planted) {
  const double step = 2.0 * resloc::math::kPi * 4300.0 / 16000.0;
  NccScene s{std::vector<double>(n), std::vector<double>(n), std::vector<double>(n)};
  for (std::size_t i = 0; i < n; ++i) {
    s.sin_t[i] = std::sin(step * static_cast<double>(i));
    s.cos_t[i] = std::cos(step * static_cast<double>(i));
    s.x[i] = rng.gaussian();
  }
  if (planted) {
    // Direct arrival at n/4 and an echo 3L/4 later, beyond the +-L/2
    // suppression radius so it is picked as a peak of its own.
    const std::size_t onset = n / 4;
    const std::size_t echo = onset + 3 * chirp / 4;
    for (std::size_t i = onset; i < std::min(n, onset + chirp); ++i) s.x[i] += 3.0 * s.sin_t[i];
    for (std::size_t i = echo; i < std::min(n, echo + chirp); ++i) s.x[i] += 2.0 * s.cos_t[i];
  }
  if (zero_stretches) {
    // Silence at the start, and one stretch longer than the chirp ending
    // just before the window's end: whole lag windows with energy exactly 0.
    for (std::size_t i = 0; i < std::min(n, chirp + 5); ++i) s.x[i] = 0.0;
    const std::size_t len = chirp + chirp / 2;
    const std::size_t hi = n > 3 ? n - 3 : 0;
    for (std::size_t i = hi > len ? hi - len : 0; i < hi; ++i) s.x[i] = 0.0;
  }
  return s;
}

TEST(MatchedFilterBlock, ScanMatchesReferenceBitForBit) {
  // Every picked peak and mark word must equal the scalar reference scan's.
  // Besides the default threshold, each window is rescanned at thresholds on
  // the reference's own NCC values at its dominant maxima (and one ulp
  // above), so a last-ulp change of the statistic at any such lag moves the
  // pick and fails the test.
  Rng rng(41, 9);
  int compared = 0;
  int planted_peaks = 0;
  int zero_lags = 0;
  for (const std::size_t chirp : {std::size_t{128}, std::size_t{37}}) {
    for (const std::size_t n : {chirp, chirp + 1, std::size_t{1163}, std::size_t{2000}}) {
      for (int scene = 0; scene < 4; ++scene) {
        const NccScene s = ncc_scene(rng, n, chirp, scene & 1, scene & 2);
        const acoustics::ToneTemplateView tpl{s.sin_t.data(), s.cos_t.data(), n};
        const auto expect_same = [&](double threshold) {
          ranging::MatchedFilterNcc filt(threshold);
          resloc::reference::ScalarNcc ref(threshold);
          std::vector<std::uint64_t> marks((n + 63) / 64, 0xCCCCCCCCCCCCCCCCULL);
          std::vector<std::uint64_t> ref_marks((n + 63) / 64, 0x3333333333333333ULL);
          filt.detect_into(s.x.data(), n, chirp, tpl, marks.data());
          ref.detect_into(s.x.data(), n, chirp, tpl, ref_marks.data());
          ++compared;
          EXPECT_EQ(filt.peaks(), ref.peaks())
              << "L=" << chirp << " n=" << n << " scene=" << scene << " t=" << threshold;
          EXPECT_EQ(marks, ref_marks)
              << "L=" << chirp << " n=" << n << " scene=" << scene << " t=" << threshold;
          return ref;
        };
        const resloc::reference::ScalarNcc at_default =
            expect_same(ranging::MatchedFilterNcc::kDefaultThreshold);
        if (scene & 2) planted_peaks += static_cast<int>(at_default.peaks().size());
        const resloc::reference::ScalarNcc all_maxima = expect_same(0.0);
        for (const double v : all_maxima.ncc()) zero_lags += v == 0.0;
        for (const std::size_t p : all_maxima.peaks()) {
          const double v = all_maxima.ncc()[p];
          expect_same(v);
          expect_same(std::nextafter(v, 2.0));
        }
      }
    }
  }
  // The fixture must reach the planted peaks and the zero-energy lags.
  EXPECT_GT(compared, 100);
  EXPECT_GE(planted_peaks, 4);
  EXPECT_GT(zero_lags, 0);
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
    ranging::SignalScanner scanner(resloc::reference::accumulator_from_counts(samples), params);
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
/// agree on every diagnostic field, on the last window's detector series
/// and on the generator's final state, for all three detector front ends.
/// The reference runs its own detectors (GoertzelOracle, ScalarNcc), never
/// the production kernels.
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
    ASSERT_EQ(ref_scratch.counts, counts_of(blk_scratch.accumulator)) << "trial=" << trial;
    ASSERT_EQ(ref_rng.uniform_bits(), blk_rng.uniform_bits()) << "trial=" << trial;
    ASSERT_EQ(ref_rng.gaussian(), blk_rng.gaussian()) << "trial=" << trial;
    // The last window's continuous detector output, so that a change to a
    // detector kernel fails here even where it moves no detection.
    const auto expect_same_series = [&](const std::vector<double>& ref,
                                        const std::vector<double>& blk, const char* what) {
      ASSERT_EQ(ref.size(), blk.size()) << what << " trial=" << trial;
      EXPECT_EQ(std::memcmp(ref.data(), blk.data(), ref.size() * sizeof(double)), 0)
          << what << " trial=" << trial;
    };
    if (mode == ranging::DetectorMode::kGoertzel) {
      expect_same_series(ref_scratch.metric, blk_scratch.metric, "Goertzel metric");
    }
    if (mode == ranging::DetectorMode::kMatchedFilter) {
      ASSERT_TRUE(blk_scratch.ncc.has_value());
      expect_same_series(ref_scratch.ncc.ncc(), blk_scratch.ncc->ncc(), "NCC series");
    }
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
