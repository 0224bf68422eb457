#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "math/rng.hpp"
#include "math/stats.hpp"

namespace {

using resloc::math::Rng;

TEST(Rng, DeterministicPerSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u32(), b.next_u32());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u32() == b.next_u32()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(11);
  std::vector<double> draws;
  for (int i = 0; i < 20000; ++i) draws.push_back(rng.uniform());
  EXPECT_NEAR(resloc::math::mean(draws), 0.5, 0.01);
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(13);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(2, 5);
    EXPECT_GE(v, 2);
    EXPECT_LE(v, 5);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 4u);  // all four values hit
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(15);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(7, 7), 7);
}

TEST(Rng, GaussianMoments) {
  Rng rng(17);
  std::vector<double> draws;
  for (int i = 0; i < 50000; ++i) draws.push_back(rng.gaussian(2.0, 3.0));
  EXPECT_NEAR(resloc::math::mean(draws), 2.0, 0.08);
  EXPECT_NEAR(resloc::math::stddev(draws), 3.0, 0.08);
}

// --- The block normal stream (ziggurat) against N(0, 1) ---

/// 2^21 standard normals from fill_gaussian_block, drawn in the window-sized
/// blocks the sampled-audio detectors use.
const std::vector<double>& block_normals() {
  static const std::vector<double> draws = [] {
    constexpr std::size_t kDraws = std::size_t{1} << 21;
    constexpr std::size_t kBlock = 1163;
    std::vector<double> out(kDraws);
    Rng rng(0x2A61);
    for (std::size_t at = 0; at < kDraws; at += kBlock) {
      rng.fill_gaussian_block(out.data() + at, std::min(kBlock, kDraws - at));
    }
    return out;
  }();
  return draws;
}

double standard_normal_cdf(double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); }

TEST(RngGaussianBlock, MomentsMatchStandardNormal) {
  const std::vector<double>& z = block_normals();
  const double n = static_cast<double>(z.size());
  double s1 = 0.0;
  for (double v : z) s1 += v;
  const double mean = s1 / n;
  double m2 = 0.0, m3 = 0.0, m4 = 0.0;
  for (double v : z) {
    const double d = v - mean;
    const double d2 = d * d;
    m2 += d2;
    m3 += d2 * d;
    m4 += d2 * d2;
  }
  m2 /= n;
  m3 /= n;
  m4 /= n;
  // Bounds are ~5 standard errors at n = 2^21: sqrt(1/n), sqrt(2/n),
  // sqrt(6/n) and sqrt(24/n) for mean, variance, skew and kurtosis.
  EXPECT_NEAR(mean, 0.0, 5.0 * std::sqrt(1.0 / n));
  EXPECT_NEAR(m2, 1.0, 5.0 * std::sqrt(2.0 / n));
  EXPECT_NEAR(m3 / std::pow(m2, 1.5), 0.0, 5.0 * std::sqrt(6.0 / n));
  EXPECT_NEAR(m4 / (m2 * m2), 3.0, 5.0 * std::sqrt(24.0 / n));
}

TEST(RngGaussianBlock, KolmogorovSmirnovAgainstPhi) {
  // The exact statistic needs a sort; a 2^16-bin histogram over [-8, 8]
  // gives an upper bound on it instead: inside bin [e_b, e_b+1) the
  // empirical CDF lies in [C_b, C_b+1] / n and Phi in [Phi(e_b), Phi(e_b+1)],
  // where C_b counts the draws below e_b. Testing the bound is only stricter.
  const std::vector<double>& z = block_normals();
  constexpr std::size_t kBins = std::size_t{1} << 16;
  constexpr double kLo = -8.0;
  constexpr double kWidth = 16.0 / static_cast<double>(kBins);
  std::vector<std::size_t> hist(kBins, 0);
  for (double v : z) {
    const double pos = std::clamp((v - kLo) / kWidth, 0.0, static_cast<double>(kBins - 1));
    ++hist[static_cast<std::size_t>(pos)];
  }
  const double n = static_cast<double>(z.size());
  double d_upper = 0.0;
  std::size_t below = 0;
  double cdf_lo = standard_normal_cdf(kLo);
  for (std::size_t b = 0; b < kBins; ++b) {
    const double cdf_hi = standard_normal_cdf(kLo + static_cast<double>(b + 1) * kWidth);
    const std::size_t below_next = below + hist[b];
    d_upper = std::max({d_upper, static_cast<double>(below_next) / n - cdf_lo,
                        cdf_hi - static_cast<double>(below) / n});
    below = below_next;
    cdf_lo = cdf_hi;
  }
  // The alpha = 0.001 critical value of the one-sample KS statistic.
  EXPECT_LT(d_upper, 1.95 / std::sqrt(n)) << "D <= " << d_upper;
}

TEST(RngGaussianBlock, TailMassPastFourSigmaWithinPoissonBound) {
  const std::vector<double>& z = block_normals();
  // P(|Z| > t) = erfc(t / sqrt(2)); t = 4 lies beyond the ziggurat's
  // R ~ 3.654, so this is the tail algorithm's mass, not the layers'.
  const auto check = [&](double t) {
    const double expected = static_cast<double>(z.size()) * std::erfc(t / std::sqrt(2.0));
    const auto count = static_cast<double>(
        std::count_if(z.begin(), z.end(), [t](double v) { return std::abs(v) > t; }));
    EXPECT_NEAR(count, expected, 5.0 * std::sqrt(expected)) << "t = " << t;
  };
  check(4.0);
  check(resloc::math::NormalZiggurat::kTailStart);
}

TEST(RngGaussianBlock, SignsAreSymmetric) {
  const std::vector<double>& z = block_normals();
  const auto positive =
      static_cast<double>(std::count_if(z.begin(), z.end(), [](double v) { return v > 0.0; }));
  const double n = static_cast<double>(z.size());
  EXPECT_EQ(std::count(z.begin(), z.end(), 0.0), 0);  // the signed lattice never hits 0
  EXPECT_NEAR(positive, 0.5 * n, 5.0 * 0.5 * std::sqrt(n));
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(19);
  int hits = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.02);
}

TEST(Rng, BernoulliDegenerate) {
  Rng rng(21);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, ExponentialMean) {
  Rng rng(23);
  std::vector<double> draws;
  for (int i = 0; i < 50000; ++i) draws.push_back(rng.exponential(2.0));
  EXPECT_NEAR(resloc::math::mean(draws), 0.5, 0.02);
  for (double d : draws) EXPECT_GE(d, 0.0);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(25);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto shuffled = v;
  rng.shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(Rng, SampleIndicesDistinct) {
  Rng rng(27);
  const auto sample = rng.sample_indices(100, 30);
  EXPECT_EQ(sample.size(), 30u);
  const std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 30u);
  for (std::size_t idx : sample) EXPECT_LT(idx, 100u);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(31);
  Rng child = parent.split();
  // Child stream should not replay the parent's continuation.
  Rng parent_copy(31);
  Rng child_copy = parent_copy.split();
  int same_as_parent = 0;
  for (int i = 0; i < 64; ++i) {
    const auto c = child.next_u32();
    EXPECT_EQ(c, child_copy.next_u32());  // but still deterministic
    if (c == parent.next_u32()) ++same_as_parent;
  }
  EXPECT_LT(same_as_parent, 4);
}

TEST(Rng, SampleIndicesClampsOversizedRequest) {
  Rng rng(29);
  const auto sample = rng.sample_indices(5, 50);
  EXPECT_EQ(sample.size(), 5u);
  const std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 5u);  // no duplicate padding
}

TEST(Rng, ForkIsDeterministicAndOrderIndependent) {
  const Rng master(101);
  Rng a = master.fork(7);
  // Forking other indices first (even from another copy) must not matter.
  Rng master2(101);
  master2.fork(3);
  master2.fork(12345);
  Rng b = master2.fork(7);
  for (int i = 0; i < 256; ++i) {
    EXPECT_EQ(a.next_u32(), b.next_u32());
  }
}

TEST(Rng, ForkDoesNotAdvanceParent) {
  Rng forked(55);
  Rng untouched(55);
  forked.fork(0);
  forked.fork(99);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(forked.next_u32(), untouched.next_u32());
  }
}

TEST(Rng, ForkedStreamsAreDecorrelated) {
  const Rng master(202);
  // Adjacent indices -- the hardest case for a counter-based scheme -- must
  // produce streams that neither collide nor track each other.
  for (std::uint64_t idx : {0ULL, 1ULL, 2ULL, 1000ULL}) {
    Rng a = master.fork(idx);
    Rng b = master.fork(idx + 1);
    int same = 0;
    std::vector<double> draws_a, draws_b;
    for (int i = 0; i < 2000; ++i) {
      const auto ua = a.next_u32();
      const auto ub = b.next_u32();
      if (ua == ub) ++same;
      draws_a.push_back(static_cast<double>(ua));
      draws_b.push_back(static_cast<double>(ub));
    }
    EXPECT_LT(same, 4);
    // Pearson correlation of the raw outputs should be ~0.
    const double ma = resloc::math::mean(draws_a);
    const double mb = resloc::math::mean(draws_b);
    double cov = 0.0;
    for (std::size_t i = 0; i < draws_a.size(); ++i) {
      cov += (draws_a[i] - ma) * (draws_b[i] - mb);
    }
    cov /= static_cast<double>(draws_a.size());
    const double corr =
        cov / (resloc::math::stddev(draws_a) * resloc::math::stddev(draws_b));
    EXPECT_LT(std::abs(corr), 0.08) << "index " << idx;
  }
}

TEST(Rng, ForkDiffersFromParentContinuation) {
  Rng parent(303);
  Rng child = parent.fork(0);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (child.next_u32() == parent.next_u32()) ++same;
  }
  EXPECT_LT(same, 4);
}

}  // namespace
