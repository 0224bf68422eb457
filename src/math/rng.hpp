// Deterministic random number generation.
//
// Every stochastic component in the reproduction (acoustic noise, deployment
// jitter, gradient-descent restarts, synthetic measurement errors) draws from
// an explicitly seeded generator so that every experiment, test, and bench is
// bit-reproducible. We implement PCG32 (O'Neill, 2014) from scratch: it is
// tiny, fast, statistically solid, and has well-defined cross-platform output,
// unlike std::default_random_engine. Distribution sampling is also hand-rolled
// because libstdc++'s std::normal_distribution is not guaranteed to produce
// identical streams across versions. Gaussians come from two declared streams:
// scalar gaussian() is Box-Muller (every per-draw consumer: channel, hardware
// detector, synthetic measurements, faults, solver restarts), and
// fill_gaussian_block() is a 256-layer ziggurat over the lane-split uniform
// block (the sampled-audio noise of the Goertzel and NCC detector modes).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace resloc::math {

/// Tables of the 256-layer normal ziggurat behind Rng::fill_gaussian_block
/// (Marsaglia & Tsang, J. Stat. Software 5(8), 2000), over the unnormalized
/// density f(x) = exp(-x^2 / 2). Every layer has the same area V: layer 0 is
/// the base strip [0, x[0]) x [0, f(R)) whose part beyond R stands in for the
/// tail, and layer i >= 1 is the box [0, x[i]) x [f(x[i]), f(x[i + 1])).
struct NormalZiggurat {
  static constexpr int kLayers = 256;
  /// Right edge of the base rectangle, where the tail begins.
  static constexpr double kTailStart = 3.6541528853610088;

  double x[kLayers + 1];   ///< layer half-widths: x[0] = V / f(R), x[1] = R, x[256] = 0
  double ratio[kLayers];   ///< x[i + 1] / x[i], the fast-accept bound on |u|
  double f[kLayers + 1];   ///< f(x[i])

  /// The tables, built once on first use.
  static const NormalZiggurat& get();
};

/// One constant-threshold stretch of a Bernoulli block: the samples from the
/// previous run's end (0 for the first run) up to `end` fire when their
/// uniform_bits() draw is below `threshold`, a bernoulli_threshold() value
/// (anything >= 2^53 always fires).
struct BernoulliRun {
  std::size_t end;
  std::uint64_t threshold;
};

/// PCG32 pseudo-random generator (XSH-RR variant), 64-bit state.
class Rng {
 public:
  /// Seeds the generator. `stream` selects one of 2^63 independent sequences.
  explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bULL, std::uint64_t stream = 1);

  /// Next raw 32-bit output.
  std::uint32_t next_u32();

  /// The 53-bit integer behind uniform(): uniform() == uniform_bits() * 2^-53
  /// exactly (the conversion is a power-of-two scaling of an integer below
  /// 2^53, so it is lossless). Block kernels compare these integers against
  /// precomputed bernoulli_threshold() values to keep their inner loops free
  /// of floating point while drawing the identical stream.
  std::uint64_t uniform_bits();

  /// Integer form of a Bernoulli comparison:
  ///     uniform() < p   <=>   uniform_bits() < bernoulli_threshold(p)
  /// for every double p. For p in (0, 1), p * 2^53 is exact (power-of-two
  /// scaling), so ceil(p * 2^53) splits the 53-bit lattice at exactly the
  /// same point the double comparison does.
  static std::uint64_t bernoulli_threshold(double p);

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] (inclusive), using rejection for exactness.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Gaussian sample with the given mean and standard deviation (Box-Muller).
  double gaussian(double mean = 0.0, double stddev = 1.0);

  /// Bernoulli trial with success probability `p`.
  bool bernoulli(double p);

  /// Exponential sample with the given rate parameter lambda.
  double exponential(double lambda);

  /// Writes exactly the next `n` uniform_bits() draws to `out` and leaves the
  /// generator in the same state n sequential calls would. Internally the raw
  /// u32 sequence is split across independent LCG lanes (16, or 64 in the
  /// AVX-512 kernel) by exact jump-ahead, so the state multiplies of a group
  /// have no dependency chain between them -- the serial PCG recurrence is
  /// the block-DSP hot path's floor, and this is how it is broken without
  /// changing one output.
  void fill_uniform_bits_block(std::uint64_t* out, std::size_t n);

  /// Draws n Bernoulli samples into a bitmask: bit i of mask[i / 64] is
  /// uniform_bits() < threshold, for the i-th of the next n draws and the
  /// threshold of the run covering sample i. `runs` ascend and the last ends
  /// at or past n; mask holds (n + 63) / 64 words, and bits past n are zero.
  /// Consumes exactly the stream of n uniform_bits() calls and leaves the
  /// same state. Only the high PCG32 output of each draw is computed in bulk:
  /// with bits = hi << 21 | lo21, bits < t  <=>  hi < t >> 21, except on
  /// the ~2^-32 tie hi == t >> 21, which steps the second state and compares
  /// its top 21 bits against the low 21 bits of t.
  void fill_bernoulli_mask_block(const std::vector<BernoulliRun>& runs, std::size_t n,
                                 std::uint64_t* mask);

  /// Writes `n` standard normals to `out`: the versioned block noise stream
  /// (ziggurat v1) of the sampled-audio detector modes. The stream is defined
  /// as follows:
  ///   1. the block's `n` 53-bit words are drawn by one
  ///      fill_uniform_bits_block(n) call, i.e. exactly the next n
  ///      uniform_bits() draws;
  ///   2. for word w, layer = w & 0xff and the remaining 45 bits j = w >> 8
  ///      give the signed uniform u = (2j + 1 - 2^45) * 2^-45 in (-1, 1);
  ///   3. the sample is u * x[layer] when |u| < ratio[layer] (~98.5% of
  ///      words; tables in NormalZiggurat);
  ///   4. otherwise it resolves in index order with further sequential draws
  ///      from this generator, after the block: a wedge test against one
  ///      uniform() (on rejection a fresh uniform_bits() word restarts at
  ///      step 2), or for layer 0 the tail beyond R by Marsaglia's method on
  ///      uniform() pairs.
  /// This is a different stream from n gaussian() calls: a Box-Muller half
  /// cached by gaussian() is neither consumed nor cleared by the block.
  /// Standard normals only; callers scale in their own vectorizable pass.
  void fill_gaussian_block(double* out, std::size_t n);

  /// Fisher-Yates shuffle of a vector.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(i) - 1));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Samples `min(k, n)` distinct indices from [0, n) in random order.
  std::vector<std::size_t> sample_indices(std::size_t n, std::size_t k);

  /// Derives an independent child generator; used to give each simulated node
  /// or experiment repetition its own stream without correlation.
  Rng split();

  /// Derives the `stream_index`-th substream of this generator without
  /// advancing it (SplitMix64 over the current state, the stream selector,
  /// and the index). fork(i) depends on the parent's CURRENT state -- for a
  /// freshly seeded parent that has produced no draws, that is exactly its
  /// seed material, which is how the campaign runner gets its replay recipe:
  /// Rng(seed).fork(i) is the same stream from any thread, in any order.
  /// A parent that has already drawn yields a different (still
  /// deterministic) substream family. Distinct indices are decorrelated.
  Rng fork(std::uint64_t stream_index) const;

 private:
  friend struct RngState;  // math/bernoulli_mask_kernels.hpp: per-variant tests

  std::uint64_t state_;
  std::uint64_t inc_;
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

}  // namespace resloc::math
