#include "math/rng.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>

#include "math/bernoulli_mask_kernels.hpp"
#include "math/constants.hpp"
#include "math/simd_dispatch.hpp"

#if RESLOC_X86_SIMD
// GCC's unary AVX-512 intrinsics pass _mm512_undefined_epi32() as the
// masked-off source operand; with a full mask that operand is never read,
// but -Wmaybe-uninitialized cannot see through the builtin and flags it.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop
#endif

namespace resloc::math {

namespace {
constexpr std::uint64_t kMultiplier = 6364136223846793005ULL;

/// PCG32 XSH-RR output permutation of a raw LCG state.
inline std::uint32_t pcg_output(std::uint64_t state) {
  const auto xorshifted = static_cast<std::uint32_t>(((state >> 18u) ^ state) >> 27u);
  const auto rot = static_cast<std::uint32_t>(state >> 59u);
  return (xorshifted >> rot) | (xorshifted << ((32u - rot) & 31u));
}

// SplitMix64 finalizer (Steele et al., 2014): a strong 64 -> 64 bit mixer
// whose outputs for consecutive inputs are statistically independent, which
// is exactly what substream derivation needs.
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Jump-ahead constants (Brown 1994) of kSize lanes: lane j advances a state
/// s by raw(j) LCG steps to mul[j] * s + add[j] * inc, where mul = a^raw and
/// add = 1 + a + ... + a^(raw - 1), all mod 2^64 -- exactly the state that
/// many sequential steps reach, and every lane independent of the others.
template <std::size_t kSize>
struct JumpTable {
  std::uint64_t mul[kSize];
  std::uint64_t add[kSize];

  std::uint64_t jump(std::size_t j, std::uint64_t state, std::uint64_t inc) const {
    return mul[j] * state + add[j] * inc;
  }
};

/// The longest jump a kernel takes: one 64-sample Bernoulli group.
constexpr std::size_t kMaxJump = 128;

/// Entry r jumps r raw steps, for r in [0, kMaxJump].
constexpr JumpTable<kMaxJump + 1> kJump = [] {
  JumpTable<kMaxJump + 1> t{};
  t.mul[0] = 1;
  for (std::size_t r = 1; r <= kMaxJump; ++r) {
    t.mul[r] = t.mul[r - 1] * kMultiplier;
    t.add[r] = t.add[r - 1] * kMultiplier + 1;
  }
  return t;
}();

/// A Bernoulli threshold split at the high-word boundary. A draw is
/// bits = hi << 21 | lo21, with hi its first PCG32 output and lo21 the top 21
/// bits of its second, so bits < t  <=>  hi < t.hi || (hi == t.hi && lo21 <
/// t.lo). A threshold >= 2^53 always fires; as (2^32 - 1, 2^21) it does so
/// through the same test, the tie included.
struct SplitThreshold {
  std::uint32_t hi;
  std::uint32_t lo;
};

inline SplitThreshold split_threshold(std::uint64_t t) {
  if (t >= std::uint64_t{1} << 53) return {0xffffffffu, 1u << 21};
  return {static_cast<std::uint32_t>(t >> 21), static_cast<std::uint32_t>(t & 0x1fffffu)};
}

/// Settles a tie hi == t.hi from the draw's first state: one LCG step to the
/// second state, whose top 21 output bits decide.
inline bool tie_fires(std::uint64_t first_state, std::uint64_t inc, std::uint32_t lo) {
  return (pcg_output(first_state * kMultiplier + inc) >> 11) < lo;
}

/// The split thresholds of kGroup consecutive samples: one value for the
/// whole group when a single run covers it (the common case: a window has a
/// handful of runs), else one per lane.
template <std::size_t kGroup>
struct GroupThresholds {
  bool uniform = true;
  alignas(64) std::uint64_t hi[kGroup];  ///< t.hi, widened to the 64-bit lanes
  std::uint32_t lo[kGroup];

  /// Loads the group of samples [first, first + kGroup), advancing `run` to
  /// the run that covers `first` (and past it when the group spans an edge).
  /// Returns how many consecutive groups from `first` share these
  /// thresholds: all those inside a covering run, else just this one.
  std::size_t load(const BernoulliRun*& run, std::size_t first) {
    while (run->end <= first) ++run;
    uniform = run->end >= first + kGroup;
    const std::size_t lanes = uniform ? 1 : kGroup;
    const std::size_t groups = uniform ? (run->end - first) / kGroup : 1;
    for (std::size_t j = 0; j < lanes; ++j) {
      while (run->end <= first + j) ++run;
      const SplitThreshold t = split_threshold(run->threshold);
      hi[j] = t.hi;
      lo[j] = t.lo;
    }
    return groups;
  }
  std::uint64_t hi_at(std::size_t j) const { return hi[uniform ? 0 : j]; }
  std::uint32_t lo_at(std::size_t j) const { return lo[uniform ? 0 : j]; }
};

/// Stores the fired bits of the samples from `first` on, low bit first:
/// the first sample of a word overwrites it, so the mask needs no clearing.
/// Groups divide 64, so a group's bits never straddle two words.
inline void put_bits(std::uint64_t* mask, std::size_t first, std::uint64_t bits) {
  std::uint64_t& word = mask[first / 64];
  word = (first % 64 == 0 ? 0 : word) | bits << (first % 64);
}

/// Samples [first, n) drawn one at a time after the lane groups, two raw
/// steps each from `state`; returns the final state.
std::uint64_t draw_tail(std::uint64_t state, std::uint64_t inc, const BernoulliRun* run,
                        std::size_t first, std::size_t n, std::uint64_t* mask) {
  for (std::size_t i = first; i < n; ++i) {
    while (run->end <= i) ++run;
    const SplitThreshold t = split_threshold(run->threshold);
    const std::uint32_t hi = pcg_output(state);
    put_bits(mask, i, hi < t.hi || (hi == t.hi && tie_fires(state, inc, t.lo)));
    state = (state * kMultiplier + inc) * kMultiplier + inc;
  }
  return state;
}

#if RESLOC_X86_SIMD
/// The AVX2 variant's tie path: `ties` flags the group's lanes whose high
/// word equals t.hi, `first_states` holds each lane's first state.
template <std::size_t kGroup>
std::uint64_t settle_ties(std::uint64_t ties, const std::uint64_t* first_states,
                          std::uint64_t inc, const GroupThresholds<kGroup>& t) {
  std::uint64_t fired = 0;
  for (; ties != 0; ties &= ties - 1) {
    const auto j = static_cast<std::size_t>(__builtin_ctzll(ties));
    if (tie_fires(first_states[j], inc, t.lo_at(j))) fired |= std::uint64_t{1} << j;
  }
  return fired;
}

/// 64 x 64 -> low 64 multiply from 32-bit partial products (AVX2 has no
/// 64-bit lane multiply): lo*lo + ((hi*lo + lo*hi) << 32).
__attribute__((target("avx2")))
inline __m256i mullo64_avx2(__m256i a, __m256i b) {
  const __m256i lo = _mm256_mul_epu32(a, b);
  const __m256i cross =
      _mm256_add_epi64(_mm256_mul_epu32(_mm256_srli_epi64(a, 32), b),
                       _mm256_mul_epu32(a, _mm256_srli_epi64(b, 32)));
  return _mm256_add_epi64(lo, _mm256_slli_epi64(cross, 32));
}

/// Samples per group of the AVX2 Bernoulli-mask variant.
constexpr std::size_t kAvx2Group = 16;

/// The AVX2 Bernoulli-mask variant's first `groups` groups: four vectors of
/// 4 lanes. The XSH-RR rotate runs in the 64-bit lanes with variable shifts
/// (as in uniform_bits::avx2), and the high words, below 2^32, compare as
/// signed 64-bit integers.
__attribute__((target("avx2")))
std::uint64_t avx2_groups(std::uint64_t state, std::uint64_t inc, const BernoulliRun* runs,
                          std::size_t groups, std::uint64_t* mask) {
  constexpr std::size_t kGroup = kAvx2Group;
  constexpr int kVecs = kGroup / 4;
  alignas(32) std::uint64_t lanes[kGroup];
  for (std::size_t j = 0; j < kGroup; ++j) lanes[j] = kJump.jump(2 * j, state, inc);
  __m256i s[kVecs];
  for (int v = 0; v < kVecs; ++v) {
    s[v] = _mm256_load_si256(reinterpret_cast<const __m256i*>(lanes + 4 * v));
  }
  const __m256i jm = _mm256_set1_epi64x(static_cast<long long>(kJump.mul[2 * kGroup]));
  const __m256i ja = _mm256_set1_epi64x(static_cast<long long>(kJump.add[2 * kGroup] * inc));
  const __m256i mask32 = _mm256_set1_epi64x(0xffffffffLL);
  const __m256i c32 = _mm256_set1_epi64x(32);
  const __m256i c31 = _mm256_set1_epi64x(31);
  GroupThresholds<kGroup> t;
  for (std::size_t g = 0; g < groups;) {
    const std::size_t last = std::min(groups, g + t.load(runs, g * kGroup));
    __m256i th[kVecs];
    for (int v = 0; v < kVecs; ++v) {
      th[v] = t.uniform ? _mm256_set1_epi64x(static_cast<long long>(t.hi[0]))
                        : _mm256_load_si256(reinterpret_cast<const __m256i*>(t.hi + 4 * v));
    }
    for (; g < last; ++g) {
      std::uint64_t bits = 0;
      std::uint64_t ties = 0;
      for (int v = 0; v < kVecs; ++v) {
        const __m256i x = _mm256_and_si256(
            _mm256_srli_epi64(_mm256_xor_si256(_mm256_srli_epi64(s[v], 18), s[v]), 27), mask32);
        const __m256i rot = _mm256_srli_epi64(s[v], 59);
        const __m256i left = _mm256_and_si256(_mm256_sub_epi64(c32, rot), c31);
        const __m256i hi = _mm256_or_si256(_mm256_srlv_epi64(x, rot),
                                           _mm256_and_si256(_mm256_sllv_epi64(x, left), mask32));
        const auto lt = _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpgt_epi64(th[v], hi)));
        const auto eq = _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(hi, th[v])));
        bits |= static_cast<std::uint64_t>(lt) << (4 * v);
        ties |= static_cast<std::uint64_t>(eq) << (4 * v);
      }
      if (ties != 0) {
        for (int v = 0; v < kVecs; ++v) {
          _mm256_store_si256(reinterpret_cast<__m256i*>(lanes + 4 * v), s[v]);
        }
        bits |= settle_ties(ties, lanes, inc, t);
      }
      for (int v = 0; v < kVecs; ++v) s[v] = _mm256_add_epi64(mullo64_avx2(s[v], jm), ja);
      put_bits(mask, g * kGroup, bits);
    }
  }
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), s[0]);
  return lanes[0];
}

/// The rows of kJump a vector kernel's lanes start at, in lane order so that
/// each vector's constants load whole: lane j jumps raw(j) steps.
template <std::size_t kLanes, typename Raw>
constexpr JumpTable<kLanes> lane_jumps(Raw raw) {
  JumpTable<kLanes> t{};
  for (std::size_t j = 0; j < kLanes; ++j) {
    t.mul[j] = kJump.mul[raw(j)];
    t.add[j] = kJump.add[raw(j)];
  }
  return t;
}

/// The element lane j of the AVX-512 kernels' vector pairs carries: vector
/// 2p holds elements 16p, 16p + 2, ..., 16p + 14 and vector 2p + 1 the odd
/// ones between them, so a pair's 32-bit results interleave into one
/// 16-dword vector in element order (xsh_rr_pair).
constexpr std::size_t pair_layout(std::size_t j) {
  return 16 * (j / 16) + 2 * (j % 8) + (j / 8) % 2;
}

/// uniform_bits::avx512's 64 lanes: element = raw output.
constexpr JumpTable<64> kUniformLanes = lane_jumps<64>(pair_layout);
/// bernoulli_mask::avx512's 64 lanes: element = sample, two raw steps each.
constexpr JumpTable<64> kMaskLanes =
    lane_jumps<64>([](std::size_t j) { return 2 * pair_layout(j); });

/// XSH-RR outputs of a vector pair in one 16-dword vector: dword 2k is the
/// output of lane k of `lo`, dword 2k + 1 that of lane k of `hi`. In a 64-bit
/// lane, ((s >> 18) ^ s) >> 27 holds the xorshifted word in its low dword
/// and the rotate count s >> 59 in its high one; one masked dword swap takes
/// the words of `hi` into the odd dwords of `lo`'s, another the counts of
/// `lo` into the even dwords of `hi`'s, and one vprorvd rotates all 16.
__attribute__((target("avx512f"))) inline __m512i xsh_rr_pair(__m512i lo, __m512i hi) {
  const __m512i wl = _mm512_srli_epi64(_mm512_xor_si512(_mm512_srli_epi64(lo, 18), lo), 27);
  const __m512i wh = _mm512_srli_epi64(_mm512_xor_si512(_mm512_srli_epi64(hi, 18), hi), 27);
  const __m512i x = _mm512_mask_shuffle_epi32(wl, 0xAAAA, wh, _MM_PERM_CDAB);
  const __m512i rot = _mm512_mask_shuffle_epi32(wh, 0x5555, wl, _MM_PERM_CDAB);
  return _mm512_rorv_epi32(x, rot);
}

/// 64-bit lane 0 of a state vector.
__attribute__((target("avx512f"))) inline std::uint64_t lane0(__m512i v) {
  return static_cast<std::uint64_t>(_mm_cvtsi128_si64(_mm512_castsi512_si128(v)));
}

/// The states of the lanes laid out by `lanes` from `state`.
__attribute__((target("avx512f,avx512dq"))) inline void jump_lanes(
    const JumpTable<64>& lanes, std::uint64_t state, std::uint64_t inc, __m512i* s) {
  const __m512i vs = _mm512_set1_epi64(static_cast<long long>(state));
  const __m512i vi = _mm512_set1_epi64(static_cast<long long>(inc));
  for (int v = 0; v < 8; ++v) {
    s[v] = _mm512_add_epi64(_mm512_mullo_epi64(vs, _mm512_loadu_si512(lanes.mul + 8 * v)),
                            _mm512_mullo_epi64(vi, _mm512_loadu_si512(lanes.add + 8 * v)));
  }
}

#endif  // RESLOC_X86_SIMD

}  // namespace

// The uniform-bits variants: the whole 8-output groups of
// fill_uniform_bits_block.
namespace uniform_bits {

/// Portable body of fill_uniform_bits_block: emits `groups` * 8 uniforms
/// (16 raw u32 outputs per group) and returns the LCG state after
/// 16 * groups raw steps -- exactly the sequential state. Lane r carries the
/// states of raw indices congruent to r mod 16, so the serial multiply
/// dependency becomes 16 independent chains.
std::uint64_t portable(std::uint64_t state, std::uint64_t inc, std::uint64_t* out,
                       std::size_t groups) {
  std::uint64_t s[16];
  for (std::size_t r = 0; r < 16; ++r) s[r] = kJump.jump(r, state, inc);
  const std::uint64_t jump_add = kJump.add[16] * inc;
  for (std::size_t g = 0; g < groups; ++g) {
    std::uint32_t o[16];
    for (int r = 0; r < 16; ++r) {
      o[r] = pcg_output(s[r]);
      s[r] = s[r] * kJump.mul[16] + jump_add;
    }
    for (int j = 0; j < 8; ++j) {
      out[8 * g + j] =
          ((static_cast<std::uint64_t>(o[2 * j]) << 32) | o[2 * j + 1]) >> 11;
    }
  }
  return s[0];  // lane 0 holds raw index 16 * groups = the sequential state
}

#if RESLOC_X86_SIMD

/// AVX-512 variant: four vector pairs of 8 LCG lanes (raw outputs 0..63 of
/// an iteration, laid out by pair_layout), so eight independent vpmullq
/// chains fill 32 words per iteration. Word k of pair p is
/// (o[16p + 2k] << 32 | o[16p + 2k + 1]) >> 11: xsh_rr_pair with the odd
/// vector low puts exactly that in 64-bit lane k before the shift. A last
/// partial iteration stores only its whole groups and returns the first
/// state of the group after them.
__attribute__((target("avx512f,avx512dq")))
std::uint64_t avx512(std::uint64_t state, std::uint64_t inc, std::uint64_t* out,
                     std::size_t groups) {
  constexpr std::size_t kPairs = 4;
  __m512i s[2 * kPairs];
  jump_lanes(kUniformLanes, state, inc, s);
  const __m512i jm = _mm512_set1_epi64(static_cast<long long>(kJump.mul[16 * kPairs]));
  const __m512i ja = _mm512_set1_epi64(static_cast<long long>(kJump.add[16 * kPairs] * inc));
  for (std::size_t g = 0; g < groups; g += kPairs) {
    const std::size_t pairs = std::min(kPairs, groups - g);
    for (std::size_t p = 0; p < kPairs; ++p) {
      if (p < pairs) {
        _mm512_storeu_si512(out + 8 * (g + p),
                            _mm512_srli_epi64(xsh_rr_pair(s[2 * p + 1], s[2 * p]), 11));
      }
    }
    if (groups - g <= kPairs) return kJump.jump(16 * pairs, lane0(s[0]), inc);
    for (__m512i& v : s) v = _mm512_add_epi64(_mm512_mullo_epi64(v, jm), ja);
  }
  return state;  // no groups
}

/// AVX2 variant: four vectors of 4 LCG lanes, grouped even/odd by raw index
/// (v0 = raw {0,2,4,6}, v1 = raw {1,3,5,7}, ...) so an output u64 is one
/// shift-or across two vectors. The 32-bit rotate runs in the 64-bit lanes
/// with variable shifts; the rotated value still fits 32 bits.
__attribute__((target("avx2")))
std::uint64_t avx2(std::uint64_t state, std::uint64_t inc, std::uint64_t* out,
                   std::size_t groups) {
  alignas(32) std::uint64_t lanes[16];
  for (std::size_t r = 0; r < 16; ++r) {
    lanes[8 * (r / 8) + 4 * (r % 2) + (r % 8) / 2] = kJump.jump(r, state, inc);
  }
  __m256i v[4];
  for (int k = 0; k < 4; ++k) {
    v[k] = _mm256_load_si256(reinterpret_cast<const __m256i*>(lanes + 4 * k));
  }
  const __m256i jm = _mm256_set1_epi64x(static_cast<long long>(kJump.mul[16]));
  const __m256i ja = _mm256_set1_epi64x(static_cast<long long>(kJump.add[16] * inc));
  const __m256i mask32 = _mm256_set1_epi64x(0xffffffffLL);
  const __m256i c32 = _mm256_set1_epi64x(32);
  const __m256i c31 = _mm256_set1_epi64x(31);
  for (std::size_t g = 0; g < groups; ++g) {
    __m256i o[4];
    for (int k = 0; k < 4; ++k) {
      const __m256i s = v[k];
      const __m256i x = _mm256_and_si256(
          _mm256_srli_epi64(_mm256_xor_si256(_mm256_srli_epi64(s, 18), s), 27), mask32);
      const __m256i rot = _mm256_srli_epi64(s, 59);
      const __m256i left_count = _mm256_and_si256(_mm256_sub_epi64(c32, rot), c31);
      o[k] = _mm256_or_si256(
          _mm256_srlv_epi64(x, rot),
          _mm256_and_si256(_mm256_sllv_epi64(x, left_count), mask32));
      v[k] = _mm256_add_epi64(mullo64_avx2(s, jm), ja);
    }
    // v0/v1 carry the even/odd raw outputs of u64s 0..3, v2/v3 of u64s 4..7.
    const __m256i p0 =
        _mm256_srli_epi64(_mm256_or_si256(_mm256_slli_epi64(o[0], 32), o[1]), 11);
    const __m256i p1 =
        _mm256_srli_epi64(_mm256_or_si256(_mm256_slli_epi64(o[2], 32), o[3]), 11);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 8 * g), p0);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 8 * g + 4), p1);
  }
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), v[0]);
  return lanes[0];  // v0 lane 0 = raw index 16 * groups = the sequential state
}

#endif  // RESLOC_X86_SIMD

}  // namespace uniform_bits

// The Bernoulli mask variants. Each lane of a kGroup-sample group carries
// the first state of one sample's draw (sample j: raw index 2j) and jumps
// 2 * kGroup raw steps per group: only the draws' high words are computed in
// bulk, so half the multiplies and output permutations of
// fill_uniform_bits_block. The portable and AVX2 variants draw the tail past
// their last whole group one sample at a time; the AVX-512 one has none.
namespace bernoulli_mask {

std::uint64_t portable(std::uint64_t state, std::uint64_t inc, const BernoulliRun* runs,
                       std::size_t n, std::uint64_t* mask) {
  constexpr std::size_t kGroup = 8;
  std::uint64_t s[kGroup];
  for (std::size_t j = 0; j < kGroup; ++j) s[j] = kJump.jump(2 * j, state, inc);
  const std::uint64_t jump_add = kJump.add[2 * kGroup] * inc;
  GroupThresholds<kGroup> t;
  const std::size_t groups = n / kGroup;
  for (std::size_t g = 0; g < groups;) {
    const std::size_t last = std::min(groups, g + t.load(runs, g * kGroup));
    for (; g < last; ++g) {
      std::uint64_t bits = 0;
      for (std::size_t j = 0; j < kGroup; ++j) {
        const std::uint32_t hi = pcg_output(s[j]);
        const std::uint64_t th = t.hi_at(j);
        const bool fires = hi < th || (hi == th && tie_fires(s[j], inc, t.lo_at(j)));
        bits |= static_cast<std::uint64_t>(fires) << j;
        s[j] = s[j] * kJump.mul[2 * kGroup] + jump_add;
      }
      put_bits(mask, g * kGroup, bits);
    }
  }
  return draw_tail(s[0], inc, runs, groups * kGroup, n, mask);
}

#if RESLOC_X86_SIMD

// The AVX2 variant draws its whole groups in a target-attributed function
// and the scalar tail here, in baseline code: GCC ends the targeted function
// with vzeroupper, so neither the tail nor the caller's SSE code runs with
// dirty upper vector state.
std::uint64_t avx2(std::uint64_t state, std::uint64_t inc, const BernoulliRun* runs,
                   std::size_t n, std::uint64_t* mask) {
  state = avx2_groups(state, inc, runs, n / kAvx2Group, mask);
  return draw_tail(state, inc, runs, n - n % kAvx2Group, n, mask);
}

/// AVX-512 variant: 64-sample groups, one mask word each, over eight vectors
/// of 8 lanes laid out by pair_layout (vector 2b the even samples of the
/// group's 16-sample block b, vector 2b + 1 the odd ones), so eight
/// independent vpmullq chains advance per group. xsh_rr_pair gives a block's
/// 16 high words in sample order, so its compare masks are the mask word's
/// 16 bits as they stand. A group inside one run compares against that
/// run's t.hi broadcast; a group that straddles run edges starts from the
/// covering run's and blends each later run's in from that run's first lane.
/// Ties (~2^-32) walk the runs for their t.lo. The last, partial group runs
/// whole with its bits cut at n, and the state returned is the first state
/// of sample n's lane, so no sample is drawn on its own.
__attribute__((target("avx512f,avx512dq")))
std::uint64_t avx512(std::uint64_t state, std::uint64_t inc, const BernoulliRun* runs,
                     std::size_t n, std::uint64_t* mask) {
  constexpr std::size_t kGroup = 64;
  constexpr int kBlocks = kGroup / 16;
  __m512i s[2 * kBlocks];
  jump_lanes(kMaskLanes, state, inc, s);
  const __m512i jm = _mm512_set1_epi64(static_cast<long long>(kJump.mul[2 * kGroup]));
  const __m512i ja = _mm512_set1_epi64(static_cast<long long>(kJump.add[2 * kGroup] * inc));
  __m512i th[kBlocks];           // t.hi of each block's 16 samples
  const BernoulliRun* run = runs;  // the run covering the group's first sample
  std::size_t shared_until = 0;  // the groups before this sample share th
  for (std::size_t first = 0; first < n; first += kGroup) {
    if (first >= shared_until) {
      while (run->end <= first) ++run;
      const __m512i covering =
          _mm512_set1_epi32(static_cast<int>(split_threshold(run->threshold).hi));
      for (__m512i& t : th) t = covering;
      if (run->end >= first + kGroup) {
        shared_until = first + (run->end - first) / kGroup * kGroup;
      } else {
        shared_until = first + kGroup;
        for (const BernoulliRun* r = run; r->end < std::min(first + kGroup, n); ++r) {
          const std::uint64_t from = ~std::uint64_t{0} << (r->end - first);
          const __m512i next =
              _mm512_set1_epi32(static_cast<int>(split_threshold(r[1].threshold).hi));
          for (int b = 0; b < kBlocks; ++b) {
            th[b] = _mm512_mask_mov_epi32(th[b], static_cast<__mmask16>(from >> (16 * b)), next);
          }
        }
      }
    }
    std::uint64_t bits = 0;
    std::uint64_t ties = 0;
    for (int b = 0; b < kBlocks; ++b) {
      const __m512i hi = xsh_rr_pair(s[2 * b], s[2 * b + 1]);
      bits |= static_cast<std::uint64_t>(_mm512_cmplt_epu32_mask(hi, th[b])) << (16 * b);
      ties |= static_cast<std::uint64_t>(_mm512_cmpeq_epu32_mask(hi, th[b])) << (16 * b);
    }
    const std::size_t left = n - first;
    const std::uint64_t valid =
        left >= kGroup ? ~std::uint64_t{0} : (std::uint64_t{1} << left) - 1;
    for (ties &= valid; ties != 0; ties &= ties - 1) {
      const auto j = static_cast<std::size_t>(__builtin_ctzll(ties));
      const BernoulliRun* r = run;
      while (r->end <= first + j) ++r;
      const std::uint64_t first_state = kJump.jump(2 * j, lane0(s[0]), inc);
      if (tie_fires(first_state, inc, split_threshold(r->threshold).lo)) {
        bits |= std::uint64_t{1} << j;
      }
    }
    mask[first / kGroup] = bits & valid;
    if (left <= kGroup) return kJump.jump(2 * left, lane0(s[0]), inc);
    for (__m512i& v : s) v = _mm512_add_epi64(_mm512_mullo_epi64(v, jm), ja);
  }
  return state;  // n == 0
}

#endif  // RESLOC_X86_SIMD

}  // namespace bernoulli_mask

Rng::Rng(std::uint64_t seed, std::uint64_t stream) : state_(0), inc_((stream << 1u) | 1u) {
  next_u32();
  state_ += seed;
  next_u32();
}

std::uint32_t Rng::next_u32() {
  const std::uint64_t old = state_;
  state_ = old * kMultiplier + inc_;
  return pcg_output(old);
}

std::uint64_t Rng::uniform_bits() {
  const std::uint64_t hi = next_u32();
  const std::uint64_t lo = next_u32();
  return ((hi << 32) | lo) >> 11;
}

std::uint64_t Rng::bernoulli_threshold(double p) {
  if (p <= 0.0) return 0;                           // uniform() < p never holds
  if (p >= 1.0) return std::uint64_t{1} << 53;      // always holds (bits < 2^53)
  // p * 2^53 is exact; the proof that bits < ceil(p * 2^53) matches
  // double(bits) * 2^-53 < p splits on whether p * 2^53 is an integer, and
  // both cases agree because bits itself is an integer.
  return static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53));
}

double Rng::uniform() {
  // 53 random bits -> double in [0, 1).
  return static_cast<double>(uniform_bits()) * 0x1.0p-53;
}

void Rng::fill_uniform_bits_block(std::uint64_t* out, std::size_t n) {
  // Jump-ahead lanes restructure the serial multiply chain into
  // independent streams the SIMD variants map onto vector lanes. Output
  // values AND the final generator state are identical to n sequential
  // uniform_bits() calls -- the lanes only change evaluation order.
  const std::size_t groups = n / 8;
  if (groups > 0) {
#if RESLOC_X86_SIMD
    if (cpu_has_avx512_kernels()) {
      state_ = uniform_bits::avx512(state_, inc_, out, groups);
    } else if (cpu_has_avx2_kernels()) {
      state_ = uniform_bits::avx2(state_, inc_, out, groups);
    } else
#endif
    {
      state_ = uniform_bits::portable(state_, inc_, out, groups);
    }
    out += groups * 8;
    n -= groups * 8;
  }
  for (std::size_t i = 0; i < n; ++i) out[i] = uniform_bits();
}

void Rng::fill_bernoulli_mask_block(const std::vector<BernoulliRun>& runs, std::size_t n,
                                    std::uint64_t* mask) {
  if (n == 0) return;
  if (runs.empty() || runs.back().end < n) {
    throw std::invalid_argument("fill_bernoulli_mask_block: the runs end before sample " +
                                std::to_string(n));
  }
#if RESLOC_X86_SIMD
  if (cpu_has_avx512_kernels()) {
    state_ = bernoulli_mask::avx512(state_, inc_, runs.data(), n, mask);
    return;
  }
  if (cpu_has_avx2_kernels()) {
    state_ = bernoulli_mask::avx2(state_, inc_, runs.data(), n, mask);
    return;
  }
#endif
  state_ = bernoulli_mask::portable(state_, inc_, runs.data(), n, mask);
}

const NormalZiggurat& NormalZiggurat::get() {
  static const NormalZiggurat tables = [] {
    NormalZiggurat z{};
    const auto f = [](double x) { return std::exp(-0.5 * x * x); };
    constexpr double r = kTailStart;
    // Common layer area: the base rectangle out to R plus the tail beyond it.
    const double v = r * f(r) + std::sqrt(0.5 * kPi) * std::erfc(r / std::sqrt(2.0));
    z.x[0] = v / f(r);
    z.x[1] = r;
    for (int i = 1; i < kLayers - 1; ++i) {
      z.x[i + 1] = std::sqrt(-2.0 * std::log(v / z.x[i] + f(z.x[i])));
    }
    z.x[kLayers] = 0.0;  // the top layer's box reaches the peak f(0) = 1
    for (int i = 0; i < kLayers; ++i) z.ratio[i] = z.x[i + 1] / z.x[i];
    for (int i = 0; i <= kLayers; ++i) z.f[i] = f(z.x[i]);
    return z;
  }();
  return tables;
}

namespace {

/// Step 2 of the block normal stream: bits 8..52 of a uniform_bits() word as
/// the odd lattice point (2j + 1 - 2^45) * 2^-45, symmetric about 0 and exact.
inline double ziggurat_signed_unit(std::uint64_t word) {
  const auto odd = static_cast<std::int64_t>(((word >> 8) << 1) | 1u);
  return static_cast<double>(odd - (std::int64_t{1} << 45)) * 0x1.0p-45;
}

/// Step 4 of the block normal stream: a word that missed the fast accept
/// (wedge or tail), resolved with sequential draws from `rng`.
double ziggurat_slow(Rng& rng, const NormalZiggurat& z, std::uint64_t word) {
  constexpr double r = NormalZiggurat::kTailStart;
  for (;;) {
    const std::size_t layer = word & 0xffu;
    const double u = ziggurat_signed_unit(word);
    if (std::abs(u) < z.ratio[layer]) return u * z.x[layer];
    if (layer == 0) {
      // Tail beyond R (Marsaglia 1964); 1 - uniform() lies in (0, 1].
      double t;
      double y;
      do {
        t = -std::log(1.0 - rng.uniform()) / r;
        y = -std::log(1.0 - rng.uniform());
      } while (y + y < t * t);
      return u < 0.0 ? -(r + t) : r + t;
    }
    // Wedge: a uniform height in the layer's box against the density.
    const double x = u * z.x[layer];
    const double height = z.f[layer] + rng.uniform() * (z.f[layer + 1] - z.f[layer]);
    if (height < std::exp(-0.5 * x * x)) return x;
    word = rng.uniform_bits();
  }
}

}  // namespace

// The ziggurat fast-path variants: steps 2-4 of fill_gaussian_block over
// words already in the output slots. The fast accept draws nothing, so each
// variant may test a whole group of words at once as long as it resolves the
// rejected ones in index order before the next group's.
namespace gaussian_fast_path {

void portable(Rng& rng, double* out, std::size_t n) {
  const NormalZiggurat& z = NormalZiggurat::get();
  for (std::size_t k = 0; k < n; ++k) {
    std::uint64_t word;
    std::memcpy(&word, out + k, sizeof word);
    const std::size_t layer = word & 0xffu;
    const double u = ziggurat_signed_unit(word);
    const double normal =
        std::abs(u) < z.ratio[layer] ? u * z.x[layer] : ziggurat_slow(rng, z, word);
    std::memcpy(out + k, &normal, sizeof normal);
  }
}

#if RESLOC_X86_SIMD

namespace {

/// The rejected lanes of one group, resolved in index order in baseline
/// code. Kept out of the AVX-512 loop on purpose: inlined there, GCC would
/// contract the wedge's f + uniform * (f' - f) into an FMA, which rounds
/// differently.
__attribute__((noinline)) void resolve_rejects(Rng& rng, const NormalZiggurat& z,
                                               double* group, unsigned rejected) {
  for (; rejected != 0; rejected &= rejected - 1) {
    double* const slot = group + __builtin_ctz(rejected);
    std::uint64_t word;
    std::memcpy(&word, slot, sizeof word);
    *slot = ziggurat_slow(rng, z, word);
  }
}

/// The AVX-512 variant's first `groups` groups of 8 words. Each lane runs
/// the scalar fast path's exact operations: the 45-bit lattice integer is
/// converted exactly (it is below 2^53) and scaled by 2^-45, ratio[layer]
/// and x[layer] are gathered, and u * x is stored under the |u| < ratio
/// mask; the group's other lanes still hold their words for
/// resolve_rejects.
__attribute__((target("avx512f,avx512dq")))
void avx512_groups(Rng& rng, const NormalZiggurat& z, double* out, std::size_t groups) {
  const __m512i layer_bits = _mm512_set1_epi64(0xff);
  const __m512i one = _mm512_set1_epi64(1);
  const __m512i half = _mm512_set1_epi64(std::int64_t{1} << 45);
  const __m512d scale = _mm512_set1_pd(0x1.0p-45);
  for (std::size_t g = 0; g < groups; ++g) {
    double* const group = out + 8 * g;
    const __m512i word = _mm512_loadu_si512(group);
    const __m512i layer = _mm512_and_si512(word, layer_bits);
    const __m512i odd = _mm512_or_si512(_mm512_slli_epi64(_mm512_srli_epi64(word, 8), 1), one);
    const __m512d u = _mm512_mul_pd(_mm512_cvtepi64_pd(_mm512_sub_epi64(odd, half)), scale);
    const __m512d ratio = _mm512_i64gather_pd(layer, z.ratio, 8);
    const __m512d x = _mm512_i64gather_pd(layer, z.x, 8);
    const __mmask8 accept = _mm512_cmp_pd_mask(_mm512_abs_pd(u), ratio, _CMP_LT_OQ);
    _mm512_mask_storeu_pd(group, accept, _mm512_mul_pd(u, x));
    const unsigned rejected = ~static_cast<unsigned>(accept) & 0xffu;
    if (rejected != 0) resolve_rejects(rng, z, group, rejected);
  }
}

}  // namespace

void avx512(Rng& rng, double* out, std::size_t n) {
  const std::size_t whole = n - n % 8;
  avx512_groups(rng, NormalZiggurat::get(), out, whole / 8);
  portable(rng, out + whole, n - whole);
}

#endif  // RESLOC_X86_SIMD

}  // namespace gaussian_fast_path

void Rng::fill_gaussian_block(double* out, std::size_t n) {
  // The words land in the output slots themselves and are overwritten in
  // place by their normals, so the block needs no buffer of its own.
  static_assert(sizeof(double) == sizeof(std::uint64_t), "in-place word slots");
  fill_uniform_bits_block(reinterpret_cast<std::uint64_t*>(out), n);
#if RESLOC_X86_SIMD
  if (cpu_has_avx512_kernels()) {
    gaussian_fast_path::avx512(*this, out, n);
    return;
  }
#endif
  gaussian_fast_path::portable(*this, out, n);
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  assert(lo <= hi);
  const auto range = static_cast<std::uint64_t>(hi - lo) + 1;
  if (range == 0) {  // full 64-bit range requested
    return static_cast<std::int64_t>((static_cast<std::uint64_t>(next_u32()) << 32) | next_u32());
  }
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = (~0ULL / range) * range;
  std::uint64_t draw;
  do {
    draw = (static_cast<std::uint64_t>(next_u32()) << 32) | next_u32();
  } while (draw >= limit);
  return lo + static_cast<std::int64_t>(draw % range);
}

double Rng::gaussian(double mean, double stddev) {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return mean + stddev * cached_gaussian_;
  }
  // Box-Muller: two uniforms -> two independent standard normals.
  double u1;
  do {
    u1 = uniform();
  } while (u1 <= 0.0);
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * resloc::math::kPi * u2;
  cached_gaussian_ = r * std::sin(theta);
  has_cached_gaussian_ = true;
  return mean + stddev * r * std::cos(theta);
}

bool Rng::bernoulli(double p) { return uniform() < p; }

double Rng::exponential(double lambda) {
  assert(lambda > 0.0);
  double u;
  do {
    u = uniform();
  } while (u <= 0.0);
  return -std::log(u) / lambda;
}

std::vector<std::size_t> Rng::sample_indices(std::size_t n, std::size_t k) {
  // Clamp instead of trusting the caller: with NDEBUG the old assert was a
  // no-op and resize(k > n) padded the sample with duplicate zero indices.
  if (k > n) k = n;
  std::vector<std::size_t> all(n);
  for (std::size_t i = 0; i < n; ++i) all[i] = i;
  shuffle(all);
  all.resize(k);
  return all;
}

Rng Rng::fork(std::uint64_t stream_index) const {
  // Mix state, stream selector, and index so that (a) different parents give
  // different substream families and (b) consecutive indices land far apart.
  const std::uint64_t base = splitmix64(state_ ^ splitmix64(inc_));
  const std::uint64_t seed = splitmix64(base ^ splitmix64(stream_index));
  const std::uint64_t stream = splitmix64(seed + 0x632be59bd9b4e019ULL);
  return Rng(seed, stream);
}

Rng Rng::split() {
  const std::uint64_t seed = (static_cast<std::uint64_t>(next_u32()) << 32) | next_u32();
  const std::uint64_t stream = (static_cast<std::uint64_t>(next_u32()) << 32) | next_u32();
  return Rng(seed, stream);
}

}  // namespace resloc::math
