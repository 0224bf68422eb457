// The refined signal detection algorithm of Section 3.5 / Figure 3.
//
// record-signal: binary tone-detector outputs from several chirps are added
// into one buffer, aligned by the radio sync message, "in a manner which
// amplifies tone detections occurring in the same positions in multiple
// attempts". The buffer allocates 4 bits per offset, capping accumulation at
// 15 chirps (Section 3.6.2).
//
// detect-signal: threshold detection -- the accumulated count must reach T,
// and that must happen for at least k of m consecutive samples; the detected
// signal start is the first sample of the qualifying window.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace resloc::ranging {

/// Detection thresholds used by SignalScanner. Defaults are the calibrated
/// values from the grass experiment (Section 3.6): sums from 10 chirps must
/// exceed T=2 in at least k=6 of m=32 consecutive samples.
struct DetectionParams {
  int threshold = 2;       ///< T: minimum accumulated count per sample
  int window = 32;         ///< m: consecutive-sample window length
  int min_detections = 6;  ///< k: qualifying samples required in the window
};

/// Accumulates binary tone-detector series across chirps (record-signal).
/// The 4-bit counters are stored as four bit planes, the layout of the
/// mote's 4-bit buffer turned sideways: bit i of plane b is bit b of sample
/// i's count, so one chirp's fired bitmask is added 64 samples per word by a
/// ripple-carry add, and count >= T is a bit-sliced compare.
class SignalAccumulator {
 public:
  /// `num_samples` is the per-chirp sampling window length.
  explicit SignalAccumulator(std::size_t num_samples);

  /// Adds one chirp's fired bitmask -- bit i of fired[i / 64] set when
  /// sample i fired, (size() + 63) / 64 words, bits past size() ignored --
  /// into the counters. Chirps past kMaxChirps are dropped, so no count
  /// exceeds 15 and the planes never overflow.
  void record_chirp(const std::uint64_t* fired);

  /// Zeroes the counters (and resizes to `num_samples`) so one accumulator
  /// can be reused across a campaign's pairs without reallocating.
  void reset(std::size_t num_samples);

  /// Accumulated count of sample i < size(), in [0, kMaxChirps].
  int count(std::size_t i) const;

  /// Writes (size() + 63) / 64 words to `mask`: bit i set when sample i's
  /// count is at least `threshold`. threshold <= 0 selects every sample,
  /// threshold > 15 none; bits past size() are zero.
  void at_least(int threshold, std::uint64_t* mask) const;

  std::size_t size() const { return n_; }
  int chirps_recorded() const { return chirps_; }

  /// Hard cap from the 4-bit-per-offset buffer layout (Section 3.6.2).
  static constexpr int kMaxChirps = 15;

 private:
  static constexpr std::size_t kPlanes = 4;

  /// Word w of plane b at planes_[kPlanes * w + b]: one chirp's add touches
  /// a word's four planes together.
  std::vector<std::uint64_t> planes_;
  std::size_t n_ = 0;
  int chirps_ = 0;
};

/// Preceding-silence pattern check (Section 3.5): the pattern's 3 ms gap is
/// 48 samples at 16 kHz, and a genuine onset may have at most 2 qualifying
/// samples inside it.
inline constexpr int kSilenceGapSamples = 48;
inline constexpr int kSilenceMaxNoisy = 2;

/// detect-signal from Figure 3 (0-indexed), resumable: next() yields, in
/// ascending order, the first sample of every window of `params.window`
/// consecutive samples that holds at least `params.min_detections` samples
/// with count >= params.threshold and whose first sample qualifies (it marks
/// the signal start) -- each the index the paper's scan restarted at the
/// previous result + 1 returns (tests/reference keeps that scan as the
/// oracle). The counters are compared once into one bit per sample (count >=
/// T, SignalAccumulator::at_least); next() jumps between qualifying starts
/// with count-trailing-zeros and counts each window with popcount.
class SignalScanner {
 public:
  SignalScanner() = default;
  SignalScanner(const SignalAccumulator& counts, const DetectionParams& params) {
    reset(counts, params);
  }

  /// Restarts the scan over `counts`, reusing the mask's storage.
  void reset(const SignalAccumulator& counts, const DetectionParams& params);

  /// Next candidate start index at or after the previous result + 1
  /// (first call: at or after 0), or -1 once exhausted.
  int next();

  /// Pattern verification (Section 3.5): a genuine detection at `index`
  /// follows the pattern's silence, so true when the `gap` samples before it
  /// hold at most `max_noisy` qualifying samples (false for index < 0);
  /// failures are echo tails or noise ("due to noise or echoes that are not
  /// part of the pattern").
  bool quiet_before(int index, int gap, int max_noisy) const;

 private:
  /// Qualifying samples in [lo, hi), lo < hi <= n.
  int count_qualifying(int lo, int hi) const;

  std::vector<std::uint64_t> qualifying_;  ///< bit i of word i / 64: count_i >= T
  DetectionParams params_;
  int n_ = 0;
  int start_ = 0;  ///< next window start to examine
};

}  // namespace resloc::ranging
