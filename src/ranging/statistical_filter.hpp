// Statistical filtering of repeated range measurements (Section 3.5).
//
// "Assuming that the errors are not correlated, we make multiple distance
// measurements for a pair of nodes and apply statistical filtering ...
// Depending on the number of measurements, we take the median or mode value
// of the measurements, which limits the effect of outliers. The mode
// operation is more resistant ... but it needs more measurements to be
// effective."
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

namespace resloc::ranging {

/// Which robust estimate to apply to a pair's repeated measurements.
enum class FilterKind {
  kMedian,
  kMode,
  /// The paper's adaptive policy: mode when enough measurements are
  /// available to make it meaningful, median otherwise.
  kAuto,
};

/// Bin width (meters) used by the mode estimate; chirp-quantization noise is
/// a few cm, so decimeter bins group true-distance detections.
inline constexpr double kModeBinWidthM = 0.25;
/// Minimum sample count before kAuto switches from median to mode.
inline constexpr std::size_t kModeMinSamples = 7;

/// Consistency-vote tolerance (meters): a measurement votes for every
/// candidate within this distance of it.
inline constexpr double kConsistencyToleranceM = 0.5;
/// Minimum votes (including the candidate itself) for a usable consensus.
inline constexpr std::size_t kConsistencyMinVotes = 2;

/// MAD rejection drops measurements farther than kMadThreshold robust sigmas
/// from the median; the robust sigma is 1.4826 * MAD floored at kMadFloorM
/// (sample quantization is ~2 cm, so exact-duplicate lists have MAD 0 and
/// need the floor to keep near-duplicates).
inline constexpr double kMadThreshold = 3.5;
inline constexpr double kMadFloorM = 0.05;

/// Statistical filter configuration.
struct FilterPolicy {
  FilterKind kind = FilterKind::kAuto;
  /// Cap on how many measurements are used (earliest first); the paper's
  /// Figure 4 uses "median filtering of up to five measurements".
  std::size_t max_samples = 0;  ///< 0 = use all

  // --- Robust pre-filters. Both default OFF: the plain median/mode path and
  // --- every existing golden byte-stream are untouched unless a config opts
  // --- in. When enabled they run before the median/mode estimate, in the
  // --- order vote -> MAD (reject what never repeats, then trim the tails of
  // --- what did).

  /// RANSAC-style consistency vote across the pair's repeated measurements
  /// (rounds): every measurement is a candidate, votes are the measurements
  /// within kConsistencyToleranceM of it, and the candidate with the most
  /// votes wins (exact ties break toward the smallest value, so the outcome
  /// is independent of input order). Only the winner's inliers reach the
  /// estimator. If even the winner has fewer than kConsistencyMinVotes
  /// votes, the pair has no self-consistent distance at all -- echo-dominated
  /// long links produce exactly this signature, because the pattern's random
  /// inter-chirp delays decorrelate echo detections across rounds -- and the
  /// filter returns std::nullopt rather than averaging garbage (the Section
  /// 3.5 "discard inconsistent" rule applied within one direction).
  bool consistency_vote = false;

  /// MAD-based outlier rejection (kMadThreshold, kMadFloorM). Applied only to
  /// lists of >= 3; with fewer there is no meaningful spread estimate.
  bool mad_reject = false;
};

/// Where each measurement of one filter_measurements call went -- the
/// rejection diagnostics the campaign surfaces per detector mode.
struct FilterStats {
  std::size_t input = 0;       ///< considered (after the max_samples cut)
  std::size_t after_vote = 0;  ///< survivors of the consistency vote
  std::size_t after_mad = 0;   ///< survivors of MAD rejection
  bool vote_failed = false;    ///< no candidate reached kConsistencyMinVotes
  /// NaN/inf inputs scrubbed before any stage ran. Always zero for real
  /// acoustic detections; injected corruption (fault layer) produces them,
  /// and they must never reach std::sort (NaN comparators are UB).
  std::size_t non_finite_dropped = 0;
};

/// Applies the policy to one pair's measurement list. Returns std::nullopt
/// when the list is empty or (with consistency_vote) when no consensus
/// exists. `stats`, when given, receives the per-stage rejection counts.
std::optional<double> filter_measurements(std::vector<double> measurements,
                                          const FilterPolicy& policy,
                                          FilterStats* stats = nullptr);

}  // namespace resloc::ranging
