#include "ranging/statistical_filter.hpp"

#include <algorithm>
#include <cmath>

#include "math/stats.hpp"

namespace resloc::ranging {

namespace {

/// 1.4826 * MAD estimates sigma under Gaussian noise (1 / Phi^-1(3/4)).
constexpr double kMadToSigma = 1.4826;

/// Consistency vote on a *sorted* measurement list: keeps the inlier run of
/// the best-supported candidate, or empties the list when no candidate
/// reaches kConsistencyMinVotes. Two pointers over the sorted values count each
/// candidate's inliers in O(n); the strict > comparison keeps the first
/// (smallest) best candidate, making the winner -- and therefore the output
/// -- independent of the caller's input order.
void consistency_vote(std::vector<double>& sorted, bool* vote_failed) {
  const std::size_t n = sorted.size();
  std::size_t best_begin = 0;
  std::size_t best_count = 0;
  std::size_t lo = 0;
  std::size_t hi = 0;
  for (std::size_t i = 0; i < n; ++i) {
    while (sorted[i] - sorted[lo] > kConsistencyToleranceM) ++lo;
    if (hi < i + 1) hi = i + 1;
    while (hi < n && sorted[hi] - sorted[i] <= kConsistencyToleranceM) ++hi;
    if (hi - lo > best_count) {
      best_count = hi - lo;
      best_begin = lo;
    }
  }
  if (best_count < kConsistencyMinVotes) {
    *vote_failed = true;
    sorted.clear();
    return;
  }
  sorted.erase(sorted.begin() + static_cast<std::ptrdiff_t>(best_begin + best_count),
               sorted.end());
  sorted.erase(sorted.begin(), sorted.begin() + static_cast<std::ptrdiff_t>(best_begin));
}

/// MAD rejection on >= 3 samples: drops values beyond kMadThreshold robust
/// sigmas from the median.
void mad_reject(std::vector<double>& values) {
  if (values.size() < 3) return;
  const double center = *resloc::math::median(std::vector<double>(values));
  const double spread = *resloc::math::mad(values);
  const double sigma = std::max(kMadToSigma * spread, kMadFloorM);
  const double limit = kMadThreshold * sigma;
  values.erase(std::remove_if(values.begin(), values.end(),
                              [&](double x) { return std::abs(x - center) > limit; }),
               values.end());
}

}  // namespace

std::optional<double> filter_measurements(std::vector<double> measurements,
                                          const FilterPolicy& policy, FilterStats* stats) {
  if (stats != nullptr) *stats = FilterStats{};
  // Scrub non-finite values first: a NaN in std::sort's comparator is UB and
  // a NaN median poisons the edge silently. Scrubbing precedes the
  // max_samples cut so corruption cannot crowd out real measurements.
  const std::size_t raw_count = measurements.size();
  measurements.erase(
      std::remove_if(measurements.begin(), measurements.end(),
                     [](double x) { return !std::isfinite(x); }),
      measurements.end());
  if (stats != nullptr) stats->non_finite_dropped = raw_count - measurements.size();
  if (measurements.empty()) return std::nullopt;
  if (policy.max_samples > 0 && measurements.size() > policy.max_samples) {
    measurements.resize(policy.max_samples);
  }
  if (stats != nullptr) stats->input = measurements.size();

  // The robust pre-filters work on sorted values: the vote needs the order,
  // and every downstream estimator (median, binned mode) is permutation-
  // invariant, so sorting costs nothing in fidelity and buys determinism
  // regardless of the order measurements arrived in.
  bool vote_failed = false;
  if (policy.consistency_vote) {
    std::sort(measurements.begin(), measurements.end());
    consistency_vote(measurements, &vote_failed);
  }
  if (stats != nullptr) {
    stats->after_vote = measurements.size();
    stats->vote_failed = vote_failed;
  }
  if (measurements.empty()) return std::nullopt;

  if (policy.mad_reject) {
    mad_reject(measurements);
  }
  if (stats != nullptr) stats->after_mad = measurements.size();
  if (measurements.empty()) return std::nullopt;

  FilterKind kind = policy.kind;
  if (kind == FilterKind::kAuto) {
    kind = measurements.size() >= kModeMinSamples ? FilterKind::kMode : FilterKind::kMedian;
  }
  switch (kind) {
    case FilterKind::kMode:
      return resloc::math::binned_mode(measurements, kModeBinWidthM);
    case FilterKind::kMedian:
    default:
      return resloc::math::median(std::move(measurements));
  }
}

}  // namespace resloc::ranging
