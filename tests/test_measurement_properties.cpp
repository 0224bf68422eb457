// Edge-case and property coverage for the Section 3.5 measurement plumbing:
// symmetrization of a raw-sample list and the statistical filter. These lock the
// behaviours the acoustic sweep axis leans on -- empty campaigns, lone
// estimates, outlier-dominated pairs, and asymmetric per-direction counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "math/rng.hpp"
#include "ranging/measurement_table.hpp"
#include "ranging/statistical_filter.hpp"

namespace {

using resloc::ranging::FilterKind;
using resloc::ranging::FilterPolicy;
using resloc::ranging::PairEstimate;
using resloc::ranging::RangingSample;
using resloc::ranging::robust_report;
using resloc::ranging::symmetric_estimates;

/// Appends one raw estimate from -> to (ground truth unused here).
void add(std::vector<RangingSample>& samples, unsigned from, unsigned to, double measured_m) {
  samples.push_back({from, to, 0.0, measured_m});
}

// --- statistical_filter edge cases ---

TEST(StatisticalFilter, EmptyInputYieldsNoEstimate) {
  for (const FilterKind kind : {FilterKind::kMedian, FilterKind::kMode, FilterKind::kAuto}) {
    FilterPolicy policy;
    policy.kind = kind;
    EXPECT_FALSE(resloc::ranging::filter_measurements({}, policy).has_value());
  }
}

TEST(StatisticalFilter, SingleMeasurementPassesThroughUnchanged) {
  // Median (and kAuto below its mode threshold) return the lone value
  // exactly; the mode estimate quantizes to its bin center by construction,
  // so it may move the value by at most half a bin.
  for (const FilterKind kind : {FilterKind::kMedian, FilterKind::kAuto}) {
    FilterPolicy policy;
    policy.kind = kind;
    const auto out = resloc::ranging::filter_measurements({7.25}, policy);
    ASSERT_TRUE(out.has_value());
    EXPECT_DOUBLE_EQ(*out, 7.25);
  }
  FilterPolicy mode;
  mode.kind = FilterKind::kMode;
  const auto out = resloc::ranging::filter_measurements({7.25}, mode);
  ASSERT_TRUE(out.has_value());
  EXPECT_NEAR(*out, 7.25, resloc::ranging::kModeBinWidthM / 2.0 + 1e-12);
}

TEST(StatisticalFilter, MedianResistsMinorityOutliers) {
  // Five honest ~10 m readings and two wild echoes: the median must stay with
  // the majority (the Figure 4 mechanism).
  FilterPolicy policy;
  policy.kind = FilterKind::kMedian;
  const auto out =
      resloc::ranging::filter_measurements({10.1, 9.9, 10.0, 10.2, 9.8, 3.0, 31.0}, policy);
  ASSERT_TRUE(out.has_value());
  EXPECT_NEAR(*out, 10.0, 0.25);
}

TEST(StatisticalFilter, AllOutlierInputStillReturnsAValueInRange) {
  // When every measurement is garbage there is no right answer, but the
  // filter must stay within the observed range rather than extrapolate.
  FilterPolicy policy;
  policy.kind = FilterKind::kAuto;
  std::vector<double> garbage = {2.0, 40.0, 11.0, 29.0, 5.5, 33.0, 18.0, 3.5};
  const auto out = resloc::ranging::filter_measurements(garbage, policy);
  ASSERT_TRUE(out.has_value());
  EXPECT_GE(*out, *std::min_element(garbage.begin(), garbage.end()));
  EXPECT_LE(*out, *std::max_element(garbage.begin(), garbage.end()));
}

TEST(StatisticalFilter, AutoSwitchesToModeOnceEnoughSamples) {
  // Below kModeMinSamples kAuto behaves as median; at or above it, as mode.
  FilterPolicy policy;
  policy.kind = FilterKind::kAuto;
  // Four samples: median of {9, 10, 10, 30} = 10; mode would also be 10 --
  // use an input where the two disagree: {1, 10, 10.2, 30}: median 10.1.
  const auto few = resloc::ranging::filter_measurements({1.0, 10.0, 10.2, 30.0}, policy);
  ASSERT_TRUE(few.has_value());
  EXPECT_NEAR(*few, 10.1, 1e-9);
  // Six samples, one short of kModeMinSamples: still the median (10.16),
  // where the mode would pick the 10.0-10.25 bin's center (10.125).
  static_assert(resloc::ranging::kModeMinSamples == 7);
  const auto six =
      resloc::ranging::filter_measurements({1.0, 10.0, 10.02, 10.3, 30.0, 31.0}, policy);
  ASSERT_TRUE(six.has_value());
  EXPECT_NEAR(*six, 10.16, 1e-9);
  // Seven samples, bimodal with the true-distance bin denser: the mode picks
  // the dense decimeter bin even though outliers drag the median upward.
  const auto many = resloc::ranging::filter_measurements(
      {10.0, 10.05, 10.1, 24.0, 24.1, 39.0, 10.02}, policy);
  ASSERT_TRUE(many.has_value());
  EXPECT_NEAR(*many, 10.0, 0.3);
}

TEST(StatisticalFilter, MaxSamplesUsesEarliestMeasurements) {
  // "median filtering of up to five measurements": later readings are cut.
  FilterPolicy policy;
  policy.kind = FilterKind::kMedian;
  policy.max_samples = 5;
  const auto out = resloc::ranging::filter_measurements(
      {10.0, 10.1, 9.9, 10.2, 9.8, 500.0, 500.0, 500.0, 500.0}, policy);
  ASSERT_TRUE(out.has_value());
  EXPECT_NEAR(*out, 10.0, 0.25);
}

// --- Robust pre-filters (consistency vote + MAD rejection) ---

TEST(RobustFilter, DefaultsLeaveClassicPathUntouched) {
  // Both robust stages default OFF: a default policy must reproduce the
  // plain median/mode result bit-for-bit (this is what keeps every existing
  // golden byte-stream valid).
  const FilterPolicy plain;
  EXPECT_FALSE(plain.consistency_vote);
  EXPECT_FALSE(plain.mad_reject);
  const std::vector<double> v{10.0, 10.1, 9.9, 30.0};
  EXPECT_DOUBLE_EQ(*resloc::ranging::filter_measurements(v, plain),
                   *resloc::ranging::filter_measurements(v, FilterPolicy{}));
}

TEST(RobustFilter, MadDoesNotFalselyRejectCleanGaussianNoise) {
  // Paper-default measurement noise is ~N(0, 0.33 m). At threshold 3.5 robust
  // sigmas, clean draws must very rarely be cut: rejecting honest
  // measurements is worse than keeping an outlier the median absorbs anyway.
  // (The 8-sample MAD is a noisy sigma estimate, so the small-sample rate
  // runs above the asymptotic ~5e-4; ~1.5% observed is the pinned ceiling.)
  resloc::math::Rng rng(0x51F7);
  FilterPolicy policy;
  policy.mad_reject = true;  // defaults: threshold 3.5, floor 0.05 m
  std::size_t rejected = 0;
  std::size_t total = 0;
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<double> v;
    for (int i = 0; i < 8; ++i) v.push_back(10.0 + rng.gaussian(0.0, 0.33));
    resloc::ranging::FilterStats stats;
    ASSERT_TRUE(resloc::ranging::filter_measurements(v, policy, &stats).has_value());
    rejected += stats.input - stats.after_mad;
    total += stats.input;
  }
  EXPECT_LE(rejected, total / 40);  // <= 2.5% of 1600 clean draws (24 observed)
}

TEST(RobustFilter, MadCutsGrossOutlierTheMedianWouldSurvive) {
  // Even when the median already resists the outlier, MAD removes it so the
  // downstream mean/mode never sees it; stats records exactly one cut.
  FilterPolicy policy;
  policy.mad_reject = true;
  resloc::ranging::FilterStats stats;
  const auto out = resloc::ranging::filter_measurements(
      {10.0, 10.1, 9.9, 10.05, 9.95, 25.6}, policy, &stats);
  ASSERT_TRUE(out.has_value());
  EXPECT_NEAR(*out, 10.0, 0.1);
  EXPECT_EQ(stats.input, 6u);
  EXPECT_EQ(stats.after_mad, 5u);
}

TEST(RobustFilter, VoteIsOrderIndependent) {
  // The winning cluster (and therefore the estimate) must not depend on the
  // order measurements arrived in -- threaded campaigns insert in turn order,
  // and byte-identity across thread counts leans on this.
  resloc::math::Rng rng(0xD15C);
  FilterPolicy policy;
  policy.consistency_vote = true;
  std::vector<double> v = {10.0, 10.2, 10.4, 25.8, 25.9, 3.0, 10.1};
  const auto reference = resloc::ranging::filter_measurements(v, policy);
  ASSERT_TRUE(reference.has_value());
  for (int shuffle = 0; shuffle < 30; ++shuffle) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[static_cast<std::size_t>(rng.uniform_int(0, i - 1))]);
    }
    const auto out = resloc::ranging::filter_measurements(v, policy);
    ASSERT_TRUE(out.has_value());
    EXPECT_DOUBLE_EQ(*out, *reference);
  }
}

TEST(RobustFilter, VotePicksTheLargerClusterAndDropsTheRest) {
  // 4 echo readings ~25.8 m vs 3 true readings ~10 m: the echoes win the
  // vote (correctly -- the filter can only judge self-consistency), and the
  // minority is gone from the estimate entirely rather than dragging it.
  FilterPolicy policy;
  policy.consistency_vote = true;
  resloc::ranging::FilterStats stats;
  const auto out = resloc::ranging::filter_measurements(
      {10.0, 25.8, 10.1, 25.9, 25.7, 10.2, 25.85}, policy, &stats);
  ASSERT_TRUE(out.has_value());
  EXPECT_NEAR(*out, 25.8, 0.2);
  EXPECT_EQ(stats.after_vote, 4u);
  EXPECT_FALSE(stats.vote_failed);
}

TEST(RobustFilter, VoteWithNoConsensusReturnsNullopt) {
  // Every reading in its own cluster: no candidate reaches the two votes, so
  // the pair has no self-consistent distance and must be dropped -- the
  // mechanism that cuts echo-dominated long links out of a campaign.
  FilterPolicy policy;
  policy.consistency_vote = true;
  resloc::ranging::FilterStats stats;
  const auto out =
      resloc::ranging::filter_measurements({5.0, 12.0, 19.0, 26.0}, policy, &stats);
  EXPECT_FALSE(out.has_value());
  EXPECT_TRUE(stats.vote_failed);
  EXPECT_EQ(stats.after_vote, 0u);
}

TEST(RobustFilter, VoteTieBreaksTowardSmallestValue) {
  // Two clusters of equal size: the smaller (earlier-arrival) cluster wins.
  // Deterministic tie-breaking is part of the order-independence contract,
  // and preferring the earlier cluster is physically right -- first arrival
  // is the direct path; later consistent clusters are echoes.
  FilterPolicy policy;
  policy.consistency_vote = true;
  const auto out =
      resloc::ranging::filter_measurements({25.8, 10.0, 10.1, 25.9}, policy);
  ASSERT_TRUE(out.has_value());
  EXPECT_NEAR(*out, 10.05, 1e-9);
}

TEST(RobustFilter, StatsTrackEveryStage) {
  // vote keeps the 4-strong cluster plus the straggler at 10.4 (inside the
  // 0.5 m tolerance) and drops 30.0; MAD then cuts the straggler, 0.38 m off
  // the median against a 3.5 x 0.05 m floored sigma:
  // input 6 -> after_vote 5 -> after_mad 4.
  FilterPolicy policy;
  policy.consistency_vote = true;
  policy.mad_reject = true;
  resloc::ranging::FilterStats stats;
  const auto out = resloc::ranging::filter_measurements(
      {10.0, 10.05, 9.95, 10.02, 10.4, 30.0}, policy, &stats);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(stats.input, 6u);
  EXPECT_EQ(stats.after_vote, 5u);
  EXPECT_EQ(stats.after_mad, 4u);
  EXPECT_NEAR(*out, 10.0, 0.1);
}

TEST(RobustFilter, RobustReportAggregatesAcrossSamples) {
  std::vector<RangingSample> samples;
  // Pair (0,1): consensus cluster + one outlier the vote cuts.
  for (const double m : {10.0, 10.1, 9.9, 30.0}) add(samples, 0, 1, m);
  // Pair (2,3): no two readings agree -> vote nulls the pair.
  for (const double m : {5.0, 15.0, 25.0}) add(samples, 2, 3, m);
  FilterPolicy policy;
  policy.consistency_vote = true;
  const auto report = robust_report(samples, policy);
  EXPECT_EQ(report.measurements, 7u);
  EXPECT_EQ(report.directed_pairs, 2u);
  EXPECT_EQ(report.vote_rejected, 4u);  // 1 from (0,1) + all 3 from (2,3)
  EXPECT_EQ(report.pairs_without_consensus, 1u);
}

// --- Symmetrization of a raw-sample list ---

TEST(RangingSamples, EmptyListProducesNothing) {
  const std::vector<RangingSample> samples;
  const auto report = robust_report(samples, FilterPolicy{});
  EXPECT_EQ(report.measurements, 0u);
  EXPECT_EQ(report.directed_pairs, 0u);
  EXPECT_TRUE(symmetric_estimates(samples, FilterPolicy{}, 1.0).empty());
}

TEST(RangingSamples, SingleDirectionalEstimatePassesThrough) {
  std::vector<RangingSample> samples;
  add(samples, 3, 1, 12.5);
  const auto pairs = symmetric_estimates(samples, FilterPolicy{}, 1.0);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].a, 1u);  // canonical order a < b regardless of direction
  EXPECT_EQ(pairs[0].b, 3u);
  EXPECT_DOUBLE_EQ(pairs[0].distance_m, 12.5);
  // Not bidirectional, so a bidirectional-only view drops it.
  EXPECT_FALSE(pairs[0].bidirectional);
}

TEST(RangingSamples, AsymmetricPairCountsFilterEachDirectionIndependently) {
  // Five forward readings (median 10.0) against one stray backward reading:
  // within tolerance the estimate is the average of the two per-direction
  // filtered values, and it is marked bidirectional.
  std::vector<RangingSample> samples;
  for (const double m : {9.9, 10.0, 10.1, 10.05, 9.95}) add(samples, 0, 1, m);
  add(samples, 1, 0, 10.5);
  FilterPolicy policy;
  policy.kind = FilterKind::kMedian;
  const auto pairs = symmetric_estimates(samples, policy, 1.0);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_TRUE(pairs[0].bidirectional);
  EXPECT_NEAR(pairs[0].distance_m, 0.5 * (10.0 + 10.5), 1e-9);
}

TEST(RangingSamples, InconsistentBidirectionalPairIsDiscarded) {
  // Section 3.5: "bidirectional range estimates ... are discarded if they are
  // inconsistent" -- disagreement beyond the tolerance removes the pair
  // entirely rather than averaging two irreconcilable readings.
  std::vector<RangingSample> samples;
  add(samples, 0, 1, 10.0);
  add(samples, 1, 0, 14.0);
  EXPECT_TRUE(symmetric_estimates(samples, FilterPolicy{}, 1.0).empty());
  // The same pair survives under a tolerance that covers the gap.
  const auto loose = symmetric_estimates(samples, FilterPolicy{}, 5.0);
  ASSERT_EQ(loose.size(), 1u);
  EXPECT_NEAR(loose.front().distance_m, 12.0, 1e-9);
}

TEST(RangingSamples, SymmetrizationOutputIsCanonicallyOrdered) {
  // Property over random sample lists: every output pair has a < b, appears
  // at most once, and its distance lies within the range of that pair's raw
  // readings.
  resloc::math::Rng rng(0xABCD);
  for (int round = 0; round < 20; ++round) {
    std::vector<RangingSample> samples;
    std::map<std::pair<unsigned, unsigned>, std::pair<double, double>> bounds;
    const int entries = 1 + static_cast<int>(rng.uniform_int(0, 30));
    for (int e = 0; e < entries; ++e) {
      const auto i = static_cast<unsigned>(rng.uniform_int(0, 6));
      auto j = static_cast<unsigned>(rng.uniform_int(0, 6));
      if (i == j) j = (j + 1) % 7;
      const double m = rng.uniform(5.0, 25.0);
      add(samples, i, j, m);
      auto& b = bounds.try_emplace({std::min(i, j), std::max(i, j)},
                                   std::make_pair(m, m)).first->second;
      b.first = std::min(b.first, m);
      b.second = std::max(b.second, m);
    }
    std::set<std::pair<unsigned, unsigned>> seen;
    for (const PairEstimate& p : symmetric_estimates(samples, FilterPolicy{}, 1e9)) {
      EXPECT_LT(p.a, p.b);
      EXPECT_TRUE(seen.insert({p.a, p.b}).second) << "duplicate pair";
      const auto& b = bounds.at({p.a, p.b});
      EXPECT_GE(p.distance_m, b.first - 1e-9);
      EXPECT_LE(p.distance_m, b.second + 1e-9);
    }
  }
}

}  // namespace
